// Interconnect fabric tests: typed message geometry, NI contention
// serialization on both backends, bulk-transfer occupancy scaling, 2D
// mesh hop latency, and per-class byte accounting — both at the fabric
// and end-to-end through DsmSystem transactions.
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "dsm/cluster.hpp"
#include "net/fabric.hpp"
#include "net/message.hpp"
#include "protocols/system_factory.hpp"

namespace dsm {
namespace {

Message ctrl(MsgKind k, NodeId s, NodeId d) {
  return Message::control(k, s, d, /*blk=*/1);
}

// --------------------------------------------------------------------------
// Message geometry
// --------------------------------------------------------------------------

TEST(Message, ByteSizesDeriveFromGeometry) {
  EXPECT_EQ(ctrl(MsgKind::kGetS, 0, 1).total_bytes(), kMsgHeaderBytes);
  EXPECT_EQ(Message::data(0, 1, 7).total_bytes(),
            kMsgHeaderBytes + kBlockBytes);
  EXPECT_EQ(Message::writeback(0, 1, 7).total_bytes(),
            kMsgHeaderBytes + kBlockBytes);
  EXPECT_EQ(Message::page_bulk(0, 1, 3, kBlocksPerPage).total_bytes(),
            kMsgHeaderBytes + kPageBytes);
}

TEST(Message, KindsMapToTrafficClasses) {
  EXPECT_EQ(traffic_class(MsgKind::kGetS), TrafficClass::kControl);
  EXPECT_EQ(traffic_class(MsgKind::kGetX), TrafficClass::kControl);
  EXPECT_EQ(traffic_class(MsgKind::kUpgrade), TrafficClass::kControl);
  EXPECT_EQ(traffic_class(MsgKind::kInval), TrafficClass::kControl);
  EXPECT_EQ(traffic_class(MsgKind::kAck), TrafficClass::kControl);
  EXPECT_EQ(traffic_class(MsgKind::kHint), TrafficClass::kControl);
  EXPECT_EQ(traffic_class(MsgKind::kData), TrafficClass::kData);
  EXPECT_EQ(traffic_class(MsgKind::kWriteback), TrafficClass::kData);
  EXPECT_EQ(traffic_class(MsgKind::kPageBulk), TrafficClass::kPageOp);
}

// --------------------------------------------------------------------------
// Constant-latency backend: the paper's timing contract
// --------------------------------------------------------------------------

TEST(NiFabric, UnloadedTransferLatency) {
  TimingConfig t;
  NiFabric net(4, t, nullptr);
  const Cycle done = net.send(Message::data(0, 1, 7), 1000);
  EXPECT_EQ(done, 1000 + t.ni_send + t.net_latency + t.ni_recv);
  EXPECT_EQ(net.messages(), 1u);
  EXPECT_EQ(net.messages(MsgKind::kData), 1u);
}

TEST(NiFabric, SendNiContention) {
  TimingConfig t;
  NiFabric net(4, t, nullptr);
  const Cycle first = net.send(ctrl(MsgKind::kGetS, 0, 1), 1000);
  // Second message from the same node at the same time queues at the NI.
  const Cycle second = net.send(ctrl(MsgKind::kGetS, 0, 2), 1000);
  EXPECT_EQ(second, first + t.ni_send);
}

TEST(NiFabric, RecvNiContention) {
  TimingConfig t;
  NiFabric net(4, t, nullptr);
  const Cycle a = net.send(ctrl(MsgKind::kGetS, 0, 3), 1000);
  const Cycle b = net.send(ctrl(MsgKind::kGetS, 1, 3), 1000);
  EXPECT_EQ(b, a + t.ni_recv);  // serialized at the receiver
}

TEST(NiFabric, PostedTransferConsumesBandwidthOnly) {
  TimingConfig t;
  NiFabric net(4, t, nullptr);
  net.post(Message::writeback(0, 1, 7), 1000);
  // A subsequent critical-path message queues behind the writeback.
  const Cycle done = net.send(Message::data(0, 1, 8), 1000);
  EXPECT_EQ(done, 1000 + 2 * t.ni_send + t.net_latency + t.ni_recv);
}

TEST(NiFabric, BulkTransferScalesWithBlocks) {
  TimingConfig t;
  NiFabric net(4, t, nullptr);
  const Cycle small = net.send(Message::page_bulk(0, 1, 0, 4), 0);
  NiFabric net2(4, t, nullptr);
  const Cycle big = net2.send(Message::page_bulk(0, 1, 0, 64), 0);
  EXPECT_GT(big, small);
}

TEST(NiFabric, BulkOccupancySerializesFollowingTraffic) {
  TimingConfig t;
  NiFabric net(4, t, nullptr);
  // A full-page bulk occupies the send NI for ni_send * blocks/4.
  net.send(Message::page_bulk(0, 1, 0, 64), 1000);
  const Cycle occ = t.ni_send * (64 / 4);
  const Cycle next = net.send(ctrl(MsgKind::kGetS, 0, 2), 1000);
  EXPECT_EQ(next, 1000 + occ + t.ni_send + t.net_latency + t.ni_recv);
}

// --------------------------------------------------------------------------
// 2D mesh backend
// --------------------------------------------------------------------------

TEST(MeshFabric, MostSquareLayoutAndHops) {
  TimingConfig t;
  MeshFabric mesh(8, t, nullptr);  // 8 nodes -> 4x2
  EXPECT_EQ(mesh.width(), 4u);
  EXPECT_EQ(mesh.height(), 2u);
  EXPECT_EQ(mesh.hops(0, 1), 1u);  // neighbors on a row
  EXPECT_EQ(mesh.hops(0, 4), 1u);  // neighbors on a column
  EXPECT_EQ(mesh.hops(0, 7), 4u);  // corner to corner: 3 + 1
  EXPECT_EQ(mesh.hops(3, 3), 0u);
}

TEST(MeshFabric, HopCountDrivesWireLatency) {
  TimingConfig t;
  MeshFabric mesh(8, t, nullptr);
  const Cycle near = mesh.send(ctrl(MsgKind::kGetS, 0, 1), 1000) - 1000;
  const Cycle far = mesh.send(ctrl(MsgKind::kGetS, 0, 7), 10000) - 10000;
  EXPECT_EQ(near, t.ni_send + 1 * t.mesh_hop_latency + t.ni_recv);
  EXPECT_EQ(far, t.ni_send + 4 * t.mesh_hop_latency + t.ni_recv);
}

TEST(MeshFabric, ExplicitWidthOverride) {
  TimingConfig t;
  MeshFabric chain(8, t, nullptr, /*width=*/8);  // 1x8 chain
  EXPECT_EQ(chain.hops(0, 7), 7u);
}

TEST(MeshFabric, NiContentionStillSerializes) {
  TimingConfig t;
  MeshFabric mesh(8, t, nullptr);
  const Cycle first = mesh.send(ctrl(MsgKind::kGetS, 0, 1), 1000);
  const Cycle second = mesh.send(ctrl(MsgKind::kGetS, 0, 1), 1000);
  EXPECT_EQ(second, first + t.ni_send);
}

// --------------------------------------------------------------------------
// Link-level router contention
// --------------------------------------------------------------------------

TEST(MeshLinkContention, SharedLinkSerializesDisjointRoutesDoNot) {
  TimingConfig t;  // link contention on by default (4 B/cycle)
  ASSERT_GT(t.mesh_link_bytes_per_cycle, 0u);
  MeshFabric mesh(8, t, nullptr);  // 4x2

  // A full-page bulk 0 -> 2 seizes links 0->1 and 1->2 for its
  // serialization time.
  mesh.post(Message::page_bulk(0, 2, 0, kBlocksPerPage), 0);
  const Cycle bulk_socc = t.ni_send * (kBlocksPerPage / 4);
  const Cycle link_occ =
      (kMsgHeaderBytes + kPageBytes + t.mesh_link_bytes_per_cycle - 1) /
      t.mesh_link_bytes_per_cycle;

  // A control message crossing the shared link 1->2 queues behind the
  // bulk's occupancy...
  const Cycle contended = mesh.send(ctrl(MsgKind::kGetS, 1, 2), 0);
  EXPECT_EQ(contended, bulk_socc + t.mesh_hop_latency + link_occ +
                           t.mesh_hop_latency + t.ni_recv);

  // ...while a same-shape message on a disjoint route (bottom row) is
  // completely unaffected.
  const Cycle disjoint = mesh.send(ctrl(MsgKind::kGetS, 4, 5), 0);
  EXPECT_EQ(disjoint, t.ni_send + t.mesh_hop_latency + t.ni_recv);
  EXPECT_GT(contended, disjoint);

  // The shared link saw both messages queued at once.
  EXPECT_EQ(mesh.out_link(1, LinkDir::kEast).max_queue_depth, 2u);
  EXPECT_EQ(mesh.out_link(4, LinkDir::kEast).max_queue_depth, 1u);
}

TEST(MeshLinkContention, ZeroBandwidthDisablesLinkModel) {
  TimingConfig t;
  t.mesh_link_bytes_per_cycle = 0;  // NI-only wire model
  MeshFabric mesh(8, t, nullptr);
  mesh.post(Message::page_bulk(0, 2, 0, kBlocksPerPage), 0);
  const Cycle done = mesh.send(ctrl(MsgKind::kGetS, 1, 2), 0);
  // With the link model off the queueing happens at the *edge*: the
  // control message rides an uncontended wire (pure hop latency) and
  // only waits for the bulk's occupancy of the shared receive NI.
  const Cycle bulk_socc = t.ni_send * (kBlocksPerPage / 4);
  const Cycle bulk_rocc = t.ni_recv * (kBlocksPerPage / 4);
  const Cycle bulk_at_recv = bulk_socc + 2 * t.mesh_hop_latency;
  EXPECT_EQ(done, bulk_at_recv + bulk_rocc + t.ni_recv);
  // And there is no link state at all.
  EXPECT_EQ(mesh.link_bytes_total(), 0u);
  EXPECT_EQ(mesh.max_link_queue_depth(), 0u);
}

TEST(MeshLinkContention, LinkBytesCountEveryTraversal) {
  TimingConfig t;
  Stats stats(8);
  MeshFabric mesh(8, t, &stats);  // 4x2
  const Message near = ctrl(MsgKind::kGetS, 0, 1);   // 1 hop
  const Message far = Message::data(0, 7, 9);        // 4 hops
  mesh.send(near, 0);
  mesh.send(far, 100000);

  // TrafficBreakdown charges each message once, at its sender...
  EXPECT_EQ(stats.traffic_total().total_bytes(), mesh.bytes());
  EXPECT_EQ(stats.node[0].traffic.total_bytes(),
            near.total_bytes() + far.total_bytes());
  // ...while link bytes count each link crossed.
  EXPECT_EQ(mesh.link_bytes_total(),
            1 * std::uint64_t(near.total_bytes()) +
                4 * std::uint64_t(far.total_bytes()));
  // The per-node aggregates surfaced into NodeStats reconcile with the
  // fabric's own per-link totals.
  std::uint64_t node_sum = 0;
  for (const NodeStats& n : stats.node) node_sum += n.link_bytes;
  EXPECT_EQ(node_sum, mesh.link_bytes_total());
}

TEST(TorusFabric, WraparoundPicksTheShorterDirection) {
  TimingConfig t;
  TorusFabric torus(8, t, nullptr);  // 4x2 with wrap links
  MeshFabric mesh(8, t, nullptr);
  // Across the row: 3 mesh hops, but 1 torus hop going west off the edge.
  EXPECT_EQ(mesh.hops(0, 3), 3u);
  EXPECT_EQ(torus.hops(0, 3), 1u);
  // Corner to corner: wrap in x (1) + one row (1).
  EXPECT_EQ(mesh.hops(0, 7), 4u);
  EXPECT_EQ(torus.hops(0, 7), 2u);
  // The shorter route is what the wire actually does, links included.
  const Cycle wrapped = torus.send(ctrl(MsgKind::kGetS, 0, 3), 1000) - 1000;
  EXPECT_EQ(wrapped, t.ni_send + 1 * t.mesh_hop_latency + t.ni_recv);
  // The wrap link is the west out-link of the row's first column.
  EXPECT_EQ(torus.neighbor(0, LinkDir::kWest), 3u);
  EXPECT_EQ(torus.out_link(0, LinkDir::kWest).msgs, 1u);
  // A mesh edge has no wrap neighbor.
  EXPECT_EQ(mesh.neighbor(0, LinkDir::kWest), MeshFabric::kNoRouter);
}

// --------------------------------------------------------------------------
// Byte accounting
// --------------------------------------------------------------------------

TEST(FabricAccounting, BytesReconcileWithMessageCounts) {
  TimingConfig t;
  Stats stats(4);
  NiFabric net(4, t, &stats);
  net.send(ctrl(MsgKind::kGetS, 0, 1), 0);            // control
  net.send(Message::data(1, 0, 7), 0);                // data
  net.post(Message::writeback(2, 0, 9), 0);           // data
  net.post(ctrl(MsgKind::kHint, 2, 0), 0);            // control
  net.send(Message::page_bulk(3, 0, 5, 64), 0);       // page-op

  const TrafficBreakdown sum = stats.traffic_total();
  EXPECT_EQ(sum.total_msgs(), net.messages());
  EXPECT_EQ(sum.msgs_of(TrafficClass::kControl), 2u);
  EXPECT_EQ(sum.msgs_of(TrafficClass::kData), 2u);
  EXPECT_EQ(sum.msgs_of(TrafficClass::kPageOp), 1u);
  // Every byte is attributable: msgs x header + payloads, per class.
  EXPECT_EQ(sum.bytes_of(TrafficClass::kControl), 2 * kMsgHeaderBytes);
  EXPECT_EQ(sum.bytes_of(TrafficClass::kData),
            2 * (kMsgHeaderBytes + kBlockBytes));
  EXPECT_EQ(sum.bytes_of(TrafficClass::kPageOp),
            kMsgHeaderBytes + kPageBytes);
  EXPECT_EQ(sum.total_bytes(), net.bytes());
  // Charged at the sending node.
  EXPECT_EQ(stats.node[0].traffic.total_bytes(), kMsgHeaderBytes);
  EXPECT_EQ(stats.node[3].traffic.bytes_of(TrafficClass::kPageOp),
            kMsgHeaderBytes + kPageBytes);
}

class FabricSystemTest : public ::testing::Test {
 protected:
  void build(SystemKind kind, FabricKind fabric) {
    cfg_ = SystemConfig::base(kind);
    cfg_.nodes = 4;
    cfg_.cpus_per_node = 2;
    cfg_.fabric = fabric;
    stats_ = Stats(cfg_.nodes);
    sys_ = make_system(cfg_, &stats_);
  }
  Cycle go(NodeId node, Addr addr, bool write, Cycle start) {
    return sys_->access({node * cfg_.cpus_per_node, node, addr, write, start});
  }

  SystemConfig cfg_;
  Stats stats_{0};
  std::unique_ptr<DsmSystem> sys_;
};

TEST_F(FabricSystemTest, RemoteReadEmitsRequestAndDataBytes) {
  build(SystemKind::kCcNuma, FabricKind::kNiConstant);
  const Addr a = 0x10000;
  go(0, a, false, 0);       // bind home at node 0
  go(1, a, false, 50000);   // remote clean read (maps + fetches)
  // Requester sent control (GETS); home sent data (reply).
  EXPECT_GE(stats_.node[1].traffic.msgs_of(TrafficClass::kControl), 1u);
  EXPECT_GE(stats_.node[0].traffic.msgs_of(TrafficClass::kData), 1u);
  EXPECT_EQ(stats_.node[0].traffic.bytes_of(TrafficClass::kData),
            stats_.node[0].traffic.msgs_of(TrafficClass::kData) *
                (kMsgHeaderBytes + kBlockBytes));
  // No page operations ran: no page-op bytes anywhere.
  EXPECT_EQ(stats_.traffic_total().bytes_of(TrafficClass::kPageOp), 0u);
}

TEST_F(FabricSystemTest, ReplicationEmitsPageOpBytes) {
  build(SystemKind::kCcNuma, FabricKind::kNiConstant);
  const Addr a = 0x30000;
  go(0, a, false, 0);
  go(1, a, false, 10000);
  sys_->replicate_page(page_of(a), 1, 50000);
  // The home shipped one full page as bulk traffic.
  EXPECT_EQ(stats_.node[0].traffic.msgs_of(TrafficClass::kPageOp), 1u);
  EXPECT_EQ(stats_.node[0].traffic.bytes_of(TrafficClass::kPageOp),
            kMsgHeaderBytes + kPageBytes);
}

TEST_F(FabricSystemTest, MeshBackendRunsTheFullProtocol) {
  build(SystemKind::kCcNuma, FabricKind::kMesh2d);
  EXPECT_STREQ(sys_->fabric().name(), "mesh-2d");
  const Addr a = 0x10000;
  go(0, a, false, 0);
  go(1, a, false, 50000);
  go(2, a, true, 200000);   // write: invalidation round
  go(1, a, false, 400000);  // coherence refetch
  sys_->check_coherence();
  EXPECT_GT(stats_.traffic_total().total_bytes(), 0u);
}

TEST_F(FabricSystemTest, LinkContentionChangesLatencyNeverBytes) {
  // The same access script under the NI-only and the link-contention
  // wire models must produce identical per-class byte accounting:
  // contention moves queueing into the fabric, it never invents or
  // drops traffic.
  auto script = [&](Stats* out) {
    const Addr a = 0x10000, b = 0x50000;
    go(0, a, false, 0);
    go(0, b, false, 10000);
    go(1, a, false, 100000);
    go(3, b, false, 100000);
    go(2, a, true, 300000);
    go(1, a, false, 500000);
    sys_->replicate_page(page_of(b), 2, 700000);
    sys_->check_coherence();
    *out = stats_;
  };

  Stats ni_only(0), with_links(0);
  build(SystemKind::kCcNuma, FabricKind::kMesh2d);
  cfg_.timing.mesh_link_bytes_per_cycle = 0;
  sys_ = make_system(cfg_, &stats_);
  script(&ni_only);

  build(SystemKind::kCcNuma, FabricKind::kMesh2d);
  ASSERT_GT(cfg_.timing.mesh_link_bytes_per_cycle, 0u);
  script(&with_links);

  for (std::size_t c = 0; c < std::size_t(TrafficClass::kCount); ++c) {
    EXPECT_EQ(ni_only.traffic_total().bytes[c],
              with_links.traffic_total().bytes[c]);
    EXPECT_EQ(ni_only.traffic_total().msgs[c],
              with_links.traffic_total().msgs[c]);
  }
  // Only the link model has link state.
  EXPECT_EQ(ni_only.link_bytes_total(), 0u);
  EXPECT_GT(with_links.link_bytes_total(), 0u);
}

TEST_F(FabricSystemTest, TorusBackendRunsTheFullProtocol) {
  build(SystemKind::kCcNuma, FabricKind::kTorus2d);
  EXPECT_STREQ(sys_->fabric().name(), "torus-2d");
  const Addr a = 0x10000;
  go(0, a, false, 0);
  go(1, a, false, 50000);
  go(2, a, true, 200000);
  go(1, a, false, 400000);
  sys_->check_coherence();
  EXPECT_GT(stats_.traffic_total().total_bytes(), 0u);
}

TEST_F(FabricSystemTest, MeshDistanceShowsUpInRemoteLatency) {
  // 4 nodes -> 2x2 mesh; all distinct pairs are 1-2 hops. Compare a
  // 1-hop neighbor fetch against the 2-hop diagonal: same protocol,
  // different wire time.
  build(SystemKind::kCcNuma, FabricKind::kMesh2d);
  const Addr a = 0x10000, b = 0x20000;
  go(0, a, false, 0);
  go(0, b, false, 1000);
  go(1, a, false, 100000);  // node 1 is 1 hop from node 0
  go(3, b, false, 100000);  // node 3 is 2 hops from node 0
  // Measure at disjoint times so the two fetches don't queue against
  // each other at the shared home node.
  const Cycle lat1 = go(1, a + 2 * kBlockBytes, false, 500000) - 500000;
  const Cycle lat3 = go(3, b + 2 * kBlockBytes, false, 800000) - 800000;
  // Two extra hops each way at mesh_hop_latency apiece.
  EXPECT_EQ(lat3 - lat1, 2 * cfg_.timing.mesh_hop_latency);
}

}  // namespace
}  // namespace dsm
