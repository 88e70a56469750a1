// Interconnect fabric tests: typed message geometry, NI contention
// serialization on every wire, bulk-transfer occupancy scaling, 2D
// mesh hop latency, per-class byte accounting — both at the fabric and
// end-to-end through DsmSystem transactions — the mesh/torus route
// walk checked hop for hop against a reference walker, and the
// resolution of a:b node-pair outages.
#include <gtest/gtest.h>

#include <deque>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "dsm/cluster.hpp"
#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"
#include "protocols/system_factory.hpp"

namespace dsm {
namespace {

Message ctrl(MsgKind k, NodeId s, NodeId d) {
  return Message::control(k, s, d, /*blk=*/1);
}

// The config a Fabric is built from: `nodes` nodes on `kind` with
// timing `t` (width 0 = the most square grid).
SystemConfig net_cfg(FabricKind kind, std::uint32_t nodes,
                     const TimingConfig& t, std::uint32_t width = 0) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.fabric = kind;
  cfg.mesh_width = width;
  cfg.timing = t;
  return cfg;
}
constexpr FabricKind kNi = FabricKind::kNiConstant;
constexpr FabricKind kMesh = FabricKind::kMesh2d;
constexpr FabricKind kTorus = FabricKind::kTorus2d;

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
// Constant-latency wire: the paper's timing contract
// --------------------------------------------------------------------------

TEST(NiConstant, UnloadedTransferLatency) {
  TimingConfig t;
  Stats stats(4);
  Fabric net(net_cfg(kNi, 4, t), &stats);
  const Cycle done = net.send(Message::data(0, 1, 7), 1000);
  EXPECT_EQ(done, 1000 + t.ni_send + t.net_latency + t.ni_recv);
  EXPECT_EQ(stats.traffic_total().total_msgs(), 1u);
  EXPECT_EQ(stats.traffic_total().msgs_of(TrafficClass::kData), 1u);
}

TEST(NiConstant, SendNiContention) {
  TimingConfig t;
  Stats stats(4);
  Fabric net(net_cfg(kNi, 4, t), &stats);
  const Cycle first = net.send(ctrl(MsgKind::kGetS, 0, 1), 1000);
  // Second message from the same node at the same time queues at the NI.
  const Cycle second = net.send(ctrl(MsgKind::kGetS, 0, 2), 1000);
  EXPECT_EQ(second, first + t.ni_send);
}

TEST(NiConstant, RecvNiContention) {
  TimingConfig t;
  Stats stats(4);
  Fabric net(net_cfg(kNi, 4, t), &stats);
  const Cycle a = net.send(ctrl(MsgKind::kGetS, 0, 3), 1000);
  const Cycle b = net.send(ctrl(MsgKind::kGetS, 1, 3), 1000);
  EXPECT_EQ(b, a + t.ni_recv);  // serialized at the receiver
}

TEST(NiConstant, PostedTransferConsumesBandwidthOnly) {
  TimingConfig t;
  Stats stats(4);
  Fabric net(net_cfg(kNi, 4, t), &stats);
  net.post(Message::writeback(0, 1, 7), 1000);
  // A subsequent critical-path message queues behind the writeback.
  const Cycle done = net.send(Message::data(0, 1, 8), 1000);
  EXPECT_EQ(done, 1000 + 2 * t.ni_send + t.net_latency + t.ni_recv);
}

TEST(NiConstant, BulkTransferScalesWithBlocks) {
  TimingConfig t;
  Stats stats(4);
  Fabric net(net_cfg(kNi, 4, t), &stats);
  const Cycle small = net.send(Message::page_bulk(0, 1, 0, 4), 0);
  Fabric net2(net_cfg(kNi, 4, t), &stats);
  const Cycle big = net2.send(Message::page_bulk(0, 1, 0, 64), 0);
  EXPECT_GT(big, small);
}

TEST(NiConstant, BulkOccupancySerializesFollowingTraffic) {
  TimingConfig t;
  Stats stats(4);
  Fabric net(net_cfg(kNi, 4, t), &stats);
  // A full-page bulk occupies the send NI for ni_send * blocks/4.
  net.send(Message::page_bulk(0, 1, 0, 64), 1000);
  const Cycle occ = t.ni_send * (64 / 4);
  const Cycle next = net.send(ctrl(MsgKind::kGetS, 0, 2), 1000);
  EXPECT_EQ(next, 1000 + occ + t.ni_send + t.net_latency + t.ni_recv);
}

// --------------------------------------------------------------------------
// 2D mesh
// --------------------------------------------------------------------------

TEST(Mesh2d, MostSquareLayoutAndHops) {
  const Grid mesh(net_cfg(kMesh, 8, TimingConfig{}));  // 8 nodes -> 4x2
  EXPECT_EQ(mesh.width, 4u);
  EXPECT_EQ(mesh.height, 2u);
  EXPECT_EQ(mesh.hops(0, 1), 1u);  // neighbors on a row
  EXPECT_EQ(mesh.hops(0, 4), 1u);  // neighbors on a column
  EXPECT_EQ(mesh.hops(0, 7), 4u);  // corner to corner: 3 + 1
  EXPECT_EQ(mesh.hops(3, 3), 0u);
}

TEST(Mesh2d, HopCountDrivesWireLatency) {
  TimingConfig t;
  Stats stats(8);
  Fabric mesh(net_cfg(kMesh, 8, t), &stats);
  const Cycle near = mesh.send(ctrl(MsgKind::kGetS, 0, 1), 1000) - 1000;
  const Cycle far = mesh.send(ctrl(MsgKind::kGetS, 0, 7), 10000) - 10000;
  EXPECT_EQ(near, t.ni_send + 1 * t.mesh_hop_latency + t.ni_recv);
  EXPECT_EQ(far, t.ni_send + 4 * t.mesh_hop_latency + t.ni_recv);
}

TEST(Mesh2d, ExplicitWidthOverride) {
  const Grid chain(net_cfg(kMesh, 8, TimingConfig{}, /*width=*/8));  // 1x8
  EXPECT_EQ(chain.hops(0, 7), 7u);
}

TEST(Mesh2d, NiContentionStillSerializes) {
  TimingConfig t;
  Stats stats(8);
  Fabric mesh(net_cfg(kMesh, 8, t), &stats);
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
  Stats stats(8);
  Fabric mesh(net_cfg(kMesh, 8, t), &stats);  // 4x2

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
  Stats stats(8);
  Fabric mesh(net_cfg(kMesh, 8, t), &stats);
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
  EXPECT_EQ(mesh.link_usage().bytes, 0u);
  EXPECT_EQ(mesh.link_usage().max_queue_depth, 0u);
}

TEST(MeshLinkContention, LinkBytesCountEveryTraversal) {
  TimingConfig t;
  Stats stats(8);
  Fabric mesh(net_cfg(kMesh, 8, t), &stats);  // 4x2
  const Message near = ctrl(MsgKind::kGetS, 0, 1);   // 1 hop
  const Message far = Message::data(0, 7, 9);        // 4 hops
  mesh.send(near, 0);
  mesh.send(far, 100000);

  // TrafficBreakdown charges each message once, at its sender...
  EXPECT_EQ(stats.node[0].traffic.total_bytes(),
            near.total_bytes() + far.total_bytes());
  // ...while link bytes count each link crossed.
  EXPECT_EQ(mesh.link_usage().bytes,
            1 * std::uint64_t(near.total_bytes()) +
                4 * std::uint64_t(far.total_bytes()));
  // The totals reconcile with the links they are taken from.
  std::uint64_t link_sum = 0;
  for (std::uint32_t r = 0; r < mesh.grid().routers(); ++r)
    for (std::uint32_t d = 0; d < 4; ++d)
      link_sum += mesh.out_link(r, LinkDir(d)).bytes;
  EXPECT_EQ(link_sum, mesh.link_usage().bytes);
}

TEST(Torus2d, WraparoundPicksTheShorterDirection) {
  TimingConfig t;
  Stats stats(8);
  Fabric torus(net_cfg(kTorus, 8, t), &stats);  // 4x2 with wrap links
  const Grid mesh(net_cfg(kMesh, 8, t));
  // Across the row: 3 mesh hops, but 1 torus hop going west off the edge.
  EXPECT_EQ(mesh.hops(0, 3), 3u);
  EXPECT_EQ(torus.grid().hops(0, 3), 1u);
  // Corner to corner: wrap in x (1) + one row (1).
  EXPECT_EQ(mesh.hops(0, 7), 4u);
  EXPECT_EQ(torus.grid().hops(0, 7), 2u);
  // The shorter route is what the wire actually does, links included.
  const Cycle wrapped = torus.send(ctrl(MsgKind::kGetS, 0, 3), 1000) - 1000;
  EXPECT_EQ(wrapped, t.ni_send + 1 * t.mesh_hop_latency + t.ni_recv);
  // The wrap link is the west out-link of the row's first column.
  EXPECT_EQ(torus.grid().neighbor(0, LinkDir::kWest), 3u);
  EXPECT_EQ(torus.out_link(0, LinkDir::kWest).msgs, 1u);
  // A mesh edge has no wrap neighbor.
  EXPECT_EQ(mesh.neighbor(0, LinkDir::kWest), Grid::kNoRouter);
}

// --------------------------------------------------------------------------
// Byte accounting
// --------------------------------------------------------------------------

TEST(FabricAccounting, BytesReconcileWithMessageCounts) {
  TimingConfig t;
  Stats stats(4);
  Fabric net(net_cfg(kNi, 4, t), &stats);
  net.send(ctrl(MsgKind::kGetS, 0, 1), 0);            // control
  net.send(Message::data(1, 0, 7), 0);                // data
  net.post(Message::writeback(2, 0, 9), 0);           // data
  net.post(ctrl(MsgKind::kHint, 2, 0), 0);            // control
  net.send(Message::page_bulk(3, 0, 5, 64), 0);       // page-op

  const TrafficBreakdown sum = stats.traffic_total();
  EXPECT_EQ(sum.total_msgs(), 5u);
  EXPECT_EQ(sum.msgs_of(TrafficClass::kControl), 2u);
  EXPECT_EQ(sum.msgs_of(TrafficClass::kData), 2u);
  EXPECT_EQ(sum.msgs_of(TrafficClass::kPageOp), 1u);
  // Every byte is attributable: msgs x header + payloads, per class.
  EXPECT_EQ(sum.bytes_of(TrafficClass::kControl), 2 * kMsgHeaderBytes);
  EXPECT_EQ(sum.bytes_of(TrafficClass::kData),
            2 * (kMsgHeaderBytes + kBlockBytes));
  EXPECT_EQ(sum.bytes_of(TrafficClass::kPageOp),
            kMsgHeaderBytes + kPageBytes);
  EXPECT_EQ(sum.total_bytes(),
            5 * kMsgHeaderBytes + 2 * kBlockBytes + kPageBytes);
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
    sys_->parallel_end(800000);  // takes the link totals
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


// --------------------------------------------------------------------------
// Differential route walk
// --------------------------------------------------------------------------

// The mesh/torus wire in its plainest form, the reference the fabric's
// walks must reproduce bit for bit: every hop divides out the grid
// coordinates, asks neighbor() about every candidate, builds the full
// candidate list and scans the outage list, and every link keeps all
// its in-flight finish times in a std::deque. It models the Fabric a
// mesh/torus config builds: without faults, or with a plan that
// schedules link outages and node crashes but no per-message
// perturbation.
class ReferenceMesh {
 public:
  static constexpr std::uint32_t kNone = Grid::kNoRouter;

  struct Link {
    Resource res;
    std::deque<Cycle> inflight;
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    std::uint32_t max_queue_depth = 0;
  };

  explicit ReferenceMesh(const SystemConfig& cfg)
      : send_ni(cfg.nodes),
        recv_ni(cfg.nodes),
        links(std::size_t(cfg.nodes) * 4),
        t_(cfg.timing),
        width_(cfg.mesh_width),
        height_(cfg.nodes / cfg.mesh_width),
        wrap_(cfg.fabric == FabricKind::kTorus2d),
        outages_(std::size_t(cfg.nodes) * 4) {
    const FaultConfig& f = cfg.faults;
    for (const FaultConfig::LinkDown& ld : f.link_downs)
      add_outage(ld.router, ld.dir, ld.down, ld.up);
    // FaultPlan's seeded batch: stream 0x20000 of the plan seed.
    Rng gen = Rng::for_stream(f.seed, 0x20000);
    for (std::uint32_t i = 0; i < f.rand_link_downs; ++i) {
      const auto router = std::uint32_t(gen.next_below(cfg.nodes));
      const auto dir = std::uint32_t(gen.next_below(4));
      const Cycle down = gen.next_below(f.rand_link_down_horizon);
      add_outage(router, dir, down, down + f.rand_link_down_len);
    }
    // A crash takes down the dead router's links in both directions.
    crashes_ = f.node_downs;
    for (const FaultConfig::NodeDown& nd : crashes_) {
      for (std::uint32_t d = 0; d < 4; ++d) {
        add_outage(nd.node, d, nd.down, nd.up);
        const std::uint32_t nb = neighbor(nd.node, LinkDir(d));
        if (nb == kNone) continue;
        for (std::uint32_t bd = 0; bd < 4; ++bd)
          if (neighbor(nb, LinkDir(bd)) == nd.node)
            add_outage(nb, bd, nd.down, nd.up);
      }
    }
  }

  std::uint32_t neighbor(std::uint32_t router, LinkDir d) const {
    const std::uint32_t x = router % width_, y = router / width_;
    switch (d) {
      case LinkDir::kEast:
        if (x + 1 < width_) return router + 1;
        return wrap_ ? router + 1 - width_ : kNone;
      case LinkDir::kWest:
        if (x > 0) return router - 1;
        return wrap_ ? router + width_ - 1 : kNone;
      case LinkDir::kSouth:
        if (y + 1 < height_) return router + width_;
        return wrap_ ? x : kNone;
      case LinkDir::kNorth:
        if (y > 0) return router - width_;
        return wrap_ ? (height_ - 1) * width_ + x : kNone;
      case LinkDir::kCount: break;
    }
    return kNone;
  }

  // Fabric::send_ex with no perturbation drawn.
  Delivery send_ex(const Message& m, Cycle ready) {
    if (crashed(m.src, ready)) {
      crash_drops++;
      return Delivery{ready, false, false};
    }
    if (crashed(m.dst, ready)) {
      crash_drops++;
      return Delivery{send_half(m, ready), false, false};
    }
    return wire(m, ready);
  }

  // The reliable channel: every link counts as up.
  Delivery send(const Message& m, Cycle ready) {
    suspended_ = true;
    const Delivery d = wire(m, ready);
    suspended_ = false;
    return d;
  }

  void post(const Message& m, Cycle ready) {
    if (crashed(m.src, ready) || crashed(m.dst, ready)) {
      crash_drops++;
      return;
    }
    suspended_ = true;
    const Cycle socc = ni_occ(m, t_.ni_send);
    send_ni[m.src].occupy(ready, socc);
    const Cycle at = traverse(m, ready + socc);
    if (at != kNeverCycle) recv_ni[m.dst].occupy(at, ni_occ(m, t_.ni_recv));
    suspended_ = false;
  }

  Cycle ni_occ(const Message& m, Cycle per_message) const {
    return per_message * std::max(1u, m.payload_blocks / 4);
  }
  // The first link a dimension-order route from `m.src` crosses.
  Link& first_link(const Message& m) {
    const std::uint32_t x = m.src % width_, xd = m.dst % width_;
    const LinkDir d = x != xd ? step_dir(x, xd, width_, true)
                              : step_dir(m.src / width_, m.dst / width_,
                                         height_, false);
    return links[std::size_t(m.src) * 4 + std::size_t(d)];
  }

  std::vector<Resource> send_ni;
  std::vector<Resource> recv_ni;
  std::vector<Link> links;
  LinkUsage totals;  // over every link
  std::uint64_t reroutes = 0;
  std::uint64_t crash_drops = 0;

 private:
  void add_outage(std::uint32_t router, std::uint32_t d, Cycle down,
                  Cycle up) {
    outages_[std::size_t(router) * 4 + d].push_back({down, up});
    has_outages_ = true;
  }
  bool crashed(NodeId n, Cycle t) const {
    for (const FaultConfig::NodeDown& nd : crashes_)
      if (nd.node == n && t >= nd.down && t < nd.up) return true;
    return false;
  }
  bool link_down(std::uint32_t router, LinkDir d, Cycle t) const {
    if (suspended_) return false;
    for (const auto& [down, up] : outages_[std::size_t(router) * 4 +
                                           std::size_t(d)])
      if (t >= down && t < up) return true;
    return false;
  }

  Cycle send_half(const Message& m, Cycle ready) {
    const Cycle socc = ni_occ(m, t_.ni_send);
    return send_ni[m.src].reserve(ready, socc) + socc;
  }
  Delivery wire(const Message& m, Cycle ready) {
    const Cycle depart = send_half(m, ready);
    const Cycle at = traverse(m, depart);
    if (at == kNeverCycle) return Delivery{depart, false, false};
    const Cycle rocc = ni_occ(m, t_.ni_recv);
    return Delivery{recv_ni[m.dst].reserve(at, rocc) + rocc, true, false};
  }

  unsigned dim_hops(std::uint32_t a, std::uint32_t b,
                    std::uint32_t size) const {
    const unsigned d = unsigned(a > b ? a - b : b - a);
    return wrap_ ? std::min(d, unsigned(size) - d) : d;
  }
  LinkDir step_dir(std::uint32_t cur, std::uint32_t dst, std::uint32_t size,
                   bool x_dim) const {
    bool forward;
    if (!wrap_) {
      forward = dst > cur;
    } else {
      const std::uint32_t fwd = (dst + size - cur) % size;
      forward = fwd <= size - fwd;
    }
    if (x_dim) return forward ? LinkDir::kEast : LinkDir::kWest;
    return forward ? LinkDir::kSouth : LinkDir::kNorth;
  }
  static LinkDir reverse(LinkDir d) {
    switch (d) {
      case LinkDir::kEast: return LinkDir::kWest;
      case LinkDir::kWest: return LinkDir::kEast;
      case LinkDir::kSouth: return LinkDir::kNorth;
      case LinkDir::kNorth: return LinkDir::kSouth;
      case LinkDir::kCount: break;
    }
    return LinkDir::kCount;
  }

  Cycle cross(std::uint32_t router, LinkDir d, const Message& m, Cycle occ,
              Cycle t) {
    Link& l = links[std::size_t(router) * 4 + std::size_t(d)];
    while (!l.inflight.empty() && l.inflight.front() <= t)
      l.inflight.pop_front();
    const Cycle start = l.res.reserve(t, occ);
    l.inflight.push_back(start + occ);
    l.max_queue_depth =
        std::max(l.max_queue_depth, std::uint32_t(l.inflight.size()));
    l.msgs++;
    l.bytes += m.total_bytes();
    totals.bytes += m.total_bytes();
    totals.busy += occ;
    totals.max_queue_depth =
        std::max(totals.max_queue_depth, l.max_queue_depth);
    return start + t_.mesh_hop_latency;
  }

  LinkDir pick_step(std::uint32_t cur, std::uint32_t dst, LinkDir back,
                    Cycle t) {
    const std::uint32_t x = cur % width_, y = cur / width_;
    const std::uint32_t xd = dst % width_, yd = dst / width_;
    const LinkDir preferred = x != xd ? step_dir(x, xd, width_, true)
                                      : step_dir(y, yd, height_, false);
    LinkDir order[4];
    int n = 0;
    const auto push = [&](LinkDir d) {
      for (int i = 0; i < n; ++i)
        if (order[i] == d) return;
      order[n++] = d;
    };
    push(preferred);
    if (x != xd && y != yd) push(step_dir(y, yd, height_, false));
    push(LinkDir::kEast);
    push(LinkDir::kWest);
    push(LinkDir::kSouth);
    push(LinkDir::kNorth);
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < n; ++i) {
        const LinkDir d = order[i];
        if (pass == 0 && d == back) continue;
        if (pass == 1 && d != back) continue;
        if (neighbor(cur, d) == kNone) continue;
        if (link_down(cur, d, t)) continue;
        if (d != preferred) reroutes++;
        return d;
      }
    }
    return LinkDir::kCount;
  }

  Cycle traverse(const Message& m, Cycle depart) {
    const bool contention = t_.mesh_link_bytes_per_cycle > 0;
    if (!contention && !has_outages_)
      return depart + Cycle(dim_hops(m.src % width_, m.dst % width_, width_) +
                            dim_hops(m.src / width_, m.dst / width_,
                                     height_)) *
                          t_.mesh_hop_latency;
    const std::uint32_t bw = t_.mesh_link_bytes_per_cycle;
    const Cycle occ =
        contention ? std::max<Cycle>(1, (m.total_bytes() + bw - 1) / bw) : 0;
    std::uint32_t cur = m.src;
    Cycle t = depart;
    const unsigned budget = 4 * (width_ + height_) + 8;
    unsigned taken = 0;
    LinkDir back = LinkDir::kCount;
    while (cur != m.dst) {
      if (++taken > budget) return kNeverCycle;
      const LinkDir d = pick_step(cur, m.dst, back, t);
      if (d == LinkDir::kCount) return kNeverCycle;
      t = contention ? cross(cur, d, m, occ, t) : t + t_.mesh_hop_latency;
      back = reverse(d);
      cur = neighbor(cur, d);
    }
    return t;
  }

  TimingConfig t_;
  std::uint32_t width_;
  std::uint32_t height_;
  bool wrap_;
  std::vector<std::vector<std::pair<Cycle, Cycle>>> outages_;
  std::vector<FaultConfig::NodeDown> crashes_;
  bool has_outages_ = false;
  bool suspended_ = false;
};

enum class WalkFaults { kNone, kWindows, kPermanentCrash };

// Every outage and crash window ends before 250k cycles, except the
// permanent crash; the traffic runs from 0 to 400k, so messages depart
// before, inside and after the windows.
SystemConfig walk_config(std::uint32_t nodes, std::uint32_t width,
                         FabricKind fabric, std::uint32_t link_bw,
                         WalkFaults faults, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.mesh_width = width;
  cfg.fabric = fabric;
  cfg.timing.mesh_link_bytes_per_cycle = link_bw;
  if (faults == WalkFaults::kNone) return cfg;
  FaultConfig& f = cfg.faults;
  f.seed = seed;
  Rng rng(seed * 31 + 7);
  for (std::uint32_t i = 0; i < nodes / 2 + 2; ++i) {
    const Cycle down = 20000 + rng.next_below(200000);
    f.link_downs.push_back({std::uint32_t(rng.next_below(nodes)),
                            std::uint8_t(rng.next_below(4)), down,
                            down + 1000 + rng.next_below(20000)});
  }
  f.rand_link_downs = nodes / 4 + 1;
  f.rand_link_down_len = 15000;
  f.rand_link_down_horizon = 215000;
  f.node_downs.push_back({1 % nodes, 60000, 160000});
  if (faults == WalkFaults::kPermanentCrash)
    f.node_downs.push_back({nodes - 2, 200000, kNeverCycle});
  return cfg;
}

Message walk_message(Rng& rng, std::uint32_t nodes) {
  const auto src = NodeId(rng.next_below(nodes));
  NodeId dst = NodeId((src + 1 + rng.next_below(nodes - 1)) % nodes);
  if (src != 0 && rng.next_below(5) == 0) dst = 0;  // hot home
  switch (rng.next_below(8)) {
    case 0: case 1: case 2: case 3: return ctrl(MsgKind::kGetS, src, dst);
    case 4: case 5: return Message::data(src, dst, 7);
    case 6: return Message::writeback(src, dst, 9);
    default:
      return Message::page_bulk(src, dst, 3,
                                1u << std::uint32_t(rng.next_below(7)));
  }
}

struct WalkTotals {
  std::uint64_t reroutes = 0;
  std::uint64_t lost = 0;
  std::uint64_t exact_finish = 0;
};

void run_walk_case(const SystemConfig& cfg, std::uint64_t seed,
                   WalkTotals& totals) {
  Stats stats(cfg.nodes);
  Fabric fab(cfg, &stats);
  ASSERT_EQ(fab.grid().width, cfg.mesh_width);
  ReferenceMesh ref(cfg);
  for (std::uint32_t r = 0; r < cfg.nodes; ++r)
    for (std::uint32_t d = 0; d < 4; ++d)
      ASSERT_EQ(fab.grid().neighbor(r, LinkDir(d)),
                ref.neighbor(r, LinkDir(d)));

  Rng rng(seed);
  constexpr unsigned kMsgs = 3000;
  constexpr Cycle kSpan = 400000;
  Message prev = ctrl(MsgKind::kGetS, 0, 1 % cfg.nodes);
  for (unsigned i = 0; i < kMsgs; ++i) {
    Message m = walk_message(rng, cfg.nodes);
    Cycle ready = Cycle(i) * kSpan / kMsgs + rng.next_below(3000);
    // Now and then, follow the previous message so that it reaches its
    // first link exactly when the previous holder's occupancy ends.
    if (i > 0 && rng.next_below(16) == 0) {
      m = prev;
      const Cycle socc = ref.ni_occ(m, cfg.timing.ni_send);
      const Cycle free_at = ref.first_link(m).res.busy_until();
      if (free_at >= ref.send_ni[m.src].busy_until() + socc) {
        ready = free_at - socc;
        totals.exact_finish++;
      }
    }
    const unsigned op = unsigned(rng.next_below(10));
    Delivery got, want;
    if (op < 7) {
      got = fab.send_ex(m, ready);
      want = ref.send_ex(m, ready);
    } else if (op < 9) {
      got.at = fab.send(m, ready);
      want = ref.send(m, ready);
      ASSERT_TRUE(want.delivered);
    } else {
      fab.post(m, ready);
      ref.post(m, ready);
    }
    ASSERT_EQ(got.at, want.at) << "message " << i;
    ASSERT_EQ(got.delivered, want.delivered) << "message " << i;
    ASSERT_EQ(got.duplicated, want.duplicated) << "message " << i;
    if (!want.delivered) totals.lost++;
    prev = m;
  }

  EXPECT_EQ(stats.faults.reroutes, ref.reroutes);
  EXPECT_EQ(stats.faults.crash_drops, ref.crash_drops);
  totals.reroutes += ref.reroutes;
  for (std::uint32_t r = 0; r < cfg.nodes; ++r) {
    SCOPED_TRACE(::testing::Message() << "router " << r);
    for (std::uint32_t d = 0; d < 4; ++d) {
      const MeshLink& got = fab.out_link(r, LinkDir(d));
      const ReferenceMesh::Link& want = ref.links[std::size_t(r) * 4 + d];
      EXPECT_EQ(got.msgs, want.msgs);
      EXPECT_EQ(got.bytes, want.bytes);
      EXPECT_EQ(got.max_queue_depth, want.max_queue_depth);
      EXPECT_EQ(got.res.total_busy(), want.res.total_busy());
      EXPECT_EQ(got.res.busy_until(), want.res.busy_until());
    }
    EXPECT_EQ(fab.send_ni(r).total_busy(), ref.send_ni[r].total_busy());
    EXPECT_EQ(fab.recv_ni(r).busy_until(), ref.recv_ni[r].busy_until());
  }
  // The totals Stats::links takes at parallel_end.
  EXPECT_EQ(fab.link_usage().bytes, ref.totals.bytes);
  EXPECT_EQ(fab.link_usage().busy, ref.totals.busy);
  EXPECT_EQ(fab.link_usage().max_queue_depth, ref.totals.max_queue_depth);
}

TEST(RouteWalk, MatchesTheReferenceWalkerOnEveryGeometry) {
  struct Shape {
    std::uint32_t nodes;
    std::uint32_t width;
  };
  const Shape shapes[] = {{8, 4}, {64, 8}, {5, 1}, {15, 3}};
  WalkTotals totals;
  std::uint64_t seed = 1;
  for (const Shape& s : shapes)
    for (FabricKind fabric : {FabricKind::kMesh2d, FabricKind::kTorus2d})
      for (std::uint32_t bw : {4u, 0u})
        for (WalkFaults faults : {WalkFaults::kNone, WalkFaults::kWindows,
                                  WalkFaults::kPermanentCrash}) {
          ++seed;
          SCOPED_TRACE(::testing::Message()
                       << s.width << "x" << s.nodes / s.width << " "
                       << (fabric == FabricKind::kTorus2d ? "torus" : "mesh")
                       << " link-bw " << bw << " faults " << int(faults)
                       << " seed " << seed);
          run_walk_case(
              walk_config(s.nodes, s.width, fabric, bw, faults, seed), seed,
              totals);
          if (::testing::Test::HasFatalFailure()) return;
        }
  // The scenarios reached the paths they exist for.
  EXPECT_GT(totals.reroutes, 0u);
  EXPECT_GT(totals.lost, 0u);
  EXPECT_GT(totals.exact_finish, 0u);
}

// --------------------------------------------------------------------------
// Node-pair outages (--fault-link-down a:b)
// --------------------------------------------------------------------------

TEST(NodePairOutage, DownsTheLinkTheRouteTakesAcrossASizeTwoTorusDimension) {
  // On a 4x2 torus two links join routers 0 and 4: north (the wrap)
  // and south. The dimension-order route 0 -> 4 takes south (ties go
  // east/south), so 0:4 must down south; downing north would leave the
  // route untouched.
  SystemConfig cfg = net_cfg(kTorus, 8, TimingConfig{});
  cfg.faults.node_link_downs.push_back({0, 4, 1000, 8000});
  Stats stats(8);
  Fabric torus(cfg, &stats);
  ASSERT_EQ(torus.grid().neighbor(0, LinkDir::kNorth), 4u);
  ASSERT_EQ(torus.grid().neighbor(0, LinkDir::kSouth), 4u);
  const Message m = ctrl(MsgKind::kGetS, 0, 4);
  EXPECT_TRUE(torus.send_ex(m, 100).delivered);  // before the window
  EXPECT_EQ(stats.faults.reroutes, 0u);
  EXPECT_EQ(torus.out_link(0, LinkDir::kSouth).msgs, 1u);
  EXPECT_TRUE(torus.send_ex(m, 2000).delivered);  // inside it: detour
  EXPECT_GT(stats.faults.reroutes, 0u);
  EXPECT_EQ(torus.out_link(0, LinkDir::kSouth).msgs, 1u);
}

TEST(RouteWalk, ArrivalAtTheFinishTimeFindsTheLinkIdle) {
  TimingConfig t;
  const Cycle occ = (Message::data(0, 1, 7).total_bytes() +
                     t.mesh_link_bytes_per_cycle - 1) /
                    t.mesh_link_bytes_per_cycle;
  Stats stats(8);
  Fabric mesh(net_cfg(kMesh, 8, t), &stats);  // 4x2
  mesh.send(Message::data(0, 1, 7), 0);  // holds 0->1 until ni_send + occ
  // Departing exactly at that finish: the first message has left.
  mesh.send(Message::data(0, 1, 7), occ);
  EXPECT_EQ(mesh.out_link(0, LinkDir::kEast).max_queue_depth, 1u);
  EXPECT_EQ(mesh.out_link(0, LinkDir::kEast).res.busy_until(),
            t.ni_send + 2 * occ);
  // One cycle earlier, the second message queues behind the first.
  Fabric early(net_cfg(kMesh, 8, t), &stats);
  early.send(Message::data(0, 1, 7), 0);
  early.send(Message::data(0, 1, 7), occ - 1);
  EXPECT_EQ(early.out_link(0, LinkDir::kEast).max_queue_depth, 2u);
}
}  // namespace
}  // namespace dsm
