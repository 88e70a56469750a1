// Fault-injection and protocol-recovery tests.
//
// Three layers:
//   1. Unit tests per fault primitive: FaultPlan draw determinism and
//      rate independence, Fabric::send_ex drop/duplicate/delay semantics,
//      mesh link outages with adaptive rerouting, and the recovery
//      paths (retry, NACK on duplicate, hard-error escalation, clean
//      page-op abort).
//   2. Rng stream independence (the property the reproducible fault
//      schedule rests on).
//   3. A randomized chaos soak: full workload runs under escalating
//      fault rates, crashes and link outages, asserting workload
//      verification, the global coherence invariant, run-to-run
//      bit-identity of results and fault counters at a fixed seed, and
//      identical results from run_matrix at one and at four jobs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dsm/cluster.hpp"
#include "harness/runner.hpp"
#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "protocols/system_factory.hpp"
#include "sim/engine.hpp"
#include "workloads/workload.hpp"

namespace dsm {
namespace {

// ---------------------------------------------------------------------------
// Rng stream independence
// ---------------------------------------------------------------------------

TEST(RngStreams, IndependentOfCreationAndDrawOrder) {
  const std::uint64_t seed = 0xfeedULL;
  // Reference sequences, each stream drawn in isolation.
  Rng a_ref = Rng::for_stream(seed, 1);
  Rng b_ref = Rng::for_stream(seed, 2);
  std::vector<std::uint64_t> a_seq, b_seq;
  for (int i = 0; i < 64; ++i) a_seq.push_back(a_ref.next_u64());
  for (int i = 0; i < 64; ++i) b_seq.push_back(b_ref.next_u64());

  // Interleaved draws from freshly created streams (opposite creation
  // order) reproduce the same per-stream sequences: a stream's values
  // depend only on (seed, stream_id).
  Rng b = Rng::for_stream(seed, 2);
  Rng a = Rng::for_stream(seed, 1);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.next_u64(), a_seq[i]) << "stream 1 draw " << i;
    EXPECT_EQ(b.next_u64(), b_seq[i]) << "stream 2 draw " << i;
  }

  // Distinct streams are decorrelated, not shifted copies.
  EXPECT_NE(a_seq[0], b_seq[0]);
  EXPECT_NE(a_seq[1], b_seq[0]);
}

// ---------------------------------------------------------------------------
// FaultPlan draws
// ---------------------------------------------------------------------------

FaultConfig plan_cfg(double drop, double dup, double delay,
                     std::uint64_t seed = 42) {
  FaultConfig fc;
  fc.seed = seed;
  fc.drop_pct = drop;
  fc.dup_pct = dup;
  fc.delay_pct = delay;
  return fc;
}

TEST(FaultPlan, SaturatedRatesForceEachOutcome) {
  FaultPlan drop(plan_cfg(100, 0, 0), 4, 4);
  FaultPlan dup(plan_cfg(0, 100, 0), 4, 4);
  FaultPlan delay(plan_cfg(0, 0, 100), 4, 4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(drop.draw(1), FaultPlan::Perturb::kDrop);
    EXPECT_EQ(dup.draw(1), FaultPlan::Perturb::kDup);
    EXPECT_EQ(delay.draw(1), FaultPlan::Perturb::kDelay);
  }
}

TEST(FaultPlan, DrawRateMatchesConfiguredPercentage) {
  FaultPlan p(plan_cfg(10, 0, 0), 2, 2);
  int dropped = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (p.draw(0) == FaultPlan::Perturb::kDrop) dropped++;
  EXPECT_GT(dropped, n / 10 - n / 100);  // 9%..11% band
  EXPECT_LT(dropped, n / 10 + n / 100);
}

TEST(FaultPlan, RatesAreDisjointSlicesOfTheDraw) {
  // The drop decisions must be identical whether or not a dup rate is
  // stacked on top: each rate owns a disjoint slice of [0, 2^53).
  FaultPlan drop_only(plan_cfg(5, 0, 0), 2, 2);
  FaultPlan drop_and_dup(plan_cfg(5, 20, 0), 2, 2);
  for (int i = 0; i < 20000; ++i) {
    const bool a = drop_only.draw(0) == FaultPlan::Perturb::kDrop;
    const bool b = drop_and_dup.draw(0) == FaultPlan::Perturb::kDrop;
    EXPECT_EQ(a, b) << "draw " << i;
  }
}

TEST(FaultPlan, PerSourceStreamsAreIndependent) {
  // Draws for source 0 are unaffected by how many draws source 1 makes
  // in between: a node's fault decisions depend only on its own send
  // order, never on how the nodes' sends interleave.
  FaultPlan lone(plan_cfg(30, 10, 5), 2, 2);
  FaultPlan mixed(plan_cfg(30, 10, 5), 2, 2);
  for (int i = 0; i < 5000; ++i) {
    for (int j = 0; j <= i % 3; ++j) (void)mixed.draw(1);
    EXPECT_EQ(lone.draw(0), mixed.draw(0)) << "draw " << i;
  }
}

// ---------------------------------------------------------------------------
// Fabric::send_ex perturbation semantics
// ---------------------------------------------------------------------------

// A 4-node ni-constant fabric under fault config `fc`.
struct FaultyNi {
  Stats stats{4};
  Fabric net;
  explicit FaultyNi(const FaultConfig& fc) : net(config(fc), &stats) {}
  static SystemConfig config(const FaultConfig& fc) {
    SystemConfig cfg;
    cfg.nodes = 4;
    cfg.faults = fc;
    return cfg;
  }
};

TEST(FaultSemantics, DropChargesTheSendHalfOnly) {
  FaultyNi f(plan_cfg(100, 0, 0));
  const Message m = Message::control(MsgKind::kGetS, 0, 1, 0);
  const Delivery d = f.net.send_ex(m, 1000);
  EXPECT_FALSE(d.delivered);
  // The message was accounted (it left the source) but never reached
  // the destination NI.
  EXPECT_EQ(f.stats.traffic_total().total_msgs(), 1u);
  EXPECT_EQ(f.net.recv_ni(1).busy_until(), 0u);
  EXPECT_GT(f.net.send_ni(0).busy_until(), 1000u);
}

TEST(FaultSemantics, ReliableChannelIgnoresThePlan) {
  // send()/post() never draw: at 100% drop they still deliver.
  FaultyNi f(plan_cfg(100, 0, 0));
  const Message m = Message::control(MsgKind::kGetS, 0, 1, 0);
  const Cycle at = f.net.send(m, 1000);
  EXPECT_GT(at, 1000u);
  // ...and leave the injectable channel as it was.
  EXPECT_FALSE(f.net.send_ex(m, 2000).delivered);
}

TEST(FaultSemantics, DuplicateDeliversAndChargesTwice) {
  FaultyNi f(plan_cfg(0, 100, 0));
  const Message m = Message::control(MsgKind::kGetS, 0, 1, 0);
  const Delivery d = f.net.send_ex(m, 1000);
  EXPECT_TRUE(d.delivered);
  EXPECT_TRUE(d.duplicated);
  // The copy really crossed the wire.
  EXPECT_EQ(f.stats.traffic_total().total_msgs(), 2u);
}

TEST(FaultSemantics, DelayAddsConfiguredCycles) {
  FaultConfig fc = plan_cfg(0, 0, 100);
  fc.delay_cycles = 777;
  FaultyNi faulty(fc);
  FaultyNi clean(plan_cfg(0, 0, 0));
  const Message m = Message::control(MsgKind::kGetS, 0, 1, 0);
  const Delivery slow = faulty.net.send_ex(m, 1000);
  const Delivery fast = clean.net.send_ex(m, 1000);
  ASSERT_TRUE(slow.delivered);
  EXPECT_EQ(slow.at, fast.at + 777);
}

TEST(FaultSemantics, FaultsOffDrawsNothing) {
  // enabled() gates the plan: a zero-rate config builds none, and its
  // injectable sends are never perturbed.
  FaultyNi f(plan_cfg(0, 0, 0));
  EXPECT_EQ(f.net.fault_plan(), nullptr);
  const Message m = Message::control(MsgKind::kGetS, 0, 1, 0);
  const Delivery d = f.net.send_ex(m, 1000);
  EXPECT_TRUE(d.delivered);
  EXPECT_FALSE(d.duplicated);
  FaultConfig off;
  EXPECT_FALSE(off.enabled());
}

// ---------------------------------------------------------------------------
// Per-kind fault targeting
// ---------------------------------------------------------------------------

TEST(FaultKinds, MaskGatesOutcomesWithoutShiftingDraws) {
  // The draw is consumed for every injectable message and only the
  // *outcome* is discarded for untargeted kinds — so narrowing the mask
  // to data messages must leave each data message's fate exactly where
  // it was under the all-kinds mask.
  FaultConfig all = plan_cfg(50, 0, 0, /*seed=*/9);
  FaultConfig data_only = all;
  data_only.fault_kinds = 1u << std::uint8_t(MsgKind::kData);
  FaultyNi fa(all), fd(data_only);
  int data_msgs = 0, control_dropped = 0;
  for (int i = 0; i < 200; ++i) {
    // Alternate control and data traffic from the same source stream.
    const MsgKind k = (i % 2 == 0) ? MsgKind::kGetS : MsgKind::kData;
    const Message m = (k == MsgKind::kData) ? Message::data(0, 1, 0)
                                            : Message::control(k, 0, 1, 0);
    const Delivery da = fa.net.send_ex(m, Cycle(1000 + i * 100));
    const Delivery dd = fd.net.send_ex(m, Cycle(1000 + i * 100));
    if (k == MsgKind::kData) {
      data_msgs++;
      EXPECT_EQ(da.delivered, dd.delivered) << "data draw " << i;
    } else {
      if (!da.delivered) control_dropped++;
      EXPECT_TRUE(dd.delivered) << "masked control message perturbed";
    }
  }
  EXPECT_GT(data_msgs, 0);
  EXPECT_GT(control_dropped, 0);  // the all-kinds run really dropped some
}

// ---------------------------------------------------------------------------
// Mesh link outages and adaptive rerouting
// ---------------------------------------------------------------------------

SystemConfig mesh_cfg(std::uint32_t nodes) {
  SystemConfig cfg = SystemConfig::base(SystemKind::kCcNuma);
  cfg.nodes = nodes;
  cfg.fabric = FabricKind::kMesh2d;
  return cfg;
}

TEST(MeshReroute, DetoursAroundADeadLinkAndCountsIt) {
  SystemConfig cfg = mesh_cfg(16);  // 4x4 grid
  // Kill the eastward link out of router 0 for all time: the X-Y route
  // 0 -> 3 must leave through south instead and detour back north.
  cfg.faults.link_downs.push_back(
      {0, std::uint8_t(LinkDir::kEast), 0, kNeverCycle});
  Stats stats(16);
  Fabric net(cfg, &stats);
  ASSERT_NE(net.fault_plan(), nullptr);
  const Message m = Message::control(MsgKind::kGetS, 0, 3, 0);
  const Delivery d = net.send_ex(m, 1000);
  EXPECT_TRUE(d.delivered);
  EXPECT_GT(stats.faults.reroutes, 0u);

  // The reliable channel ignores link outages and takes the pristine
  // X-Y route: no further reroutes are counted.
  const std::uint64_t before = stats.faults.reroutes;
  (void)net.send(m, 2000);
  EXPECT_EQ(stats.faults.reroutes, before);
}

TEST(MeshReroute, NodePairOutageResolvesToTheDirectedLink) {
  // --fault-link-down 0:1@1000+8000 names the outage by node pair; the
  // fabric resolves it to the directed (router, dir) link at
  // construction. 0 -> 1 on a 4x4 grid is router 0's east link, so this
  // must behave exactly like the explicit kEast schedule above.
  SystemConfig cfg = mesh_cfg(16);
  cfg.faults.node_link_downs.push_back({0, 1, 1000, 8000});
  ASSERT_TRUE(cfg.faults.enabled());  // schedule alone enables the layer
  Stats stats(16);
  Fabric net(cfg, &stats);
  ASSERT_NE(net.fault_plan(), nullptr);
  const Message m = Message::control(MsgKind::kGetS, 0, 3, 0);
  (void)net.send_ex(m, 100);  // before the outage: straight X-Y
  EXPECT_EQ(stats.faults.reroutes, 0u);
  (void)net.send_ex(m, 2000);  // inside it: detour
  EXPECT_GT(stats.faults.reroutes, 0u);
  (void)net.send_ex(m, 20000);  // after down+len: link restored
}

TEST(MeshReroute, OutageWindowIsTemporal) {
  SystemConfig cfg = mesh_cfg(16);
  cfg.faults.link_downs.push_back(
      {0, std::uint8_t(LinkDir::kEast), 5000, 9000});
  Stats stats(16);
  Fabric net(cfg, &stats);
  const Message m = Message::control(MsgKind::kGetS, 0, 3, 0);
  (void)net.send_ex(m, 100);  // before the outage: straight X-Y
  EXPECT_EQ(stats.faults.reroutes, 0u);
  (void)net.send_ex(m, 6000);  // inside it: detour
  EXPECT_GT(stats.faults.reroutes, 0u);
}

TEST(MeshReroute, WalledInCornerLosesTheMessage) {
  SystemConfig cfg = mesh_cfg(16);
  // Corner router 0 has only east and south links; kill both.
  cfg.faults.link_downs.push_back(
      {0, std::uint8_t(LinkDir::kEast), 0, kNeverCycle});
  cfg.faults.link_downs.push_back(
      {0, std::uint8_t(LinkDir::kSouth), 0, kNeverCycle});
  Stats stats(16);
  Fabric net(cfg, &stats);
  const Message m = Message::control(MsgKind::kGetS, 0, 3, 0);
  const Delivery d = net.send_ex(m, 1000);
  EXPECT_FALSE(d.delivered);  // upper layer treats this as a loss
}

// ---------------------------------------------------------------------------
// Protocol recovery
// ---------------------------------------------------------------------------

struct FaultySystem {
  SystemConfig cfg;
  Stats stats;
  std::unique_ptr<DsmSystem> sys;

  FaultySystem(SystemKind kind, const FaultConfig& fc, std::uint32_t nodes = 4)
      : cfg(SystemConfig::base(kind)), stats(nodes) {
    cfg.nodes = nodes;
    cfg.cpus_per_node = 1;
    cfg.faults = fc;
    sys = make_system(cfg, &stats);
  }
  Cycle go(NodeId node, Addr addr, bool write, Cycle start) {
    return sys->access({node, node, addr, write, start});
  }
};

TEST(Recovery, RetriesRecoverLostRequests) {
  FaultConfig fc = plan_cfg(40, 0, 0, /*seed=*/7);
  FaultySystem s(SystemKind::kCcNuma, fc);
  Cycle t = 1000;
  for (int i = 0; i < 200; ++i) {
    const NodeId n = NodeId(i % 4);
    const Addr a = Addr(0x10000 + (i % 16) * kBlockBytes);
    t = s.go(n, a, (i % 3) == 0, t) + 10;
  }
  EXPECT_GT(s.stats.faults.drops_injected, 0u);
  EXPECT_GT(s.stats.faults.retries, 0u);
  s.sys->check_coherence();
}

TEST(Recovery, DuplicatesAreNackedNotReexecuted) {
  FaultConfig fc = plan_cfg(0, 100, 0);
  FaultySystem s(SystemKind::kCcNuma, fc);
  Cycle t = 1000;
  for (int i = 0; i < 50; ++i) {
    const NodeId n = NodeId(i % 4);
    const Addr a = Addr(0x10000 + (i % 8) * kBlockBytes);
    t = s.go(n, a, (i % 2) == 0, t) + 10;
  }
  EXPECT_GT(s.stats.faults.nacks, 0u);
  s.sys->check_coherence();
}

TEST(Recovery, TotalLossEscalatesToHardErrorButCompletes) {
  FaultConfig fc = plan_cfg(100, 0, 0);
  FaultySystem s(SystemKind::kCcNuma, fc);
  const Cycle end = s.go(1, 0x20000, false, 1000);
  s.go(2, 0x20000, true, end + 100);  // remote transactions both ways
  EXPECT_GT(s.stats.faults.hard_errors, 0u);
  s.sys->check_coherence();
}

TEST(Recovery, BulkPageOpAbortsCleanly) {
  FaultConfig fc = plan_cfg(100, 0, 0);
  FaultySystem s(SystemKind::kCcNumaRep, fc);
  const Addr a = 0x30000;
  s.go(0, a, false, 0);  // bind home at node 0
  const Addr page = page_of(a);

  const Cycle end = s.sys->replicate_page(page, 1, 20000);
  EXPECT_EQ(s.stats.faults.aborted_page_ops, 1u);
  const PageInfo* pi = s.sys->page_table().find(page);
  ASSERT_NE(pi, nullptr);
  EXPECT_FALSE(pi->replicated);  // mapping untouched by the abort
  EXPECT_EQ(s.stats.node[1].page_replications, 0u);
  EXPECT_GE(pi->op_pending_until, end);
  s.sys->check_coherence();

  const Cycle end2 = s.sys->migrate_page(page, 1, end + 100000);
  EXPECT_EQ(s.stats.faults.aborted_page_ops, 2u);
  EXPECT_EQ(s.sys->page_table().find(page)->home, 0u);  // still home 0
  EXPECT_EQ(s.stats.node[1].page_migrations, 0u);
  (void)end2;
  s.sys->check_coherence();
}

TEST(FaultKinds, EmptyMaskInjectsNothing) {
  FaultConfig fc = plan_cfg(100, 0, 0);
  fc.fault_kinds = 0;
  FaultySystem s(SystemKind::kCcNuma, fc);
  Cycle t = 1000;
  for (int i = 0; i < 50; ++i) {
    const NodeId n = NodeId(i % 4);
    t = s.go(n, Addr(0x10000 + (i % 8) * kBlockBytes), (i % 2) == 0, t) + 10;
  }
  EXPECT_EQ(s.stats.faults.drops_injected, 0u);
  EXPECT_EQ(s.stats.faults.retries, 0u);
  EXPECT_EQ(s.stats.faults.hard_errors, 0u);
  s.sys->check_coherence();
}

// ---------------------------------------------------------------------------
// Node crashes and survivable homes
// ---------------------------------------------------------------------------

// A crash-only fault config: no seeded perturbations, just the
// deterministic node-down schedule (which enables the layer on its own).
FaultConfig crash_cfg(std::initializer_list<FaultConfig::NodeDown> downs) {
  FaultConfig fc;
  for (const auto& nd : downs) fc.node_downs.push_back(nd);
  return fc;
}

TEST(CrashRecovery, SuccessorElectionIsDeterministic) {
  // Node 1 homes a page, then crashes for good. The first requester to
  // time out against it re-homes the page onto the next live node in
  // ring order — node 2.
  FaultySystem s(SystemKind::kCcNuma, crash_cfg({{1, 50000, kNeverCycle}}));
  const Addr a = 0x40000;
  Cycle t = s.go(1, a, true, 0);       // first touch: home = 1
  t = s.go(2, a + kBlockBytes, false, t + 10);  // sharer before the crash
  ASSERT_LT(t, 50000u);
  t = s.go(2, a, false, std::max<Cycle>(t + 10, 60000));  // home is dead
  EXPECT_EQ(s.stats.faults.rehomes, 1u);
  const PageInfo* pi = s.sys->page_table().find(page_of(a));
  ASSERT_NE(pi, nullptr);
  EXPECT_EQ(pi->home, 2u);
  // Later accesses find the live successor: no further re-homing.
  t = s.go(3, a, false, t + 10);
  EXPECT_EQ(s.stats.faults.rehomes, 1u);
  s.sys->check_coherence();
}

TEST(CrashRecovery, SuccessorElectionSkipsDeadNodes) {
  // Nodes 1 and 2 are both down when the timeout fires: the ring walk
  // skips the dead successor candidate and lands on node 3.
  FaultySystem s(SystemKind::kCcNuma, crash_cfg({{1, 50000, kNeverCycle},
                                                 {2, 50000, kNeverCycle}}));
  const Addr a = 0x40000;
  Cycle t = s.go(1, a, true, 0);
  ASSERT_LT(t, 50000u);
  t = s.go(3, a, false, std::max<Cycle>(t + 10, 60000));
  EXPECT_EQ(s.stats.faults.rehomes, 1u);
  EXPECT_EQ(s.sys->page_table().find(page_of(a))->home, 3u);
  s.sys->check_coherence();
}

TEST(CrashRecovery, DirectoryRebuiltFromSurvivorCensus) {
  // Home 1 holds live directory entries for blocks shared by the
  // survivors. Re-homing must rebuild those entries at the successor
  // from the census, and the post-rebuild directory must pass the
  // global invariant.
  FaultySystem s(SystemKind::kCcNuma, crash_cfg({{1, 50000, kNeverCycle}}));
  const Addr a = 0x50000;
  Cycle t = s.go(1, a, true, 0);  // home = 1
  for (NodeId r : {NodeId(0), NodeId(2), NodeId(3)}) {
    t = s.go(r, a, false, t + 10);
    t = s.go(r, a + kBlockBytes, false, t + 10);
  }
  ASSERT_LT(t, 50000u) << "setup ran into the crash window";
  // A cold block on the page: node 2's read cannot be served from its
  // own caches, so it must discover the dead home and re-home the page.
  t = s.go(2, a + 2 * kBlockBytes, false, std::max<Cycle>(t + 10, 60000));
  EXPECT_EQ(s.stats.faults.rehomes, 1u);
  EXPECT_GT(s.stats.faults.dir_rebuilds, 0u);
  // Survivors re-read through the rebuilt directory at the new home.
  t = s.go(3, a + kBlockBytes, false, t + 10);
  t = s.go(0, a, false, t + 10);
  EXPECT_EQ(s.stats.faults.data_losses, 0u);  // all copies were clean
  s.sys->check_coherence();
}

TEST(CrashRecovery, DirtyOwnerCrashIsCountedDataLoss) {
  // Node 1 holds the only modified copy of a block homed at node 0 when
  // it crashes. The recall finds a dead owner: home memory serves the
  // stale version and the loss is counted — never silently absorbed.
  FaultySystem s(SystemKind::kCcNuma, crash_cfg({{1, 50000, kNeverCycle}}));
  const Addr a = 0x60000;
  Cycle t = s.go(0, a, true, 0);       // home = 0
  t = s.go(1, a, true, t + 10);        // dirty exclusive at node 1
  ASSERT_LT(t, 50000u);
  // Recall hits a corpse: the dirty copy died with node 1.
  t = s.go(2, a, false, std::max<Cycle>(t + 10, 60000));
  EXPECT_EQ(s.stats.faults.data_losses, 1u);
  s.sys->check_coherence();
}

TEST(CrashRecovery, CleanSharerCrashCompletesWithZeroLoss) {
  // The headline survivability case: a single non-home node crashes on
  // a 64-node mesh while holding only clean copies. The workload
  // completes, the dead sharer is invalidated without wire traffic,
  // and no data is lost.
  FaultConfig fc = crash_cfg({{5, 100000, 400000}});
  SystemConfig cfg = SystemConfig::base(SystemKind::kCcNuma);
  cfg.nodes = 64;
  cfg.cpus_per_node = 1;
  cfg.fabric = FabricKind::kMesh2d;
  cfg.faults = fc;
  Stats stats(64);
  auto sys = make_system(cfg, &stats);
  auto go = [&](NodeId n, Addr a, bool w, Cycle t) {
    return sys->access({n, n, a, w, t});
  };
  const Addr a = 0x70000;
  Cycle t = go(0, a, true, 0);  // home = 0
  for (NodeId r : {NodeId(3), NodeId(5), NodeId(9)})
    t = go(r, a, false, t + 10);
  ASSERT_LT(t, 100000u) << "setup ran into the crash window";
  // Inside the window: the home upgrades, invalidating the sharer set —
  // node 5's copy dies with the node, clean.
  t = go(0, a, true, std::max<Cycle>(t + 10, 150000));
  // Survivors re-read; after the window node 5 itself comes back.
  t = go(3, a, false, t + 10);
  t = go(5, a, false, std::max<Cycle>(t + 10, 450000));
  EXPECT_EQ(stats.faults.data_losses, 0u);
  EXPECT_EQ(stats.faults.rehomes, 0u);  // the home never died
  sys->check_coherence();
}

TEST(CrashRecovery, CrashWindowEndsSuspicion) {
  // A windowed crash is forgiven: once the node is back up, the
  // failure detector stops short-circuiting and traffic flows again
  // without hard errors.
  // The window must outlast the retry storm, or a late retransmission
  // reaches the recovered node and the transaction simply completes.
  FaultySystem s(SystemKind::kCcNuma, crash_cfg({{1, 50000, 2000000}}));
  const Addr a = 0x80000;
  Cycle t = s.go(1, a, true, 0);  // home = 1
  t = s.go(2, a, false, 60000);   // dead home: re-homed away
  EXPECT_EQ(s.stats.faults.rehomes, 1u);
  const std::uint64_t errs = s.stats.faults.hard_errors;
  // After the window, node 1 reads its old page at its new home.
  t = s.go(1, a, false, std::max<Cycle>(t + 10, 2100000));
  EXPECT_EQ(s.stats.faults.hard_errors, errs);
  s.sys->check_coherence();
}

// Node 3 maps the page at 0x90000 (home 1) S-COMA and holds block `a`
// clean in its page-cache frame only: its L1 copy was displaced by a
// conflicting block on a page node 3 homes. Node 1 crashes for good at
// cycle 50000. Returns the cycle the setup finished.
Cycle scoma_frame_behind_dead_home(FaultySystem& s, Addr a) {
  const Addr page = page_of(a);
  Cycle t = s.go(1, a, false, 0);  // home = 1, E in node 1's L1
  t = s.go(3, a, false, t + 10);   // recall: shared by nodes 1 and 3
  t = s.sys->relocate_to_scoma(3, page, t + 10);
  t = s.go(3, a, false, t + 10);   // refill into the frame, kShared
  t = s.go(3, a + 16 * 1024, false, t + 10);  // same L1 set: displaces a
  EXPECT_LT(t, 50000u) << "setup ran into the crash window";
  const PageCache::Frame* f = s.sys->page_cache(3).find(page);
  EXPECT_TRUE(f != nullptr && f->has(block_index_in_page(a)));
  EXPECT_EQ(s.sys->l1(3).probe(block_of(a)), nullptr);
  return t;
}

TEST(CrashRecovery, ScomaUpgradeTowardDeadHomeRestarts) {
  // A write to the frame's shared block upgrades at the dead home. The
  // re-home onto node 2 finds the block in node 3's frame during the
  // census, releases the frame in the teardown, and the write restarts
  // against the new home as a plain CC-NUMA miss.
  FaultySystem s(SystemKind::kRNuma, crash_cfg({{1, 50000, kNeverCycle}}));
  const Addr a = 0x90000;
  Cycle t = scoma_frame_behind_dead_home(s, a);
  t = s.go(3, a, true, std::max<Cycle>(t + 10, 60000));
  EXPECT_EQ(s.stats.faults.rehomes, 1u);
  EXPECT_EQ(s.stats.faults.data_losses, 0u);  // the frame copy was clean
  const PageInfo* pi = s.sys->page_table().find(page_of(a));
  EXPECT_EQ(pi->home, 2u);
  EXPECT_EQ(pi->mode[3], PageMode::kCcNuma);  // refaulted by the restart
  EXPECT_EQ(s.sys->page_cache(3).frames_in_use(), 0u);
  EXPECT_EQ(s.stats.node[3].page_relocations, 1u);
  // First touch, the relocation trap, its own page, and the refault.
  EXPECT_EQ(s.stats.node[3].soft_traps, 4u);
  const DirEntry* e = s.sys->directory().find(block_of(a));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, DirState::kExclusive);
  EXPECT_EQ(e->owner, 3u);
  s.sys->check_coherence();
}

TEST(CrashRecovery, CollapseTowardDeadHomeRehomes) {
  // A write to a replicated page asks the dead home to collapse the
  // replicas. The re-home tears every replica down instead, and the
  // write lands at the successor, node 2 — itself a replica holder.
  FaultySystem s(SystemKind::kCcNumaRep, crash_cfg({{1, 200000, kNeverCycle}}));
  const Addr a = 0xA0000;
  const Addr page = page_of(a);
  Cycle t = s.go(1, a, false, 0);  // home = 1
  t = s.sys->replicate_page(page, 2, t + 10);
  t = s.sys->replicate_page(page, 3, t + 10);
  ASSERT_LT(t, 200000u) << "setup ran into the crash window";
  t = s.go(2, a, true, 250000);
  const PageInfo* pi = s.sys->page_table().find(page);
  EXPECT_EQ(s.stats.faults.rehomes, 1u);
  EXPECT_EQ(pi->home, 2u);
  EXPECT_FALSE(pi->replicated);
  EXPECT_EQ(pi->mode[3], PageMode::kUnmapped);
  EXPECT_EQ(s.stats.node[2].replica_collapses, 0u);  // the re-home did it
  EXPECT_EQ(s.stats.node[2].local_mem_accesses, 1u);
  s.sys->check_coherence();
}

TEST(CrashRecovery, CollapseDropsADeadReplica) {
  // Node 3 holds a replica and is down when the home writes: its copy
  // dies with it, clean, and the collapse remaps it without wire traffic.
  FaultySystem s(SystemKind::kCcNumaRep, crash_cfg({{3, 200000, kNeverCycle}}));
  const Addr a = 0xB0000;
  const Addr page = page_of(a);
  Cycle t = s.go(0, a, false, 0);  // home = 0
  t = s.sys->replicate_page(page, 2, t + 10);
  t = s.sys->replicate_page(page, 3, t + 10);
  t = s.go(3, a, false, t + 10);  // a replica read fills node 3's L1
  ASSERT_LT(t, 200000u) << "setup ran into the crash window";
  t = s.go(0, a, true, 250000);
  const PageInfo* pi = s.sys->page_table().find(page);
  EXPECT_FALSE(pi->replicated);
  EXPECT_EQ(pi->mode[2], PageMode::kCcNuma);
  EXPECT_EQ(pi->mode[3], PageMode::kCcNuma);
  EXPECT_EQ(s.sys->l1(3).probe(block_of(a)), nullptr);
  EXPECT_EQ(s.stats.node[0].replica_collapses, 1u);
  EXPECT_EQ(s.stats.node[3].tlb_shootdowns, 1u);  // its replica mapping only
  EXPECT_EQ(s.stats.faults.rehomes, 0u);
  EXPECT_EQ(s.stats.faults.data_losses, 0u);
  s.sys->check_coherence();
}

TEST(CrashRecovery, ScomaFetchTowardDeadHomeRestarts) {
  // A read of a block the frame lacks fetches from the dead home. The
  // fetch aborts into the re-home, and the read restarts against node 2.
  FaultySystem s(SystemKind::kRNuma, crash_cfg({{1, 50000, kNeverCycle}}));
  const Addr a = 0x90000;
  Cycle t = scoma_frame_behind_dead_home(s, a);
  t = s.go(3, a + kBlockBytes, false, std::max<Cycle>(t + 10, 60000));
  EXPECT_EQ(s.stats.faults.rehomes, 1u);
  EXPECT_EQ(s.stats.faults.data_losses, 0u);
  const PageInfo* pi = s.sys->page_table().find(page_of(a));
  EXPECT_EQ(pi->home, 2u);
  EXPECT_EQ(pi->mode[3], PageMode::kCcNuma);
  EXPECT_EQ(s.sys->page_cache(3).frames_in_use(), 0u);
  // Node 3's remote misses: the two setup reads, the aborted fetch and
  // the restarted one.
  EXPECT_EQ(s.stats.node[3].remote_misses.total(), 4u);
  ASSERT_NE(s.sys->block_cache(3).probe(block_of(a + kBlockBytes)), nullptr);
  s.sys->check_coherence();
}

// ---------------------------------------------------------------------------
// Chaos soak
// ---------------------------------------------------------------------------

// run_one() with the two extra assertions the harness cannot make:
// workload verification runs inside (spec.verify), and the global
// coherence invariant is checked on the final state.
Stats run_chaos(const RunSpec& spec) {
  Stats stats(spec.system.nodes);
  auto system = make_system(spec.system, &stats);
  Engine engine(spec.system, system.get(), &stats);

  SharedSpace space;
  auto workload = make_workload(spec.workload, spec.scale);
  const std::uint32_t nthreads = spec.system.total_cpus();
  workload->setup(engine, space, nthreads);
  std::vector<WorkerCtx> ctxs(nthreads);
  for (std::uint32_t t = 0; t < nthreads; ++t) {
    ctxs[t].cpu = &engine.cpu(t);
    ctxs[t].tid = t;
    ctxs[t].nthreads = nthreads;
    ctxs[t].rng.reseed(spec.system.seed + t);
    engine.spawn(t, workload->body(ctxs[t]));
  }
  system->parallel_begin(0);
  engine.run();
  system->parallel_end(engine.finish_time());

  workload->verify();          // data correctness under faults
  system->check_coherence();   // protocol invariant on the final state
  return stats;
}

RunSpec chaos_spec(double drop_pct) {
  RunSpec spec = paper_spec(SystemKind::kCcNumaMigRep, "raytrace",
                            Scale::kTiny);
  spec.system.faults.seed = 0xC0FFEEULL;
  spec.system.faults.drop_pct = drop_pct;
  spec.system.faults.dup_pct = drop_pct / 2;
  spec.system.faults.delay_pct = drop_pct;
  return spec;
}

// Seeded perturbations plus random link outages on the mesh.
RunSpec link_outage_spec() {
  RunSpec spec = chaos_spec(2.0);
  spec.system.fabric = FabricKind::kMesh2d;
  spec.system.faults.rand_link_downs = 6;
  spec.system.faults.rand_link_down_len = 100000;
  spec.system.faults.rand_link_down_horizon = 2'000'000;
  return spec;
}

// 64 nodes crosses the historic 32-bit sharer-mask width, and the
// coarse scheme routes every invalidation through the conservative
// region multicast; the 8x8 mesh with link outages lets reroutes fire.
RunSpec coarse_mesh_spec() {
  RunSpec spec = chaos_spec(10.0);
  spec.system.nodes = 64;
  spec.system.cpus_per_node = 1;
  spec.system.dir_scheme = DirScheme::kCoarse;
  spec.system.fabric = FabricKind::kMesh2d;
  spec.system.faults.rand_link_downs = 4;
  spec.system.faults.rand_link_down_len = 100000;
  spec.system.faults.rand_link_down_horizon = 2'000'000;
  return spec;
}

// A 64-node mesh soak with two crash windows layered on the seeded
// perturbations.
RunSpec crash_spec() {
  RunSpec spec = chaos_spec(2.0);
  spec.system.nodes = 64;
  spec.system.cpus_per_node = 1;
  spec.system.fabric = FabricKind::kMesh2d;
  spec.system.faults.node_downs.push_back({0, 100000, 300000});
  spec.system.faults.node_downs.push_back({1, 150000, 350000});
  return spec;
}

TEST(ChaosSoak, SurvivesEscalatingRatesReproducibly) {
  std::uint64_t last_drops = 0;
  for (const double rate : {0.5, 2.0, 10.0, 30.0}) {
    const Stats a = run_chaos(chaos_spec(rate));
    const Stats b = run_chaos(chaos_spec(rate));
    // The fault schedule keys off per-source streams, so a rerun
    // replays the exact same faults — and must land on the exact same
    // recovered state and costs.
    EXPECT_EQ(digest(a), digest(b)) << "rate " << rate;
    EXPECT_GT(a.faults.drops_injected, 0u) << "rate " << rate;
    EXPECT_GE(a.faults.drops_injected, last_drops);
    last_drops = a.faults.drops_injected;
  }
}

TEST(ChaosSoak, FixedSeedIsBitReproducible) {
  const Stats a = run_chaos(chaos_spec(10.0));
  const Stats b = run_chaos(chaos_spec(10.0));
  EXPECT_EQ(digest(a), digest(b));
  EXPECT_GT(a.faults.retries, 0u);
}

TEST(ChaosSoak, LinkOutagesRerouteUnderLoad) {
  const Stats a = run_chaos(link_outage_spec());
  const Stats b = run_chaos(link_outage_spec());
  EXPECT_EQ(digest(a), digest(b));  // outage schedule is part of the seed
}

TEST(ChaosSoak, CoarseVectorSoakBeyondThe32NodeBoundary) {
  // The recovery ledger (retries, NACKs, reroutes) must stay
  // reproducible out here too.
  const Stats a = run_chaos(coarse_mesh_spec());
  const Stats b = run_chaos(coarse_mesh_spec());
  EXPECT_EQ(digest(a), digest(b));
  EXPECT_GT(a.faults.drops_injected, 0u);
  EXPECT_GT(a.faults.retries, 0u);
}

TEST(ChaosSoak, CrashSchedulesAreReproducible) {
  // Crash detection, timeout escalation, successor election, and the
  // survivor census all key off deterministic state, so the full
  // fault/recovery ledger — including the four crash counters — must
  // be identical run after run, with workload verification and the
  // coherence invariant green inside run_chaos() each time.
  const Stats a = run_chaos(crash_spec());
  EXPECT_GT(a.faults.crash_drops + a.faults.rehomes, 0u)
      << "crash windows missed the run entirely";
  const Stats b = run_chaos(crash_spec());
  EXPECT_EQ(digest(a), digest(b));
}

TEST(ChaosSoak, RunMatrixIsJobCountInvariant) {
  // Each run owns its simulator, so the sweep's worker count may change
  // only wall-clock. Under TSan this is also the race check on the
  // thread pool and on four concurrent simulators, one of them running
  // the adaptive rule.
  RunSpec adaptive = paper_spec(SystemKind::kRNuma, "radix", Scale::kTiny);
  adaptive.system.policy = PolicyKind::kAdaptive;
  const std::vector<RunSpec> specs = {
      crash_spec(), coarse_mesh_spec(), link_outage_spec(),
      paper_spec(SystemKind::kRNuma, "radix", Scale::kTiny), adaptive};
  const std::vector<RunResult> serial = run_matrix(specs, 1);
  const std::vector<RunResult> pooled = run_matrix(specs, 4);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(pooled.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult& a = serial[i];
    const RunResult& b = pooled[i];
    EXPECT_EQ(a.cycles, b.cycles) << "spec " << i;
    const TrafficBreakdown ta = a.stats.traffic_total();
    const TrafficBreakdown tb = b.stats.traffic_total();
    for (std::size_t c = 0; c < std::size_t(TrafficClass::kCount); ++c)
      EXPECT_EQ(ta.bytes[c], tb.bytes[c])
          << "spec " << i << ", " << to_string(TrafficClass(c));
    EXPECT_EQ(a.stats.page_migrations_total(),
              b.stats.page_migrations_total())
        << "spec " << i;
    EXPECT_EQ(a.stats.page_replications_total(),
              b.stats.page_replications_total())
        << "spec " << i;
    EXPECT_EQ(a.stats.page_relocations_total(),
              b.stats.page_relocations_total())
        << "spec " << i;
    EXPECT_EQ(digest(a.stats), digest(b.stats)) << "spec " << i;
  }
}

}  // namespace
}  // namespace dsm
