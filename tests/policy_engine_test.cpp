// Unit tests for the policy-event layer: engine bookkeeping over
// scripted event sequences, counter-cache displacement, epochs, the
// rules each system runs, and the decisions each rule takes on
// synthetic event streams.
#include <gtest/gtest.h>

#include <string>

#include "common/config.hpp"
#include "dsm/cluster.hpp"
#include "harness/runner.hpp"
#include "protocols/policy_engine.hpp"
#include "protocols/system_factory.hpp"

namespace dsm {
namespace {

class PolicyEngineTest : public ::testing::Test {
 protected:
  void build(SystemKind kind, std::uint32_t threshold = 4,
             PolicyKind policy = PolicyKind::kDefault) {
    cfg_ = SystemConfig::base(kind);
    cfg_.nodes = 4;
    cfg_.cpus_per_node = 1;
    cfg_.policy = policy;
    cfg_.timing.migrep_threshold = threshold;
    cfg_.timing.rnuma_threshold = threshold;
    cfg_.timing.migrep_reset_interval = 1u << 30;
    cfg_.timing.adaptive_k = 1;
    rebuild();
  }
  // MigRep rules whose thresholds never fire: the engine observes every
  // event and decides nothing (a run with no rule observes nothing).
  void build_observing() { build(SystemKind::kCcNumaMigRep, kNever); }
  void rebuild() {
    stats_ = Stats(cfg_.nodes);
    sys_ = make_system(cfg_, &stats_);
  }
  // Bind `addr`'s page by a real access (first touch at `home`).
  PageInfo& bind(Addr addr, NodeId home) {
    sys_->access({home, home, addr, false, 0});
    return sys_->page_table().info(page_of(addr));
  }
  // Scripted counted-miss event at the home, as the home agent emits it.
  Cycle miss(Addr page, NodeId requester, bool write,
             std::uint64_t bytes = 96, Cycle now = 100000) {
    PolicyEvent ev;
    ev.kind = PolicyEventKind::kMiss;
    ev.page = page;
    ev.node = requester;
    ev.is_write = write;
    ev.bytes = bytes;
    ev.now = now;
    return sys_->policy_engine().dispatch(ev, sys_->page_table().info(page));
  }
  // Scripted requester-side remote-fetch event.
  Cycle fetch(Addr page, NodeId n, MissClass cls = MissClass::kCapacity,
              Cycle now = 100000) {
    PolicyEvent ev;
    ev.kind = PolicyEventKind::kRemoteFetch;
    ev.page = page;
    ev.node = n;
    ev.miss_class = cls;
    ev.now = now;
    return sys_->policy_engine().dispatch(ev, sys_->page_table().info(page));
  }
  // The run's Stats::policy record names, joined as the --json "policy"
  // key joins them.
  std::string record_names() const {
    std::string names;
    for (const PolicyCounters& p : stats_.policy)
      names += (names.empty() ? "" : "+") + p.name;
    return names;
  }

  static constexpr std::uint32_t kNever = 1u << 30;
  static constexpr std::uint64_t kEpoch = PolicyEngine::kEpochEvents;

  SystemConfig cfg_;
  Stats stats_{0};
  std::unique_ptr<DsmSystem> sys_;
};

// ---------------------------------------------------------------------------
// Engine bookkeeping
// ---------------------------------------------------------------------------

TEST_F(PolicyEngineTest, PageObsCountersStartZeroAndReset) {
  PageObs obs;
  for (NodeId n = 0; n < kMaxNodes; ++n) {
    EXPECT_EQ(obs.read_misses(n), 0u);
    EXPECT_EQ(obs.write_misses(n), 0u);
    EXPECT_EQ(obs.refetches(n), 0u);
    EXPECT_EQ(obs.remote_bytes(n), 0u);
  }
  for (int i = 0; i < 10; ++i) obs.add_read_miss(2);
  for (int i = 0; i < 5; ++i) obs.add_write_miss(3);
  EXPECT_EQ(obs.miss_ctr(2), 10u);
  EXPECT_EQ(obs.miss_ctr(3), 5u);
  obs.reset_migrep_counters();
  EXPECT_EQ(obs.miss_ctr(2), 0u);
  EXPECT_EQ(obs.miss_ctr(3), 0u);
}

// The slot table is exact for up to kObsSlots distinct nodes; a 17th
// node recycles the least-active slot (losing only that slot's
// history), and ties break on the lowest slot index deterministically.
TEST_F(PolicyEngineTest, PageObsSlotTableEvictsLeastActiveNode) {
  PageObs obs;
  for (NodeId n = 0; n < PageObs::kObsSlots; ++n)
    for (NodeId i = 0; i <= n; ++i) obs.add_read_miss(n);
  // All 16 slots occupied, node 0 least active (1 miss).
  EXPECT_EQ(obs.read_misses(0), 1u);
  EXPECT_EQ(obs.read_misses(15), 16u);
  obs.add_read_miss(100);  // 17th distinct node: recycles node 0's slot
  EXPECT_EQ(obs.read_misses(100), 1u);
  EXPECT_EQ(obs.read_misses(0), 0u);    // history lost with the slot
  EXPECT_EQ(obs.read_misses(15), 16u);  // everyone else untouched
}

TEST_F(PolicyEngineTest, MissEventsFeedCountersAndBytes) {
  build_observing();
  const Addr a = 0x100000;
  bind(a, 0);
  miss(page_of(a), 1, /*write=*/false, 96);
  miss(page_of(a), 1, /*write=*/true, 32);
  miss(page_of(a), 2, /*write=*/false, 96);
  const PageObs* obs = sys_->policy_engine().find_obs(page_of(a));
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->read_misses(1), 1u);
  EXPECT_EQ(obs->write_misses(1), 1u);
  EXPECT_EQ(obs->miss_ctr(1), 2u);
  EXPECT_EQ(obs->remote_bytes(1), 128u);
  EXPECT_EQ(obs->remote_bytes(2), 96u);
  // The home's own (local, zero-byte) misses feed counters, not bytes.
  EXPECT_GE(obs->miss_ctr(0), 1u);  // the bind access
  EXPECT_EQ(obs->remote_bytes(0), 0u);
}

TEST_F(PolicyEngineTest, PeriodicResetClearsMigRepCounters) {
  build_observing();
  cfg_.timing.migrep_reset_interval = 4;
  rebuild();
  const Addr a = 0x200000;
  bind(a, 0);  // 1 counted miss
  miss(page_of(a), 1, false);
  miss(page_of(a), 1, false);
  const PageObs* obs = sys_->policy_engine().find_obs(page_of(a));
  EXPECT_EQ(obs->read_misses(1), 2u);
  miss(page_of(a), 1, false);  // 4th counted miss: reset fires
  EXPECT_EQ(obs->read_misses(1), 0u);
  EXPECT_EQ(obs->lifetime_misses, 4u);  // lifetime count survives resets
}

// Regression for the Section 6.4 displacement path: the page displaced
// from the finite counter cache must have its observation counters
// cleared at the moment of displacement.
TEST_F(PolicyEngineTest, CounterCacheDisplacementClearsCounters) {
  build(SystemKind::kCcNumaRep, /*threshold=*/100);
  cfg_.migrep_counter_cache_pages = 1;
  rebuild();
  const Addr a = 0x300000;
  const Addr b = 0x400000;
  bind(a, 0);
  bind(b, 0);  // b's bind displaced a's counters already; re-install a:
  miss(page_of(a), 1, false);
  miss(page_of(a), 1, false);
  const PageObs* oa = sys_->policy_engine().find_obs(page_of(a));
  EXPECT_EQ(oa->read_misses(1), 2u);
  // Touching b displaces a (capacity 1): a's counters clear instantly.
  miss(page_of(b), 1, false);
  EXPECT_EQ(oa->read_misses(1), 0u);
  EXPECT_EQ(oa->miss_ctr(0), 0u);
  const PageObs* ob = sys_->policy_engine().find_obs(page_of(b));
  EXPECT_EQ(ob->read_misses(1), 1u);
  EXPECT_GE(sys_->policy_engine().counter_cache(0).evictions(), 1u);
}

// The epoch advances once per kEpochEvents page events, and each epoch
// counts as one more event in every rule's record.
TEST_F(PolicyEngineTest, EpochAdvancesEveryKEpochEvents) {
  build_observing();
  const Addr a = 0x500000;
  bind(a, 0);  // event 1
  for (std::uint64_t i = 1; i < 2 * kEpoch - 1; ++i) miss(page_of(a), 1, false);
  EXPECT_EQ(sys_->policy_engine().events_dispatched(), 2 * kEpoch - 1);
  EXPECT_EQ(sys_->policy_engine().epoch(), 1u);
  miss(page_of(a), 1, false);
  EXPECT_EQ(sys_->policy_engine().events_dispatched(), 2 * kEpoch);
  EXPECT_EQ(sys_->policy_engine().epoch(), 2u);
  EXPECT_EQ(stats_.policy_counters("migrep")->events, 2 * kEpoch + 2);
}

// A run with no rule counts its events and advances the epoch, but
// keeps no observation state and no record.
TEST_F(PolicyEngineTest, NoRuleCountsEventsButObservesNothing) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x510000;
  bind(a, 0);
  for (std::uint64_t i = 1; i < kEpoch; ++i) miss(page_of(a), 1, false);
  EXPECT_EQ(sys_->policy_engine().events_dispatched(), kEpoch);
  EXPECT_EQ(sys_->policy_engine().epoch(), 1u);
  EXPECT_EQ(sys_->policy_engine().find_obs(page_of(a)), nullptr);
  EXPECT_TRUE(stats_.policy.empty());
}

// Each system runs the paper's rules, one Stats::policy record per rule
// with MigRep before R-NUMA; --policy adaptive replaces them on every
// system.
TEST_F(PolicyEngineTest, RecordsFollowThePapersPairing) {
  const std::pair<SystemKind, const char*> pairing[] = {
      {SystemKind::kCcNuma, ""},
      {SystemKind::kPerfectCcNuma, ""},
      {SystemKind::kCcNumaRep, "migrep"},
      {SystemKind::kCcNumaMig, "migrep"},
      {SystemKind::kCcNumaMigRep, "migrep"},
      {SystemKind::kRNuma, "rnuma"},
      {SystemKind::kRNumaInf, "rnuma"},
      {SystemKind::kRNumaMigRep, "migrep+rnuma"},
  };
  for (const auto& [kind, names] : pairing) {
    build(kind);
    EXPECT_EQ(record_names(), names) << to_string(kind);
    build(kind, 4, PolicyKind::kAdaptive);
    EXPECT_EQ(record_names(), "adaptive") << to_string(kind);
  }
}

// ---------------------------------------------------------------------------
// Per-page remote-byte ledger decay: kLedgerDecayShift (one) halvings
// per elapsed epoch, applied lazily at the page's next event so idle
// pages cost nothing per epoch.
// ---------------------------------------------------------------------------

TEST_F(PolicyEngineTest, LedgerHalvesOncePerElapsedEpoch) {
  static_assert(PolicyEngine::kLedgerDecayShift == 1);
  build_observing();
  const Addr a = 0x1100000;
  const Addr b = 0x1200000;
  bind(a, 0);                       // event 1
  miss(page_of(a), 1, false, 640);  // event 2
  const PageObs* obs = sys_->policy_engine().find_obs(page_of(a));
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->remote_bytes(1), 640u);
  bind(b, 0);  // event 3
  for (std::uint64_t e = 4; e <= kEpoch; ++e) miss(page_of(b), 1, false, 96);
  ASSERT_EQ(sys_->policy_engine().epoch(), 1u);
  // Decay is lazy: a's ledger is untouched until a's next event...
  EXPECT_EQ(obs->remote_bytes(1), 640u);
  // ...which first halves it once (one elapsed epoch), then adds the
  // event's own bytes.
  miss(page_of(a), 1, false, 96);
  EXPECT_EQ(obs->remote_bytes(1), 640u / 2 + 96u);
  // Two further elapsed epochs -> two further halvings before the add.
  for (std::uint64_t i = 0; i < 2 * kEpoch; ++i)
    miss(page_of(b), 1, false, 96);
  ASSERT_EQ(sys_->policy_engine().epoch(), 3u);
  miss(page_of(a), 1, false, 96);
  EXPECT_EQ(obs->remote_bytes(1), (640u / 2 + 96u) / 4 + 96u);
}

// 64 idle epochs ask for a 64-bit shift; it clamps to 63, so the old
// bytes are gone (an unclamped shift by 64 is undefined, and x86 would
// leave them whole).
TEST_F(PolicyEngineTest, LedgerDecayLongIdleClampsToZero) {
  build_observing();
  const Addr a = 0x1400000;
  const Addr b = 0x1500000;
  bind(a, 0);
  miss(page_of(a), 1, false, 640);
  bind(b, 0);
  while (sys_->policy_engine().epoch() < 64) miss(page_of(b), 1, false, 96);
  miss(page_of(a), 1, false, 96);
  EXPECT_EQ(sys_->policy_engine().find_obs(page_of(a))->remote_bytes(1), 96u);
}

// ---------------------------------------------------------------------------
// Scripted decisions: the paper's rules over synthetic event streams
// ---------------------------------------------------------------------------

TEST_F(PolicyEngineTest, MigRepReplicatesOnScriptedReadStream) {
  build(SystemKind::kCcNumaRep, /*threshold=*/4);
  const Addr a = 0x600000;
  PageInfo& pi = bind(a, 0);
  for (int i = 0; i < 5 && stats_.node[1].page_replications == 0; ++i)
    miss(page_of(a), 1, false);
  EXPECT_EQ(stats_.node[1].page_replications, 1u);
  EXPECT_EQ(pi.mode[1], PageMode::kReplica);
  const PolicyCounters* pc = stats_.policy_counters("migrep");
  ASSERT_NE(pc, nullptr);
  EXPECT_EQ(pc->replications, 1u);
  EXPECT_GT(pc->events, 0u);
}

TEST_F(PolicyEngineTest, MigRepMigratesWhenRequesterDominates) {
  build(SystemKind::kCcNumaMig, /*threshold=*/4);
  const Addr a = 0x700000;
  PageInfo& pi = bind(a, 0);  // home's ctr = 1
  for (int i = 0; i < 6 && stats_.node[2].page_migrations == 0; ++i)
    miss(page_of(a), 2, true);
  EXPECT_EQ(stats_.node[2].page_migrations, 1u);
  EXPECT_EQ(pi.home, 2u);
  EXPECT_EQ(stats_.policy_counters("migrep")->migrations, 1u);
  // Migration reset the page's observation counters via the completion
  // event.
  EXPECT_EQ(sys_->policy_engine().find_obs(page_of(a))->miss_ctr(2), 0u);
}

TEST_F(PolicyEngineTest, RNumaRelocatesAfterScriptedRefetches) {
  build(SystemKind::kRNuma, /*threshold=*/4);
  const Addr a = 0x800000;
  PageInfo& pi = bind(a, 0);
  sys_->access({1, 1, a, false, 1000});  // map CC-NUMA at node 1
  ASSERT_EQ(pi.mode[1], PageMode::kCcNuma);
  Cycle end = 0;
  for (int i = 0; i < 6 && pi.mode[1] != PageMode::kScoma; ++i)
    end = fetch(page_of(a), 1, MissClass::kCapacity, 100000 + i);
  EXPECT_EQ(pi.mode[1], PageMode::kScoma);
  EXPECT_GT(end, 100000u);  // the relocation delayed the fetch
  EXPECT_EQ(stats_.policy_counters("rnuma")->relocations, 1u);
  // Cold misses never count as refetches: counter untouched afterwards.
  const PageObs* obs = sys_->policy_engine().find_obs(page_of(a));
  const auto refetches = obs->refetches(1);
  fetch(page_of(a), 1, MissClass::kCold);
  EXPECT_EQ(obs->refetches(1), refetches);
}

TEST_F(PolicyEngineTest, RelocationDelayGateSuppressesRNuma) {
  build(SystemKind::kRNuma, /*threshold=*/2);
  cfg_.timing.rnuma_relocation_delay_misses = 1000000;
  rebuild();
  const Addr a = 0x900000;
  PageInfo& pi = bind(a, 0);
  sys_->access({1, 1, a, false, 1000});
  for (int i = 0; i < 8; ++i) fetch(page_of(a), 1);
  EXPECT_NE(pi.mode[1], PageMode::kScoma);
  EXPECT_EQ(stats_.policy_counters("rnuma")->relocations, 0u);
  EXPECT_GT(stats_.policy_counters("rnuma")->suppressed, 0u);
}

// ---------------------------------------------------------------------------
// The traffic-competitive adaptive rule
// ---------------------------------------------------------------------------

// Events needed to push one node's byte ledger past k x page-move cost.
int events_for_k(std::uint32_t k, std::uint64_t bytes_per_event,
                 std::uint32_t shift = 0) {
  const std::uint64_t need = (k * PolicyEngine::page_move_bytes()) << shift;
  return int(need / bytes_per_event) + 1;
}

TEST_F(PolicyEngineTest, AdaptiveReplicatesReadOnlyPage) {
  build(SystemKind::kCcNuma, 4, PolicyKind::kAdaptive);
  const Addr a = 0xa00000;
  PageInfo& pi = bind(a, 0);
  const int n = events_for_k(1, 96);
  for (int i = 0; i < n && stats_.node[1].page_replications == 0; ++i)
    miss(page_of(a), 1, false, 96);
  EXPECT_EQ(stats_.node[1].page_replications, 1u);
  EXPECT_EQ(pi.mode[1], PageMode::kReplica);
  EXPECT_EQ(stats_.policy_counters("adaptive")->replications, 1u);
}

TEST_F(PolicyEngineTest, AdaptiveMigratesDominantWriter) {
  build(SystemKind::kCcNuma, 4, PolicyKind::kAdaptive);
  const Addr a = 0xb00000;
  PageInfo& pi = bind(a, 0);
  const int n = events_for_k(1, 96);
  for (int i = 0; i < n && stats_.node[2].page_migrations == 0; ++i)
    miss(page_of(a), 2, true, 96);
  EXPECT_EQ(stats_.node[2].page_migrations, 1u);
  EXPECT_EQ(pi.home, 2u);
  EXPECT_EQ(stats_.policy_counters("adaptive")->migrations, 1u);
}

TEST_F(PolicyEngineTest, AdaptiveHysteresisDoublesNextThreshold) {
  build(SystemKind::kCcNuma, 4, PolicyKind::kAdaptive);
  const Addr a = 0xc00000;
  bind(a, 0);
  // First op: node 1 replicates after ~k x move-cost bytes.
  const int n1 = events_for_k(1, 96);
  for (int i = 0; i < n1 && stats_.node[1].page_replications == 0; ++i)
    miss(page_of(a), 1, false, 96);
  ASSERT_EQ(stats_.node[1].page_replications, 1u);
  // The op reset the page's byte ledger and doubled its threshold: the
  // same byte volume from node 3 must NOT fire a second op...
  for (int i = 0; i < n1; ++i) miss(page_of(a), 3, false, 96);
  EXPECT_EQ(stats_.node[3].page_replications, 0u);
  // ...but twice the volume must.
  for (int i = 0; i < n1 && stats_.node[3].page_replications == 0; ++i)
    miss(page_of(a), 3, false, 96);
  EXPECT_EQ(stats_.node[3].page_replications, 1u);
}

TEST_F(PolicyEngineTest, AdaptiveRelocatesContendedPageOnScomaSubstrate) {
  build(SystemKind::kRNuma, 4, PolicyKind::kAdaptive);
  const Addr a = 0xd00000;
  PageInfo& pi = bind(a, 0);
  for (NodeId n = 1; n <= 3; ++n)  // map CC-NUMA at the writer nodes
    sys_->access({n, n, a, false, 1000 + n * 1000});
  // Three writers share the page evenly: nobody dominates, the page is
  // not read-only, so neither migration nor replication applies.
  const int n = 3 * events_for_k(1, 96);
  for (int i = 0; i < n; ++i) miss(page_of(a), 1 + (i % 3), true, 96);
  // Node 1's next fetch trips the competitive threshold -> relocate.
  fetch(page_of(a), 1, MissClass::kCapacity);
  EXPECT_EQ(pi.mode[1], PageMode::kScoma);
  EXPECT_EQ(stats_.policy_counters("adaptive")->relocations, 1u);
  EXPECT_EQ(stats_.node[1].page_relocations, 1u);
}

TEST_F(PolicyEngineTest, AdaptiveWithoutPageCacheNeverRelocates) {
  build(SystemKind::kCcNuma, 4, PolicyKind::kAdaptive);
  const Addr a = 0xe00000;
  bind(a, 0);
  sys_->access({1, 1, a, false, 1000});
  const int n = 3 * events_for_k(1, 96);
  for (int i = 0; i < n; ++i) miss(page_of(a), 1 + (i % 3), true, 96);
  for (int i = 0; i < 4; ++i) fetch(page_of(a), 1, MissClass::kCapacity);
  EXPECT_EQ(stats_.node[1].page_relocations, 0u);
  EXPECT_GT(stats_.policy_counters("adaptive")->suppressed, 0u);
}

// End-to-end smoke: the adaptive rule drives a real workload cleanly
// (nested event dispatch from inside transactions, op windows, verify).
TEST_F(PolicyEngineTest, AdaptiveRunsWorkloadCleanly) {
  RunSpec spec = paper_spec(SystemKind::kRNuma, "migratory", Scale::kTiny);
  spec.system.policy = PolicyKind::kAdaptive;
  const RunResult r = run_one(spec);  // workload verify() asserts inside
  EXPECT_GT(r.cycles, 0u);
  const PolicyCounters* pc = r.stats.policy_counters("adaptive");
  ASSERT_NE(pc, nullptr);
  EXPECT_GT(pc->events, 0u);
}

}  // namespace
}  // namespace dsm
