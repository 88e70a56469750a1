// Sharded-engine unit + stress tests.
//
// The bit-identity contract is pinned two ways: the golden sweep in
// policy_parity_test.cpp (full DSM stack, shards 1/2/4), and here a
// randomized adversarial stress — a recording memory system whose
// per-access latencies are pseudo-random (keyed by the access itself,
// so every engine charges the same cost) — asserting the *entire
// access log*, order included, matches the serial engine exactly, in
// both inline and threaded drive modes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/spsc_queue.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/sync.hpp"

namespace dsm {
namespace {

// ---------------------------------------------------------------------------
// SPSC mailbox ring
// ---------------------------------------------------------------------------

TEST(SpscQueue, PushDrainFifoAcrossWraparound) {
  SpscQueue<int> q(5);  // rounds up to 8 slots
  std::vector<int> got;
  const auto take = [&](int v) { got.push_back(v); };
  // Several fill/drain rounds so head/tail wrap the ring repeatedly.
  // (Pushing past capacity is a contract violation that asserts, so the
  // fill stops exactly at the 8-slot capacity.)
  int next = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 8; ++i) q.push(next++);
    ASSERT_EQ(q.size(), 8u);
    got.clear();
    q.drain(take);
    ASSERT_EQ(got.size(), 8u);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(got[i], next - 8 + i);
  }
}

TEST(SpscQueue, PeekEachDoesNotConsume) {
  SpscQueue<int> q(4);
  q.push(7);
  q.push(9);
  std::vector<int> peeked;
  q.peek_each([&](int v) { peeked.push_back(v); });
  EXPECT_EQ(peeked, (std::vector<int>{7, 9}));
  std::vector<int> drained;
  q.drain([&](int v) { drained.push_back(v); });
  EXPECT_EQ(drained, (std::vector<int>{7, 9}));  // still there after peek
  q.peek_each([&](int) { FAIL() << "queue should be empty"; });
}

// ---------------------------------------------------------------------------
// Shard partitioning
// ---------------------------------------------------------------------------

// A memory system that records every access in issue order and charges
// an adversarial pseudo-random latency derived from the access itself
// (never from global state), so the cost of an access is identical no
// matter which engine or shard issues it.
class RecordingMemory final : public MemorySystem {
 public:
  struct Rec {
    CpuId cpu;
    Addr addr;
    bool write;
    Cycle start;
    Cycle done;
    bool operator==(const Rec&) const = default;
  };

  Cycle access(const MemAccess& a) override {
    std::uint64_t z = (std::uint64_t(a.cpu) << 48) ^ (a.addr * 0x9e3779b9u) ^
                      a.start;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    const Cycle done = a.start + 1 + (z % 797);  // spans >1 quantum
    log.push_back({a.cpu, a.addr, a.write, a.start, done});
    return done;
  }
  void parallel_begin(Cycle) override {}
  void parallel_end(Cycle) override {}

  std::vector<Rec> log;
};

SystemConfig stress_cfg(std::uint64_t seed) {
  SystemConfig cfg = SystemConfig::base(SystemKind::kCcNuma);
  cfg.nodes = 4;
  cfg.cpus_per_node = 2;
  cfg.seed = seed;
  return cfg;
}

TEST(ShardedEngine, PartitionIsContiguousAndCoversEveryShard) {
  const SystemConfig cfg = stress_cfg(1);
  RecordingMemory mem;
  Stats stats(cfg.nodes);
  ShardedEngine e(cfg, &mem, &stats, /*shards=*/3, /*lookahead=*/80);
  EXPECT_EQ(e.shards(), 3u);
  std::uint32_t prev = 0;
  std::vector<bool> seen(e.shards(), false);
  for (NodeId n = 0; n < cfg.nodes; ++n) {
    const std::uint32_t s = e.shard_of_node(n);
    ASSERT_LT(s, e.shards());
    EXPECT_GE(s, prev);  // contiguous, non-decreasing
    prev = s;
    seen[s] = true;
    for (CpuId c = n * cfg.cpus_per_node; c < (n + 1) * cfg.cpus_per_node;
         ++c)
      EXPECT_EQ(e.shard_of_cpu(c), s);  // CPUs follow their node
  }
  for (bool b : seen) EXPECT_TRUE(b);  // no empty shard
}

TEST(ShardedEngine, ShardCountClampsToNodeCount) {
  const SystemConfig cfg = stress_cfg(1);
  RecordingMemory mem;
  Stats stats(cfg.nodes);
  ShardedEngine e(cfg, &mem, &stats, /*shards=*/64, /*lookahead=*/80);
  EXPECT_EQ(e.shards(), cfg.nodes);
}

// ---------------------------------------------------------------------------
// Per-home RNG streams
// ---------------------------------------------------------------------------

TEST(ShardedEngine, HomeRngStreamsAreShardCountInvariant) {
  const SystemConfig cfg = stress_cfg(42);
  RecordingMemory mem;
  Stats s2(cfg.nodes), s4(cfg.nodes);
  ShardedEngine e2(cfg, &mem, &s2, 2, 80);
  ShardedEngine e4(cfg, &mem, &s4, 4, 80);
  for (NodeId n = 0; n < cfg.nodes; ++n) {
    Rng want = Rng::for_stream(cfg.seed, n);
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t v = want.next_u64();
      EXPECT_EQ(e2.home_rng(n).next_u64(), v);
      EXPECT_EQ(e4.home_rng(n).next_u64(), v);
    }
  }
}

TEST(RngForStream, StreamsAreDeterministicAndDecorrelated) {
  Rng a = Rng::for_stream(7, 0);
  Rng b = Rng::for_stream(7, 0);
  EXPECT_EQ(a.next_u64(), b.next_u64());  // same (seed, stream) replays
  Rng c = Rng::for_stream(7, 1);
  Rng d = Rng::for_stream(8, 0);
  const std::uint64_t va = a.next_u64();
  EXPECT_NE(va, c.next_u64());  // neighboring stream differs
  EXPECT_NE(va, d.next_u64());  // neighboring seed differs
}

// ---------------------------------------------------------------------------
// Randomized cross-shard wake-ordering stress
// ---------------------------------------------------------------------------

// Worker body: random compute/memory mix plus lock handoffs, a one-shot
// flag and periodic barriers — every sync primitive that calls
// Engine::wake, with pseudo-random phase offsets per CPU so wakes cross
// shard boundaries in adversarial patterns.
SimCall<> stress_body(Cpu& cpu, Lock& lk, Barrier& bar, Flag& flag,
                      std::uint64_t seed) {
  Rng rng = Rng::for_stream(seed, 0x57550000 + cpu.id);
  for (int i = 0; i < 40; ++i) {
    co_await cpu.compute(1 + rng.next_below(300));
    co_await cpu.read(Addr(rng.next_below(64)) << 12);
    if (rng.next_below(4) == 0) {
      co_await lk.acquire(cpu);
      co_await cpu.write(0xabc000 + (Addr(cpu.id) << 6));
      lk.release(cpu);
    }
    if (i == 3 && cpu.id == 0) flag.set(cpu);
    if (i == 5) co_await flag.wait(cpu);
    if (i % 8 == 7) co_await bar.arrive(cpu);
  }
  co_await bar.arrive(cpu);
}

struct StressRun {
  std::vector<RecordingMemory::Rec> log;
  Cycle finish = 0;
  std::uint64_t cross_wakes = 0;
  std::uint64_t elided = 0;
  std::uint64_t dyn_activations = 0;
};

StressRun run_stress(std::uint64_t seed, std::uint32_t shards,
                     SystemConfig::ShardThreads mode, bool overlap = false) {
  SystemConfig cfg = stress_cfg(seed);
  cfg.shard_threads = mode;
  cfg.shard_overlap = overlap;
  RecordingMemory mem;
  Stats stats(cfg.nodes);
  std::unique_ptr<Engine> eng;
  ShardedEngine* sharded = nullptr;
  if (shards > 0) {
    auto se = std::make_unique<ShardedEngine>(cfg, &mem, &stats, shards,
                                              /*lookahead=*/80);
    sharded = se.get();
    eng = std::move(se);
  } else {
    eng = std::make_unique<Engine>(cfg, &mem, &stats);
  }
  Lock lk(*eng);
  Barrier bar(*eng, cfg.total_cpus());
  Flag flag(*eng);
  for (CpuId t = 0; t < cfg.total_cpus(); ++t)
    eng->spawn(t, stress_body(eng->cpu(t), lk, bar, flag, seed));
  eng->run();
  StressRun r{std::move(mem.log), eng->finish_time()};
  if (sharded) {
    r.cross_wakes = sharded->cross_shard_wakes();
    r.elided = sharded->elided_turns();
    r.dyn_activations = sharded->dynamic_activations();
  }
  return r;
}

class ShardedStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedStress, InlineDeliveryOrderMatchesSerial) {
  const std::uint64_t seed = GetParam();
  const StressRun serial = run_stress(seed, 0, SystemConfig::ShardThreads::kAuto);
  ASSERT_FALSE(serial.log.empty());
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    const StressRun sh =
        run_stress(seed, shards, SystemConfig::ShardThreads::kInline);
    EXPECT_EQ(sh.finish, serial.finish) << "shards=" << shards;
    ASSERT_EQ(sh.log.size(), serial.log.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < serial.log.size(); ++i)
      ASSERT_EQ(sh.log[i], serial.log[i])
          << "first divergence at access " << i << ", shards=" << shards;
    if (shards > 1) {
      EXPECT_GT(sh.cross_wakes, 0u) << "stress too tame";
    }
  }
}

TEST_P(ShardedStress, ThreadedDeliveryOrderMatchesSerial) {
  const std::uint64_t seed = GetParam();
  const StressRun serial = run_stress(seed, 0, SystemConfig::ShardThreads::kAuto);
  for (std::uint32_t shards : {2u, 4u}) {
    const StressRun sh =
        run_stress(seed, shards, SystemConfig::ShardThreads::kThreaded);
    EXPECT_EQ(sh.finish, serial.finish) << "shards=" << shards;
    ASSERT_EQ(sh.log.size(), serial.log.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < serial.log.size(); ++i)
      ASSERT_EQ(sh.log[i], serial.log[i])
          << "first divergence at access " << i << ", shards=" << shards;
  }
}

// Overlap mode relaxes the baton ring into an active-set schedule:
// shards whose next event provably falls outside the window are elided
// and wakes posted into the live window re-activate their target on
// the spot. Under the adversarial-latency memory the entire access
// log — order included — must still match the serial engine exactly.
TEST_P(ShardedStress, OverlapInlineDeliveryOrderMatchesSerial) {
  const std::uint64_t seed = GetParam();
  const StressRun serial =
      run_stress(seed, 0, SystemConfig::ShardThreads::kAuto);
  ASSERT_FALSE(serial.log.empty());
  std::uint64_t elided = 0;
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    const StressRun sh = run_stress(
        seed, shards, SystemConfig::ShardThreads::kInline, /*overlap=*/true);
    EXPECT_EQ(sh.finish, serial.finish) << "shards=" << shards;
    ASSERT_EQ(sh.log.size(), serial.log.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < serial.log.size(); ++i)
      ASSERT_EQ(sh.log[i], serial.log[i])
          << "first divergence at access " << i << ", shards=" << shards;
    elided += sh.elided;
  }
  // The schedule must actually be doing something: across the shard
  // counts some turns are provably idle and get elided.
  EXPECT_GT(elided, 0u) << "overlap mode never skipped a turn";
}

TEST_P(ShardedStress, OverlapThreadedDeliveryOrderMatchesSerial) {
  const std::uint64_t seed = GetParam();
  const StressRun serial =
      run_stress(seed, 0, SystemConfig::ShardThreads::kAuto);
  for (std::uint32_t shards : {2u, 4u}) {
    const StressRun sh =
        run_stress(seed, shards, SystemConfig::ShardThreads::kThreaded,
                   /*overlap=*/true);
    EXPECT_EQ(sh.finish, serial.finish) << "shards=" << shards;
    ASSERT_EQ(sh.log.size(), serial.log.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < serial.log.size(); ++i)
      ASSERT_EQ(sh.log[i], serial.log[i])
          << "first divergence at access " << i << ", shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedStress,
                         ::testing::Values(1u, 2u, 3u, 0xdeadbeefu));

}  // namespace
}  // namespace dsm
