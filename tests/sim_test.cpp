// Unit tests: coroutine engine, quantum scheduling, sync objects.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace dsm {
namespace {

// Memory model charging a fixed latency per access.
class FixedLatencyMemory final : public MemorySystem {
 public:
  explicit FixedLatencyMemory(Cycle latency) : latency_(latency) {}
  Cycle access(const MemAccess& a) override {
    accesses.push_back(a);
    return a.start + latency_;
  }
  void parallel_begin(Cycle) override {}
  void parallel_end(Cycle) override {}
  std::vector<MemAccess> accesses;

 private:
  Cycle latency_;
};

SystemConfig small_config(std::uint32_t nodes = 2,
                          std::uint32_t cpus_per_node = 2) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.cpus_per_node = cpus_per_node;
  return cfg;
}

TEST(Engine, ComputeAdvancesClock) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  SystemConfig cfg = small_config();
  Engine eng(cfg, &mem, &stats);
  auto body = [](Cpu& cpu) -> SimCall<> { co_await cpu.compute(1234); };
  eng.spawn(0, body(eng.cpu(0)));
  eng.run();
  EXPECT_EQ(eng.cpu(0).clock, 1234u);
  EXPECT_EQ(eng.finish_time(), 1234u);
}

TEST(Engine, ComputeInstrChargesDualIssue) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  auto body = [](Cpu& cpu) -> SimCall<> {
    co_await cpu.compute_instr(10);  // 5 cycles
    co_await cpu.compute_instr(3);   // 2 cycles
  };
  eng.spawn(0, body(eng.cpu(0)));
  eng.run();
  EXPECT_EQ(eng.cpu(0).clock, 7u);
}

TEST(Engine, MemoryAccessUsesMemorySystem) {
  Stats stats(2);
  FixedLatencyMemory mem(50);
  Engine eng(small_config(), &mem, &stats);
  auto body = [](Cpu& cpu) -> SimCall<> {
    co_await cpu.read(0x1000);
    co_await cpu.write(0x2000);
  };
  eng.spawn(0, body(eng.cpu(0)));
  eng.run();
  EXPECT_EQ(eng.cpu(0).clock, 100u);
  ASSERT_EQ(mem.accesses.size(), 2u);
  EXPECT_FALSE(mem.accesses[0].write);
  EXPECT_TRUE(mem.accesses[1].write);
  EXPECT_EQ(mem.accesses[1].start, 50u);
  EXPECT_EQ(stats.shared_reads, 1u);
  EXPECT_EQ(stats.shared_writes, 1u);
}

// A memory system exposing an L1 through hit_path(): hits at or after
// `open_until` must complete in the engine without reaching access().
class HitPathMemory final : public MemorySystem {
 public:
  Cycle access(const MemAccess& a) override {
    accesses.push_back(a);
    return a.start + 50;
  }
  HitPath hit_path(CpuId) override { return {&l1, &open_until, 3}; }
  void parallel_begin(Cycle) override {}
  void parallel_end(Cycle) override {}
  L1Cache l1{16 * 1024};
  Cycle open_until = 100;
  std::vector<MemAccess> accesses;
};

TEST(Engine, HitPathCompletesHitsOnlyFromOpenUntilOn) {
  Stats stats(2);
  HitPathMemory mem;
  mem.l1.install(block_of(0x1000), L1State::kS);
  mem.l1.install(block_of(0x2000), L1State::kE);
  Engine eng(small_config(1, 1), &mem, &stats);
  auto body = [](Cpu& cpu) -> SimCall<> {
    co_await cpu.read(0x1000);   // 0: before open_until -> access()
    co_await cpu.compute(49);    // 99
    co_await cpu.read(0x1000);   // 99: still before -> access()
    co_await cpu.read(0x1000);   // 149: hit, +3
    co_await cpu.write(0x2000);  // 152: E hit, +3; the line becomes M
    co_await cpu.write(0x1000);  // 155: S line needs an upgrade -> access()
    co_await cpu.read(0x3000);   // 205: miss -> access()
  };
  eng.spawn(0, body(eng.cpu(0)));
  eng.run();
  ASSERT_EQ(mem.accesses.size(), 4u);
  EXPECT_EQ(mem.accesses[0].start, 0u);
  EXPECT_EQ(mem.accesses[1].start, 99u);
  EXPECT_EQ(mem.accesses[2].start, 155u);
  EXPECT_TRUE(mem.accesses[2].write);
  EXPECT_EQ(mem.accesses[3].addr, 0x3000u);
  EXPECT_EQ(eng.cpu(0).clock, 255u);
  EXPECT_EQ(mem.l1.probe(block_of(0x2000))->state, L1State::kM);
  EXPECT_EQ(stats.shared_reads, 4u);
  EXPECT_EQ(stats.shared_writes, 2u);
}

// The default hit path exposes no L1: every access reaches access().
TEST(Engine, DefaultHitPathSendsEveryAccessToTheMemorySystem) {
  Stats stats(2);
  FixedLatencyMemory mem(1);
  EXPECT_EQ(mem.hit_path(0).l1, nullptr);
  Engine eng(small_config(), &mem, &stats);
  auto body = [](Cpu& cpu) -> SimCall<> {
    for (int i = 0; i < 10; ++i) co_await cpu.read(0x1000);
  };
  eng.spawn(0, body(eng.cpu(0)));
  eng.run();
  EXPECT_EQ(mem.accesses.size(), 10u);
}

TEST(Engine, CpuToNodeMapping) {
  Stats stats(4);
  FixedLatencyMemory mem(1);
  Engine eng(small_config(4, 4), &mem, &stats);
  EXPECT_EQ(eng.cpu(0).node, 0u);
  EXPECT_EQ(eng.cpu(3).node, 0u);
  EXPECT_EQ(eng.cpu(4).node, 1u);
  EXPECT_EQ(eng.cpu(15).node, 3u);
}

TEST(Engine, AllCpusRunToCompletion) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  auto body = [](Cpu& cpu, Cycle n) -> SimCall<> { co_await cpu.compute(n); };
  for (CpuId c = 0; c < 4; ++c) eng.spawn(c, body(eng.cpu(c), 100 * (c + 1)));
  eng.run();
  for (CpuId c = 0; c < 4; ++c) EXPECT_EQ(eng.cpu(c).clock, 100u * (c + 1));
  EXPECT_EQ(eng.finish_time(), 400u);
}

TEST(Engine, NestedSimCallsCompose) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  struct Helper {
    static SimCall<int> inner(Cpu& cpu) {
      co_await cpu.compute(5);
      co_await cpu.read(0x40);
      co_return 99;
    }
    static SimCall<> outer(Cpu& cpu, int* out) {
      const int v = co_await inner(cpu);
      co_await cpu.compute(5);
      *out = v;
    }
  };
  int result = 0;
  eng.spawn(0, Helper::outer(eng.cpu(0), &result));
  eng.run();
  EXPECT_EQ(result, 99);
  EXPECT_EQ(eng.cpu(0).clock, 20u);
}

TEST(Engine, ExceptionInBodyPropagates) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  auto body = [](Cpu& cpu) -> SimCall<> {
    co_await cpu.compute(1);
    throw std::runtime_error("boom");
  };
  eng.spawn(0, body(eng.cpu(0)));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, QuantumBoundsSkew) {
  // Two CPUs issuing only compute steps stay within one quantum of each
  // other at every memory access.
  Stats stats(2);
  SystemConfig cfg = small_config();
  cfg.quantum = 80;
  struct SkewCheck final : MemorySystem {
    Cycle last[2] = {0, 0};
    Cycle max_skew = 0;
    Cycle access(const MemAccess& a) override {
      last[a.cpu] = a.start;
      const Cycle other = last[1 - a.cpu];
      if (other > 0) {
        const Cycle skew = a.start > other ? a.start - other : other - a.start;
        max_skew = std::max(max_skew, skew);
      }
      return a.start + 10;
    }
    void parallel_begin(Cycle) override {}
    void parallel_end(Cycle) override {}
  } mem;
  Engine eng(cfg, &mem, &stats);
  auto body = [](Cpu& cpu) -> SimCall<> {
    for (int i = 0; i < 200; ++i) {
      co_await cpu.compute(7);
      co_await cpu.read(0x1000 + i * 64);
    }
  };
  eng.spawn(0, body(eng.cpu(0)));
  eng.spawn(1, body(eng.cpu(1)));
  eng.run();
  // Identical bodies: skew bounded by quantum + one step.
  EXPECT_LE(mem.max_skew, cfg.quantum + 17);
}

TEST(Barrier, ReleasesAtMaxArrivalPlusCost) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  SyncCosts costs;
  Barrier bar(eng, 2, costs);
  auto body = [&bar](Cpu& cpu, Cycle work) -> SimCall<> {
    co_await cpu.compute(work);
    co_await bar.arrive(cpu);
  };
  eng.spawn(0, body(eng.cpu(0), 100));
  eng.spawn(1, body(eng.cpu(1), 900));
  eng.run();
  EXPECT_EQ(eng.cpu(0).clock, 900u + costs.barrier_release);
  EXPECT_EQ(eng.cpu(1).clock, 900u + costs.barrier_release);
  EXPECT_EQ(stats.barriers, 1u);
}

TEST(Barrier, Reusable) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  Barrier bar(eng, 4);
  auto body = [&bar](Cpu& cpu) -> SimCall<> {
    for (int i = 0; i < 5; ++i) {
      co_await cpu.compute(10);
      co_await bar.arrive(cpu);
    }
  };
  for (CpuId c = 0; c < 4; ++c) eng.spawn(c, body(eng.cpu(c)));
  eng.run();
  EXPECT_EQ(stats.barriers, 5u);
  for (CpuId c = 1; c < 4; ++c)
    EXPECT_EQ(eng.cpu(0).clock, eng.cpu(c).clock);
}

TEST(Lock, MutualExclusionAndFifo) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  Lock lk(eng);
  std::vector<CpuId> order;
  auto body = [&](Cpu& cpu) -> SimCall<> {
    co_await lk.acquire(cpu);
    order.push_back(cpu.id);
    co_await cpu.compute(100);
    lk.release(cpu);
  };
  for (CpuId c = 0; c < 4; ++c) eng.spawn(c, body(eng.cpu(c)));
  eng.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_FALSE(lk.held());
  EXPECT_EQ(stats.lock_acquires, 4u);
  // Critical sections are serialized: completion >= 4 * 100.
  Cycle max_clock = 0;
  for (CpuId c = 0; c < 4; ++c) max_clock = std::max(max_clock, eng.cpu(c).clock);
  EXPECT_GE(max_clock, 400u);
}

TEST(Lock, UncontendedIsCheap) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  SyncCosts costs;
  Lock lk(eng, costs);
  auto body = [&lk](Cpu& cpu) -> SimCall<> {
    co_await lk.acquire(cpu);
    lk.release(cpu);
  };
  eng.spawn(0, body(eng.cpu(0)));
  eng.run();
  EXPECT_EQ(eng.cpu(0).clock, costs.lock_acquire);
}

TEST(Flag, WakesAllWaiters) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  SyncCosts costs;
  Flag flag(eng, costs);
  auto waiter = [&flag](Cpu& cpu) -> SimCall<> { co_await flag.wait(cpu); };
  auto setter = [&flag](Cpu& cpu) -> SimCall<> {
    co_await cpu.compute(500);
    flag.set(cpu);
  };
  eng.spawn(0, waiter(eng.cpu(0)));
  eng.spawn(1, waiter(eng.cpu(1)));
  eng.spawn(2, setter(eng.cpu(2)));
  eng.run();
  EXPECT_EQ(eng.cpu(0).clock, 500u + costs.flag_wake);
  EXPECT_EQ(eng.cpu(1).clock, 500u + costs.flag_wake);
  EXPECT_TRUE(flag.is_set());
}

TEST(Flag, WaitAfterSetDoesNotBlock) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  Flag flag(eng);
  auto setter = [&flag](Cpu& cpu) -> SimCall<> {
    co_await cpu.compute(10);
    flag.set(cpu);
  };
  auto late = [&flag](Cpu& cpu) -> SimCall<> {
    co_await cpu.compute(5000);
    co_await flag.wait(cpu);  // already set: continue at own clock
  };
  eng.spawn(0, setter(eng.cpu(0)));
  eng.spawn(1, late(eng.cpu(1)));
  eng.run();
  EXPECT_EQ(eng.cpu(1).clock, 5000u);
}

TEST(EngineDeath, DeadlockDetected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto run_deadlock = [] {
    Stats stats(2);
    FixedLatencyMemory mem(10);
    Engine eng(small_config(), &mem, &stats);
    Barrier bar(eng, 3);  // only 2 arrivals ever happen
    auto body = [&bar](Cpu& cpu) -> SimCall<> { co_await bar.arrive(cpu); };
    eng.spawn(0, body(eng.cpu(0)));
    eng.spawn(1, body(eng.cpu(1)));
    eng.run();
  };
  EXPECT_DEATH(run_deadlock(), "deadlock");
}

// The schedule stress: 9 CPUs on 3 nodes whose bodies mix compute,
// reads and writes, lock hand-offs, barriers and a flag, against a
// memory that draws each latency (1..22,000 cycles) from one seeded
// stream in the order the accesses arrive. Any change to which CPU runs
// when moves the draws and so the whole run: the FNV-1a digest of the
// access log (cpu, addr, write, start) and the finish time pin the
// engine's schedule. The default SyncCosts (80..200 cycles) put every
// wake past the end of a window of up to 80 cycles; at quantum 1000,
// and at every quantum with all-zero costs, wakes land inside their
// window both ahead of the pass (a lock handed to a higher id, a
// barrier released by a lower one) and behind it.
class ScheduleLogMemory final : public MemorySystem {
 public:
  Cycle access(const MemAccess& a) override {
    for (const std::uint64_t v : {std::uint64_t(a.cpu), a.addr,
                                  std::uint64_t(a.write), a.start}) {
      for (int i = 0; i < 8; ++i) {
        digest ^= (v >> (8 * i)) & 0xff;
        digest *= 0x100000001b3ULL;
      }
    }
    accesses++;
    // Mostly short latencies, one in eight anywhere up to 22,000.
    const Cycle latency = rng_.next_below(8) == 0
                              ? 1 + rng_.next_below(22000)
                              : 1 + rng_.next_below(120);
    return a.start + latency;
  }
  void parallel_begin(Cycle) override {}
  void parallel_end(Cycle) override {}
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t accesses = 0;

 private:
  Rng rng_{2026};
};

struct ScheduleRig {
  ScheduleRig(Engine& eng, SyncCosts costs)
      : locks{Lock(eng, costs), Lock(eng, costs)},
        barrier(eng, eng.total_cpus(), costs),
        flag(eng, costs) {}
  Lock locks[2];
  Barrier barrier;
  Flag flag;
};

constexpr unsigned kScheduleRounds = 24;
constexpr unsigned kFlagRound = 9;

SimCall<> schedule_body(Cpu& cpu, ScheduleRig& rig) {
  const std::uint64_t id = cpu.id;
  const Addr own = 0x100000 + id * 0x10000;
  for (unsigned r = 0; r < kScheduleRounds; ++r) {
    co_await cpu.read(own + r * 64);
    co_await cpu.compute(1 + (id * 37 + r * 11) % 53);
    co_await cpu.write(own + (r + 1) * 64);
    if ((r + id) % 3 != 2) {
      Lock& lk = rig.locks[(r + id) % 2];
      co_await lk.acquire(cpu);
      co_await cpu.read(0x4000 + (r % 4) * 64);
      co_await cpu.compute(1 + id % 5);
      co_await cpu.write(0x4000 + (r % 4) * 64);
      lk.release(cpu);
    }
    if (r == kFlagRound) {
      if (id == 8)
        rig.flag.set(cpu);
      else if (id % 2 == 0)
        co_await rig.flag.wait(cpu);
    }
    if (r % 4 == 3) co_await rig.barrier.arrive(cpu);
  }
}

struct ScheduleCell {
  Cycle quantum;
  bool zero_costs;
  std::uint64_t digest;
  Cycle finish;
};

TEST(EngineSchedule, StressPinsEveryWindow) {
  const ScheduleCell cells[] = {
      {1, false, 0xeb3ea80768335f94ULL, 295104},
      {40, false, 0xc596a6cbca104707ULL, 377706},
      {80, false, 0xe00d7cbfdf6e023cULL, 357249},
      {1000, false, 0x842ae4f9bb04a8d5ULL, 335275},
      {1, true, 0x1c406b5b829182bcULL, 298277},
      {40, true, 0x7bb014a7a3ed026cULL, 287404},
      {80, true, 0xf1f642f74a98114fULL, 335511},
      {1000, true, 0x5f3669b2af7e7500ULL, 320672},
  };
  for (const ScheduleCell& cell : cells) {
    SCOPED_TRACE(::testing::Message()
                 << "quantum " << cell.quantum
                 << (cell.zero_costs ? ", zero" : ", default") << " costs");
    SystemConfig cfg = small_config(3, 3);
    cfg.quantum = cell.quantum;
    Stats stats(3);
    ScheduleLogMemory mem;
    Engine eng(cfg, &mem, &stats);
    ScheduleRig rig(eng,
                    cell.zero_costs ? SyncCosts{0, 0, 0, 0} : SyncCosts{});
    for (CpuId c = 0; c < 9; ++c)
      eng.spawn(c, schedule_body(eng.cpu(c), rig));
    eng.run();
    EXPECT_EQ(mem.accesses, 9u * kScheduleRounds * 2 + 2 * stats.lock_acquires);
    EXPECT_EQ(stats.barriers, kScheduleRounds / 4);
    EXPECT_EQ(mem.digest, cell.digest);
    EXPECT_EQ(eng.finish_time(), cell.finish);
  }
}

TEST(SimCall, ValueTaskReturnsValue) {
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  struct H {
    static SimCall<double> calc(Cpu& cpu) {
      co_await cpu.compute(1);
      co_return 2.5;
    }
    static SimCall<> root(Cpu& cpu, double* out) {
      *out = co_await calc(cpu);
    }
  };
  double v = 0;
  eng.spawn(0, H::root(eng.cpu(0), &v));
  eng.run();
  EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(SimCall, MoveSemantics) {
  auto make = [](Cpu&) -> SimCall<int> { co_return 1; };
  Stats stats(2);
  FixedLatencyMemory mem(10);
  Engine eng(small_config(), &mem, &stats);
  SimCall<int> a = make(eng.cpu(0));
  EXPECT_TRUE(a.valid());
  SimCall<int> b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  a = std::move(b);
  EXPECT_TRUE(a.valid());
}

}  // namespace
}  // namespace dsm
