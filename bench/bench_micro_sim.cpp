// Simulator micro-benchmarks (google-benchmark): throughput of the hot
// building blocks — L1 probes, flat-table lookups (directory, page
// table, counter cache, policy-event dispatch), resource reservations,
// coroutine stepping through the engine, full end-to-end access
// processing on each system kind, and complete default-scale workload
// runs. Useful for keeping the simulator fast enough that the
// paper-scale runs stay tractable.
//
// Every benchmark reports items_per_second (= simulated events per
// second), so
//
//   bench_micro_sim --benchmark_out=BENCH_sim_throughput.json
//                   --benchmark_out_format=json
//
// emits the machine-readable throughput trajectory CI archives (the
// perf analogue of the BENCH_*.json traffic artifacts).
#include <benchmark/benchmark.h>

#include "common/addr_map.hpp"
#include "common/rng.hpp"
#include "dsm/cluster.hpp"
#include "harness/runner.hpp"
#include "mem/l1_cache.hpp"
#include "mem/resource.hpp"
#include "protocols/policy_engine.hpp"
#include "protocols/system_factory.hpp"
#include "sim/engine.hpp"

namespace dsm {
namespace {

void BM_L1Probe(benchmark::State& state) {
  L1Cache c(16 * 1024);
  for (Addr b = 0; b < 256; ++b) c.install(b, L1State::kS);
  Addr b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.probe(b));
    b = (b + 1) & 255;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L1Probe);

void BM_L1InstallEvict(benchmark::State& state) {
  L1Cache c(16 * 1024);
  Addr b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.install(b, L1State::kS));
    b += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L1InstallEvict);

void BM_ResourceReserve(benchmark::State& state) {
  Resource r;
  Cycle t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.reserve(t, 10));
    t += 5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResourceReserve);

// --- flat-table hot paths --------------------------------------------------

// Directory probe over a realistic population (64K blocks = 1K pages),
// even mix of resident and absent blocks — the access paths probe for
// uncached blocks constantly.
void BM_DirectoryProbe(benchmark::State& state) {
  Directory dir(NodeSetLayout::make(8, DirScheme::kFullMap));
  constexpr Addr kBlocks = 1u << 16;
  for (Addr b = 0; b < kBlocks; b += 2) dir.entry(b).state = DirState::kShared;
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.find(rng.next_below(kBlocks)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryProbe);

// Directory find-or-insert on the resident half (the transaction-path
// pattern: entry() for a block that almost always exists).
void BM_DirectoryEntry(benchmark::State& state) {
  Directory dir(NodeSetLayout::make(8, DirScheme::kFullMap));
  constexpr Addr kBlocks = 1u << 16;
  for (Addr b = 0; b < kBlocks; ++b) dir.entry(b).state = DirState::kShared;
  Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&dir.entry(rng.next_below(kBlocks)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryEntry);

// Page-table lookup with the access pattern's page locality: runs of
// consecutive lookups on one page before moving on.
void BM_PageTableLookup(benchmark::State& state) {
  PageTable pt(8, NodeSetLayout::make(8, DirScheme::kFullMap));
  constexpr Addr kPages = 1u << 12;
  for (Addr p = 0; p < kPages; ++p) pt.info(p).home = NodeId(p & 7);
  Rng rng(13);
  Addr page = 0;
  unsigned run = 0;
  for (auto _ : state) {
    if (run == 0) {
      page = rng.next_below(kPages);
      run = 8;
    }
    run--;
    benchmark::DoNotOptimize(&pt.info(page));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableLookup);

// Counter-cache touch, hit-dominated (working set fits).
void BM_CounterCacheTouch(benchmark::State& state) {
  CounterCache cc(1024);
  Rng rng(14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cc.touch(rng.next_below(1024)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterCacheTouch);

// Counter-cache touch under constant displacement (working set 4x the
// capacity — every miss recycles the LRU tail).
void BM_CounterCacheDisplace(benchmark::State& state) {
  CounterCache cc(1024);
  Rng rng(15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cc.touch(rng.next_below(4096)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterCacheDisplace);

// Policy-event dispatch through the engine's observation path (counted
// misses with a finite counter cache, remote fetches, evictions) on
// CC-NUMA+MigRep with thresholds that never fire — the fixed per-event
// engine overhead. (A run with no rule only counts its events.)
void BM_PolicyEventDispatch(benchmark::State& state) {
  SystemConfig cfg = SystemConfig::base(SystemKind::kCcNumaMigRep);
  cfg.timing.migrep_threshold = 1u << 30;
  cfg.migrep_counter_cache_pages = 1024;
  Stats stats(cfg.nodes);
  auto sys = make_system(cfg, &stats);
  PolicyEngine& eng = sys->policy_engine();
  PageTable& pt = sys->page_table();
  constexpr Addr kPages = 1u << 12;
  for (Addr p = 0; p < kPages; ++p) pt.info(p).home = NodeId(p & 7);
  Rng rng(16);
  Cycle now = 0;
  for (auto _ : state) {
    const Addr page = rng.next_below(kPages);
    PolicyEvent ev;
    const std::uint64_t pick = rng.next_below(4);
    ev.kind = pick == 0   ? PolicyEventKind::kRemoteFetch
              : pick == 1 ? PolicyEventKind::kEviction
                          : PolicyEventKind::kMiss;
    ev.page = page;
    ev.node = NodeId(rng.next_below(cfg.nodes));
    ev.is_write = (pick & 1) != 0;
    ev.bytes = 80;
    ev.now = now += 20;
    benchmark::DoNotOptimize(eng.dispatch(ev, pt.info(page)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyEventDispatch);

// AddrMap vs the node-based map it replaced, same workload.
void BM_AddrMapMixed(benchmark::State& state) {
  AddrMap<std::uint64_t> m;
  Rng rng(17);
  for (auto _ : state) {
    const Addr k = rng.next_below(1u << 16);
    const std::uint64_t op = rng.next_below(8);
    if (op < 5) {
      benchmark::DoNotOptimize(m.find(k));
    } else if (op < 7) {
      m[k] += 1;
    } else {
      m.erase(k);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AddrMapMixed);

// --- engine + end-to-end ---------------------------------------------------

void BM_CoroutineStep(benchmark::State& state) {
  // Cost of one compute-await step through the engine's fast path.
  struct NullMem final : MemorySystem {
    Cycle access(const MemAccess& a) override { return a.start + 1; }
    void parallel_begin(Cycle) override {}
    void parallel_end(Cycle) override {}
  } mem;
  SystemConfig cfg;
  cfg.nodes = 1;
  cfg.cpus_per_node = 1;
  const std::int64_t steps = state.max_iterations;
  Stats stats(1);
  Engine eng(cfg, &mem, &stats);
  auto body = [](Cpu& cpu, std::int64_t n) -> SimCall<> {
    for (std::int64_t i = 0; i < n; ++i) co_await cpu.compute(1);
  };
  eng.spawn(0, body(eng.cpu(0), steps));
  std::int64_t done = 0;
  for (auto _ : state) {
    // One resume drains a whole quantum; amortized accounting.
    if (done == 0) {
      eng.run();
      done = steps;
    }
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoroutineStep);

// The engine's cost per scheduling window, which perfbench's
// sim.engine_s cannot separate from L1 hits completed on the CPU. Every
// access takes 16,000 cycles and CPU c starts at c x 16,000 / CPUs, so
// the CPUs' clocks stay evenly spread: at 32 and 64 CPUs every window
// of either quantum resumes one CPU, and at 1024 CPUs a quantum-80
// window resumes about five. items/s = accesses/s.
void BM_EngineWindows(benchmark::State& state) {
  constexpr Cycle kLatency = 16000;
  struct SlowMem final : MemorySystem {
    Cycle access(const MemAccess& a) override { return a.start + kLatency; }
    void parallel_begin(Cycle) override {}
    void parallel_end(Cycle) override {}
  } mem;
  SystemConfig cfg;
  cfg.cpus_per_node = 4;
  cfg.nodes = std::uint32_t(state.range(0)) / cfg.cpus_per_node;
  cfg.quantum = Cycle(state.range(1));
  const std::uint32_t cpus = cfg.total_cpus();
  const std::int64_t per_cpu = (std::int64_t(1) << 17) / cpus;
  auto body = [](Cpu& cpu, Cycle start, std::int64_t n) -> SimCall<> {
    co_await cpu.compute(start);
    for (std::int64_t i = 0; i < n; ++i) co_await cpu.read(0x1000);
  };
  std::int64_t accesses = 0;
  for (auto _ : state) {
    Stats stats(cfg.nodes);
    Engine eng(cfg, &mem, &stats);
    for (CpuId c = 0; c < cpus; ++c)
      eng.spawn(c, body(eng.cpu(c), c * kLatency / cpus, per_cpu));
    eng.run();
    benchmark::DoNotOptimize(eng.finish_time());
    accesses += per_cpu * cpus;
  }
  state.SetItemsProcessed(accesses);
}
BENCHMARK(BM_EngineWindows)
    ->ArgsProduct({{32, 64, 1024}, {80, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_AccessEndToEnd(benchmark::State& state) {
  const auto kind = static_cast<SystemKind>(state.range(0));
  SystemConfig cfg = SystemConfig::base(kind);
  Stats stats(cfg.nodes);
  auto sys = make_system(cfg, &stats);
  Rng rng(7);
  Cycle t = 0;
  for (auto _ : state) {
    const NodeId node = NodeId(rng.next_below(cfg.nodes));
    const CpuId cpu = node * cfg.cpus_per_node +
                      CpuId(rng.next_below(cfg.cpus_per_node));
    const Addr addr = 0x100000 + rng.next_below(256) * kBlockBytes * 8;
    t += 20;
    benchmark::DoNotOptimize(
        sys->access({cpu, node, block_base(addr), rng.next_below(4) == 0, t}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AccessEndToEnd)
    ->Arg(int(SystemKind::kCcNuma))
    ->Arg(int(SystemKind::kPerfectCcNuma))
    ->Arg(int(SystemKind::kCcNumaMigRep))
    ->Arg(int(SystemKind::kRNuma));

void BM_TinyWorkloadRun(benchmark::State& state) {
  std::uint64_t refs = 0;
  for (auto _ : state) {
    RunSpec spec = paper_spec(SystemKind::kCcNuma, "migratory", Scale::kTiny);
    spec.system.nodes = 2;
    spec.system.cpus_per_node = 2;
    auto r = run_one(spec);
    benchmark::DoNotOptimize(r.cycles);
    refs += r.sim_refs();
  }
  state.SetItemsProcessed(std::int64_t(refs));
}
BENCHMARK(BM_TinyWorkloadRun)->Unit(benchmark::kMillisecond);

// Complete default-scale runs: the end-to-end simulator throughput the
// perf trajectory tracks (items/sec = simulated references per second).
void BM_DefaultWorkloadRun(benchmark::State& state,
                           SystemKind kind, const char* app) {
  std::uint64_t refs = 0;
  for (auto _ : state) {
    auto r = run_one(paper_spec(kind, app, Scale::kDefault));
    benchmark::DoNotOptimize(r.cycles);
    refs += r.sim_refs();
  }
  state.SetItemsProcessed(std::int64_t(refs));
}
BENCHMARK_CAPTURE(BM_DefaultWorkloadRun, radix_ccnuma,
                  SystemKind::kCcNuma, "radix")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DefaultWorkloadRun, radix_perfect,
                  SystemKind::kPerfectCcNuma, "radix")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DefaultWorkloadRun, radix_rnuma,
                  SystemKind::kRNuma, "radix")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DefaultWorkloadRun, raytrace_migrep,
                  SystemKind::kCcNumaMigRep, "raytrace")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DefaultWorkloadRun, raytrace_rnuma,
                  SystemKind::kRNuma, "raytrace")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsm

BENCHMARK_MAIN();
