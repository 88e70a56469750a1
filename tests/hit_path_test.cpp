// Differential test of the engine's L1 hit path against the full access
// path.
//
// DsmSystem exposes each CPU's L1 through MemorySystem::hit_path, so the
// engine completes an L1 hit by itself once no page-op window can still
// be open (DsmSystem's page-op horizon). Each cell below runs twice: on
// the DsmSystem directly, and through a forwarding MemorySystem that
// keeps the default hit path, so every access, each hit included, takes
// DsmSystem::access. The two runs must agree on digest(Stats) and on
// cycles.
//
// A horizon that lags a page-op window leaves most cells unchanged: the
// window's gather usually empties the L1s the hit path would read. The
// MigRep cells at migrep_threshold 4 are the ones that catch it: their
// replica collapses open windows that lines survive. The faulted and
// adaptive cells add aborted page ops, re-homes, relocations, page-cache
// evictions and the adaptive engine's page ops, and the test checks that
// each of them happened.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsm/cluster.hpp"
#include "harness/runner.hpp"
#include "net/message.hpp"
#include "protocols/system_factory.hpp"
#include "sim/engine.hpp"
#include "workloads/workload.hpp"

namespace dsm {
namespace {

// Forwards every call to the system and keeps the default (no) hit path.
class Forwarder final : public MemorySystem {
 public:
  explicit Forwarder(MemorySystem& sys) : sys_(sys) {}
  Cycle access(const MemAccess& a) override {
    calls++;
    return sys_.access(a);
  }
  void parallel_begin(Cycle now) override { sys_.parallel_begin(now); }
  void parallel_end(Cycle now) override { sys_.parallel_end(now); }
  std::uint64_t calls = 0;

 private:
  MemorySystem& sys_;
};

struct Outcome {
  Stats stats;
  Cycle cycles = 0;
};

// run_one's call sequence, optionally with the forwarder between the
// engine and the system; verifies the workload and the final coherence
// state.
Outcome run(const RunSpec& spec, bool forward) {
  EXPECT_EQ(validate(spec.system), "");
  Outcome out;
  out.stats = Stats(spec.system.nodes);
  auto system = make_system(spec.system, &out.stats);
  Forwarder fwd(*system);
  MemorySystem* mem =
      forward ? &fwd : static_cast<MemorySystem*>(system.get());
  Engine engine(spec.system, mem, &out.stats);
  EXPECT_EQ(engine.cpu(0).hits.l1 == nullptr, forward);

  SharedSpace space;
  auto workload = make_workload(spec.workload, spec.scale);
  const std::uint32_t n = spec.system.total_cpus();
  workload->setup(engine, space, n);
  std::vector<WorkerCtx> ctxs(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    ctxs[t].cpu = &engine.cpu(t);
    ctxs[t].tid = t;
    ctxs[t].nthreads = n;
    ctxs[t].rng.reseed(spec.system.seed + t);
    engine.spawn(t, workload->body(ctxs[t]));
  }
  system->parallel_begin(0);
  engine.run();
  system->parallel_end(engine.finish_time());
  workload->verify();
  system->check_coherence();
  out.cycles = engine.finish_time();
  out.stats.execution_cycles = out.stats.total_cycles = out.cycles;
  if (forward) {
    EXPECT_EQ(fwd.calls, out.stats.shared_reads + out.stats.shared_writes);
  }
  return out;
}

struct Cell {
  std::string name;
  RunSpec spec;
};

RunSpec tiny(SystemKind kind, const char* app) {
  return paper_spec(kind, app, Scale::kTiny);
}

std::vector<Cell> cells() {
  std::vector<Cell> out;
  // Replica collapses with lines alive across the window.
  for (SystemKind k : {SystemKind::kCcNumaMigRep, SystemKind::kRNumaMigRep})
    for (const char* app : {"fmm", "ocean", "barnes"}) {
      RunSpec s = tiny(k, app);
      s.system.timing.migrep_threshold = 4;
      out.push_back({std::string(to_string(k)) + "/" + app + "/threshold4", s});
    }
  // Every page bulk copy is dropped: each page op aborts and leaves its
  // window open.
  {
    RunSpec s = tiny(SystemKind::kCcNumaMigRep, "radix");
    s.system.timing.migrep_threshold = 4;
    s.system.faults.seed = 1;
    s.system.faults.drop_pct = 100;
    s.system.faults.fault_kinds = 1u << std::uint8_t(MsgKind::kPageBulk);
    out.push_back({"ccnuma-migrep/radix/page-bulk-dropped", s});
  }
  // A permanent node crash on a mesh: pages re-home off the dead node.
  // R-NUMA relocates pages too, and a page cache of eight frames makes
  // it evict (and unmap) some.
  {
    RunSpec s = tiny(SystemKind::kRNuma, "radix");
    s.system.nodes = 16;
    s.system.cpus_per_node = 1;
    s.system.fabric = FabricKind::kMesh2d;
    s.system.page_cache_bytes = 8 * kPageBytes;
    s.system.faults.node_downs.push_back({3, 2'000'000, kNeverCycle});
    out.push_back({"rnuma/radix/mesh16-crash", s});
  }
  // The adaptive engine's page ops.
  {
    RunSpec s = tiny(SystemKind::kRNuma, "radix");
    s.system.policy = PolicyKind::kAdaptive;
    out.push_back({"rnuma/radix/adaptive", s});
  }
  return out;
}

TEST(HitPath, MatchesTheFullAccessPathOnEveryCell) {
  std::uint64_t replications = 0, migrations = 0, collapses = 0,
                relocations = 0, evictions = 0, aborted = 0, rehomes = 0;
  for (const Cell& c : cells()) {
    const Outcome direct = run(c.spec, /*forward=*/false);
    const Outcome full = run(c.spec, /*forward=*/true);
    EXPECT_EQ(direct.cycles, full.cycles) << c.name;
    EXPECT_EQ(digest(direct.stats), digest(full.stats)) << c.name;
    const Stats& s = direct.stats;
    replications += s.page_replications_total();
    migrations += s.page_migrations_total();
    relocations += s.page_relocations_total();
    for (const NodeStats& ns : s.node) {
      collapses += ns.replica_collapses;
      evictions += ns.page_cache_evictions;
    }
    aborted += s.faults.aborted_page_ops;
    rehomes += s.faults.rehomes;
  }
  // Every kind of page-op window opened, and both kinds of unmap ran.
  EXPECT_GT(replications, 0u);
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(collapses, 0u);
  EXPECT_GT(relocations, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(rehomes, 0u);
}

}  // namespace
}  // namespace dsm
