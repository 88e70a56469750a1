#include "harness/runner.hpp"

#include <chrono>

#include "harness/parallel.hpp"
#include "protocols/system_factory.hpp"
#include "sim/engine.hpp"
#include "workloads/workload.hpp"

namespace dsm {

RunResult run_one(const RunSpec& spec) {
  const auto wall_start = std::chrono::steady_clock::now();
  RunResult result;
  result.spec = spec;
  result.stats = Stats(spec.system.nodes);

  auto system = make_system(spec.system, &result.stats);
  Engine engine(spec.system, system.get(), &result.stats);

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

  if (spec.verify) workload->verify();

  result.cycles = engine.finish_time();
  result.stats.execution_cycles = result.cycles;
  result.stats.total_cycles = result.cycles;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

std::vector<RunResult> run_matrix(const std::vector<RunSpec>& specs,
                                  unsigned jobs) {
  std::vector<RunResult> results(specs.size());
  parallel_for_index(specs.size(), jobs,
                     [&](std::size_t i) { results[i] = run_one(specs[i]); });
  return results;
}

RunSpec paper_spec(SystemKind kind, const std::string& app, Scale scale) {
  RunSpec spec;
  spec.system = SystemConfig::base(kind);
  spec.workload = app;
  spec.scale = scale;
  return spec;
}

}  // namespace dsm
