// Experiment harness: builds a system + engine + workload, runs the
// simulation, and extracts the metrics the paper reports.
//
// run_one() executes a single (system, workload) pair deterministically.
// run_matrix() runs a whole experiment grid in parallel across host
// threads — each run owns an isolated simulator, so runs are
// embarrassingly parallel and individually deterministic.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "workloads/catalog.hpp"

namespace dsm {

struct RunSpec {
  SystemConfig system{};
  std::string workload;
  Scale scale = Scale::kDefault;
  bool verify = true;
};

struct RunResult {
  RunSpec spec;
  Stats stats{0};
  Cycle cycles = 0;  // simulated execution time

  // Host-side throughput of the simulator itself (the perf trajectory):
  // wall-clock seconds run_one took and simulated references processed.
  // Purely observational — never feeds back into simulated results.
  double wall_seconds = 0.0;

  std::uint64_t sim_refs() const {
    return stats.shared_reads + stats.shared_writes;
  }
  double events_per_sec() const {
    return wall_seconds > 0 ? double(sim_refs()) / wall_seconds : 0.0;
  }

  double normalized_to(const RunResult& baseline) const {
    return baseline.cycles == 0 ? 0.0
                                : double(cycles) / double(baseline.cycles);
  }
};

// The first reason `cfg` cannot run, naming the bench flag that sets
// the offending field; empty when it can. Every bench exits 2 with it
// and run_one asserts it, so no flag reaches a DSM_ASSERT.
std::string validate(const SystemConfig& cfg);

// Run a single experiment. Deterministic for a given spec.
RunResult run_one(const RunSpec& spec);

// Run many experiments concurrently on the sweep harness's workers
// (harness/parallel.hpp): `jobs` threads, 0 = hardware concurrency,
// 1 = serial. Each run owns an isolated simulator, so results are
// bit-identical at every job count.
std::vector<RunResult> run_matrix(const std::vector<RunSpec>& specs,
                                  unsigned jobs = 0);

// Convenience: the paper's base configuration for `kind` running `app`.
RunSpec paper_spec(SystemKind kind, const std::string& app,
                   Scale scale = Scale::kDefault);

}  // namespace dsm
