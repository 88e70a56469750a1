// Figure 8: integrating page migration/replication into R-NUMA.
//
// CC-NUMA, MigRep, R-NUMA with half the page cache (R-NUMA-1/2),
// R-NUMA-1/2 + MigRep (relocation delayed by 32000 misses per page),
// and full R-NUMA — normalized to perfect CC-NUMA. The paper's reading:
// R-NUMA-1/2's performance is largely insensitive to adding MigRep,
// because relocation perturbs the miss counters MigRep relies on.
#include <cstdio>

#include "bench_common.hpp"

using namespace dsm;
using namespace dsm::bench;

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  std::printf(
      "=== Figure 8: R-NUMA + MigRep integration (normalized to perfect "
      "CC-NUMA) ===\nscale: %s\n\n",
      scale_name(opt.scale));

  RunSpec half = paper_spec(SystemKind::kRNuma, "");
  half.system.page_cache_bytes = 1200 * 1024;  // 1.2 MB
  RunSpec half_migrep = paper_spec(SystemKind::kRNumaMigRep, "");
  half_migrep.system.page_cache_bytes = 1200 * 1024;

  const std::vector<std::pair<std::string, RunSpec>> systems = {
      {"CC-NUMA", paper_spec(SystemKind::kCcNuma, "")},
      {"MigRep", paper_spec(SystemKind::kCcNumaMigRep, "")},
      {"R-NUMA-1/2", half},
      {"R-NUMA-1/2+MigRep", half_migrep},
      {"R-NUMA", paper_spec(SystemKind::kRNuma, "")},
  };
  SweepTimer timer;
  NormalizedGrid grid = run_normalized(systems, opt);
  std::printf("%s\n", render_series(grid.apps, grid.series).c_str());
  print_geomean_row(grid);
  print_throughput_summary(grid.results, timer.seconds(), opt.jobs);
  if (!opt.json_path.empty())
    write_json(opt.json_path, "fig8_integration", records_of(grid),
               opt.resolved_jobs());
  return 0;
}
