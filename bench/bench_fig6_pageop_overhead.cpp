// Figure 6: sensitivity to page-operation overhead.
//
// CC-NUMA+MigRep and R-NUMA with the fast (hardware-assisted) and slow
// (kernel-only, ten-fold) page-operation cost models of Section 6.2,
// normalized to perfect CC-NUMA. The paper's reading: R-NUMA is more
// sensitive because its page-operation frequency is much higher.
#include <cstdio>

#include "bench_common.hpp"

using namespace dsm;
using namespace dsm::bench;

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  std::printf(
      "=== Figure 6: fast vs slow page operations (normalized to perfect "
      "CC-NUMA) ===\nscale: %s\n\n",
      scale_name(opt.scale));

  RunSpec migrep_fast = paper_spec(SystemKind::kCcNumaMigRep, "");
  RunSpec migrep_slow = migrep_fast;
  migrep_slow.system.timing = TimingConfig::slow_page_ops();
  RunSpec rnuma_fast = paper_spec(SystemKind::kRNuma, "");
  RunSpec rnuma_slow = rnuma_fast;
  rnuma_slow.system.timing = TimingConfig::slow_page_ops();

  const std::vector<std::pair<std::string, RunSpec>> systems = {
      {"MigRep-Fast", migrep_fast},
      {"MigRep-Slow", migrep_slow},
      {"R-NUMA-Fast", rnuma_fast},
      {"R-NUMA-Slow", rnuma_slow},
  };
  SweepTimer timer;
  NormalizedGrid grid = run_normalized(systems, opt);
  std::printf("%s\n", render_series(grid.apps, grid.series).c_str());
  print_geomean_row(grid);
  print_throughput_summary(grid.results, timer.seconds(), opt.jobs);

  // Degradation factors (slow / fast), the figure's key comparison.
  std::printf("\nslow/fast degradation:\n");
  for (std::size_t a = 0; a < grid.apps.size(); ++a) {
    const double mr = grid.series[1].values[a] / grid.series[0].values[a];
    const double rn = grid.series[3].values[a] / grid.series[2].values[a];
    std::printf("  %-10s MigRep %.3f   R-NUMA %.3f\n", grid.apps[a].c_str(),
                mr, rn);
  }
  if (!opt.json_path.empty())
    write_json(opt.json_path, "fig6_pageop_overhead", records_of(grid),
               opt.resolved_jobs());
  return 0;
}
