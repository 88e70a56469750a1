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
  const Options opt = parse(argc, argv, kSweepFlags);
  std::printf(
      "=== Figure 6: fast vs slow page operations (normalized to perfect "
      "CC-NUMA) ===\nscale: %s\n\n",
      scale_name(opt.scale));

  auto slow = [](SystemKind kind) {
    RunSpec s = paper_spec(kind, "");
    s.system.timing = TimingConfig::slow_page_ops();
    return s;
  };
  const Sweep sweep(
      opt, {{"perfect", paper_spec(SystemKind::kPerfectCcNuma, "")},
            {"MigRep-Fast", paper_spec(SystemKind::kCcNumaMigRep, "")},
            {"MigRep-Slow", slow(SystemKind::kCcNumaMigRep)},
            {"R-NUMA-Fast", paper_spec(SystemKind::kRNuma, "")},
            {"R-NUMA-Slow", slow(SystemKind::kRNuma)}});
  print_normalized(sweep);
  print_throughput_summary(sweep, opt);

  // Degradation factors (slow / fast), the figure's key comparison.
  std::printf("\nslow/fast degradation:\n");
  for (std::size_t a = 0; a < sweep.apps.size(); ++a)
    std::printf("  %-10s MigRep %.3f   R-NUMA %.3f\n", sweep.apps[a].c_str(),
                sweep.normalized(2, a) / sweep.normalized(1, a),
                sweep.normalized(4, a) / sweep.normalized(3, a));
  if (!opt.json_path.empty())
    write_json(opt.json_path, "fig6_pageop_overhead", records_of(sweep),
               opt.resolved_jobs());
  return 0;
}
