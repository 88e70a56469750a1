// Figure 5: base performance comparison.
//
// Normalized execution time (vs. perfect CC-NUMA) for CC-NUMA, CC-NUMA
// with replication only (Rep), migration only (Mig), both (MigRep),
// R-NUMA, and R-NUMA with an infinite page cache, across the seven
// applications. The paper's reading: CC-NUMA averages ~1.6x perfect,
// MigRep improves ~20% over CC-NUMA, R-NUMA ~40% and is best overall.
#include <cstdio>

#include "bench_common.hpp"

using namespace dsm;
using namespace dsm::bench;

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv, kSweepFlags);
  std::printf(
      "=== Figure 5: normalized execution time (vs perfect CC-NUMA) ===\n"
      "scale: %s\n\n",
      scale_name(opt.scale));

  const Sweep sweep(
      opt, {{"perfect", paper_spec(SystemKind::kPerfectCcNuma, "")},
            {"CC-NUMA", paper_spec(SystemKind::kCcNuma, "")},
            {"Rep", paper_spec(SystemKind::kCcNumaRep, "")},
            {"Mig", paper_spec(SystemKind::kCcNumaMig, "")},
            {"MigRep", paper_spec(SystemKind::kCcNumaMigRep, "")},
            {"R-NUMA", paper_spec(SystemKind::kRNuma, "")},
            {"R-NUMA-Inf", paper_spec(SystemKind::kRNumaInf, "")}});
  print_normalized(sweep);
  print_throughput_summary(sweep, opt);
  if (!opt.json_path.empty())
    write_json(opt.json_path, "fig5_base", records_of(sweep),
               opt.resolved_jobs());
  return 0;
}
