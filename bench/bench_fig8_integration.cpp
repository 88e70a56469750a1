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
  const Options opt = parse(argc, argv, kSweepFlags);
  std::printf(
      "=== Figure 8: R-NUMA + MigRep integration (normalized to perfect "
      "CC-NUMA) ===\nscale: %s\n\n",
      scale_name(opt.scale));

  auto half = [](SystemKind kind) {
    RunSpec s = paper_spec(kind, "");
    s.system.page_cache_bytes = 1200 * 1024;  // 1.2 MB
    return s;
  };
  const Sweep sweep(
      opt, {{"perfect", paper_spec(SystemKind::kPerfectCcNuma, "")},
            {"CC-NUMA", paper_spec(SystemKind::kCcNuma, "")},
            {"MigRep", paper_spec(SystemKind::kCcNumaMigRep, "")},
            {"R-NUMA-1/2", half(SystemKind::kRNuma)},
            {"R-NUMA-1/2+MigRep", half(SystemKind::kRNumaMigRep)},
            {"R-NUMA", paper_spec(SystemKind::kRNuma, "")}});
  print_normalized(sweep);
  print_throughput_summary(sweep, opt);
  if (!opt.json_path.empty())
    write_json(opt.json_path, "fig8_integration", records_of(sweep),
               opt.resolved_jobs());
  return 0;
}
