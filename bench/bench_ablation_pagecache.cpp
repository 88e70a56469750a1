// Ablation: R-NUMA page-cache size sweep.
//
// The paper's R-NUMA uses a 2.4-MByte page cache ("a factor of 40
// larger than the block cache") and Section 6.4 studies a 1.2-MByte
// half-size variant. This bench sweeps the size from 0.3 MB to
// infinite, showing where each application's primary working set fits
// (the knee of each curve) — the quantity conclusion (3) of the paper
// turns on.
#include <cstdio>

#include "bench_common.hpp"

using namespace dsm;
using namespace dsm::bench;

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv, kSweepFlags);
  std::printf(
      "=== Ablation: page-cache size sweep (normalized to perfect CC-NUMA) "
      "===\nscale: %s\n\n",
      scale_name(opt.scale));

  const std::vector<std::pair<std::string, std::uint64_t>> sizes = {
      {"0.3MB", 300 * 1024},   {"0.6MB", 600 * 1024},
      {"1.2MB", 1200 * 1024},  {"2.4MB", 2400 * 1024},
      {"4.8MB", 4800 * 1024},  {"inf", 0},
  };
  std::vector<Sweep::Column> columns = {
      {"perfect", paper_spec(SystemKind::kPerfectCcNuma, "")}};
  for (const auto& [label, bytes] : sizes) {
    if (bytes == 0) {
      columns.push_back({"R-NUMA-Inf", paper_spec(SystemKind::kRNumaInf, "")});
      continue;
    }
    RunSpec s = paper_spec(SystemKind::kRNuma, "");
    s.system.page_cache_bytes = bytes;
    columns.push_back({"R-NUMA " + label, s});
  }
  const Sweep sweep(opt, columns);

  std::vector<Series> series = normalized_series(sweep);
  for (std::size_t i = 0; i < sizes.size(); ++i)
    series[i].name = sizes[i].first;
  std::printf("%s\n", render_series(sweep.apps, series).c_str());

  std::printf("page-cache evictions per node at each size (%s):\n",
              sweep.apps[0].c_str());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const RunResult& r = sweep.at(i + 1, 0);
    std::uint64_t ev = 0;
    for (const auto& n : r.stats.node) ev += n.page_cache_evictions;
    std::printf("  %-6s %llu\n", sizes[i].first.c_str(),
                (unsigned long long)(ev / r.stats.node.size()));
  }
  print_throughput_summary(sweep, opt);
  if (!opt.json_path.empty())
    write_json(opt.json_path, "ablation_pagecache", records_of(sweep),
               opt.resolved_jobs());
  return 0;
}
