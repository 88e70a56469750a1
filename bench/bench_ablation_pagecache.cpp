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
  Options opt = parse(argc, argv);
  std::printf(
      "=== Ablation: page-cache size sweep (normalized to perfect CC-NUMA) "
      "===\nscale: %s\n\n",
      scale_name(opt.scale));

  const std::vector<std::pair<std::string, std::uint64_t>> sizes = {
      {"0.3MB", 300 * 1024},   {"0.6MB", 600 * 1024},
      {"1.2MB", 1200 * 1024},  {"2.4MB", 2400 * 1024},
      {"4.8MB", 4800 * 1024},  {"inf", 0},
  };

  std::vector<RunSpec> specs;
  for (const auto& app : opt.apps)
    specs.push_back(opt.spec(SystemKind::kPerfectCcNuma, app));
  for (const auto& [label, bytes] : sizes) {
    for (const auto& app : opt.apps) {
      RunSpec s = opt.spec(
          bytes == 0 ? SystemKind::kRNumaInf : SystemKind::kRNuma, app);
      if (bytes != 0) s.system.page_cache_bytes = bytes;
      specs.push_back(s);
    }
  }
  SweepTimer timer;
  auto results = run_valid(specs, opt);

  std::vector<Series> series;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Series s;
    s.name = sizes[i].first;
    for (std::size_t a = 0; a < opt.apps.size(); ++a)
      s.values.push_back(results[opt.apps.size() * (i + 1) + a]
                             .normalized_to(results[a]));
    series.push_back(std::move(s));
  }
  std::printf("%s\n", render_series(opt.apps, series).c_str());

  std::printf("page-cache evictions per node at each size (%s):\n",
              opt.apps[0].c_str());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const RunResult& r = results[opt.apps.size() * (i + 1)];
    std::uint64_t ev = 0;
    for (const auto& n : r.stats.node) ev += n.page_cache_evictions;
    std::printf("  %-6s %llu\n", sizes[i].first.c_str(),
                (unsigned long long)(ev / r.stats.node.size()));
  }
  print_throughput_summary(results, timer.seconds(), opt.jobs);
  if (!opt.json_path.empty()) {
    std::vector<std::string> names;
    for (const auto& [label, bytes] : sizes)
      names.push_back(bytes == 0 ? "R-NUMA-Inf" : "R-NUMA " + label);
    write_json(opt.json_path, "ablation_pagecache",
               records_of(opt.apps,
                          baseline_columns(names, results, opt.apps.size())),
               opt.resolved_jobs());
  }
  return 0;
}
