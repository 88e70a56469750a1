// Figure 7: sensitivity to network latency.
//
// CC-NUMA, CC-NUMA+MigRep and R-NUMA with the remote:local access ratio
// raised to 16 (4x the base system's wire latency), normalized to a
// perfect CC-NUMA *at the same latency*. The paper's reading: CC-NUMA
// degrades most (~2.26x perfect), MigRep less (~1.72x), R-NUMA least
// (~1.25x).
#include <cstdio>

#include "bench_common.hpp"

using namespace dsm;
using namespace dsm::bench;

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  std::printf(
      "=== Figure 7: 4x network latency (remote:local = 16), normalized to "
      "perfect CC-NUMA at the same latency ===\nscale: %s   fabric: %s\n\n",
      scale_name(opt.scale),
      to_string(opt.fabric));

  const TimingConfig slow_net = TimingConfig::long_latency();
  auto with_latency = [&](SystemKind k) {
    RunSpec s = paper_spec(k, "");
    s.system.timing = slow_net;
    opt.apply(s.system);
    return s;
  };

  // Baselines must also use the long latency: build the spec list by
  // hand rather than through run_normalized (which uses base timing).
  std::vector<RunSpec> specs;
  for (const auto& app : opt.apps) {
    RunSpec base = with_latency(SystemKind::kPerfectCcNuma);
    base.workload = app;
    base.scale = opt.scale;
    specs.push_back(base);
  }
  const std::vector<std::pair<std::string, SystemKind>> systems = {
      {"CC-NUMA", SystemKind::kCcNuma},
      {"MigRep", SystemKind::kCcNumaMigRep},
      {"R-NUMA", SystemKind::kRNuma},
  };
  for (const auto& [name, kind] : systems) {
    for (const auto& app : opt.apps) {
      RunSpec s = with_latency(kind);
      s.workload = app;
      s.scale = opt.scale;
      specs.push_back(s);
    }
  }
  SweepTimer timer;
  auto results = run_valid(specs, opt);

  std::vector<Series> series;
  for (std::size_t sys = 0; sys < systems.size(); ++sys) {
    Series s;
    s.name = systems[sys].first;
    for (std::size_t a = 0; a < opt.apps.size(); ++a)
      s.values.push_back(results[opt.apps.size() * (sys + 1) + a]
                             .normalized_to(results[a]));
    series.push_back(std::move(s));
  }
  std::printf("%s\n", render_series(opt.apps, series).c_str());

  std::printf("geometric means:\n");
  for (const auto& s : series) {
    double logsum = 0;
    for (double v : s.values) logsum += std::log(v);
    std::printf("  %-10s %.3f\n", s.name.c_str(),
                std::exp(logsum / double(s.values.size())));
  }

  // Per-class byte traffic at the long latency, per node (the traffic
  // that the latency sweep is actually pricing).
  std::printf("\n");
  std::vector<std::string> names;
  for (const auto& sys : systems) names.push_back(sys.first);
  const std::vector<ResultColumn> columns =
      baseline_columns(names, results, opt.apps.size());
  print_traffic_table(opt.apps, columns);

  // On a routed fabric the latency sweep also exercises the link-level
  // router contention: show where the queueing went.
  if (opt.routed_fabric()) print_link_table(opt.apps, columns);

  print_throughput_summary(results, timer.seconds(), opt.jobs);
  if (!opt.json_path.empty())
    write_json(opt.json_path, "fig7_netlat", records_of(opt.apps, columns),
               opt.resolved_jobs());
  return 0;
}
