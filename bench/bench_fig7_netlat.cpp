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
  const Options opt = parse(argc, argv, kSweepFlags);
  std::printf(
      "=== Figure 7: 4x network latency (remote:local = 16), normalized to "
      "perfect CC-NUMA at the same latency ===\nscale: %s   fabric: %s\n\n",
      scale_name(opt.scale), to_string(opt.fabric));

  // Every column, the baseline included, runs at the long latency.
  auto slow_net = [](SystemKind kind) {
    RunSpec s = paper_spec(kind, "");
    s.system.timing = TimingConfig::long_latency();
    return s;
  };
  const Sweep sweep(opt, {{"perfect", slow_net(SystemKind::kPerfectCcNuma)},
                          {"CC-NUMA", slow_net(SystemKind::kCcNuma)},
                          {"MigRep", slow_net(SystemKind::kCcNumaMigRep)},
                          {"R-NUMA", slow_net(SystemKind::kRNuma)}});
  print_normalized(sweep);

  // Per-class byte traffic at the long latency, per node (the traffic
  // that the latency sweep is actually pricing).
  std::printf("\n");
  print_traffic_table(sweep);

  // On a routed fabric the latency sweep also exercises the link-level
  // router contention: show where the queueing went.
  if (opt.routed_fabric()) print_link_table(sweep);

  print_throughput_summary(sweep, opt);
  if (!opt.json_path.empty())
    write_json(opt.json_path, "fig7_netlat", records_of(sweep),
               opt.resolved_jobs());
  return 0;
}
