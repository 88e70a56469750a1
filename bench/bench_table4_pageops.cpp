// Table 4: per-node page operations and remote misses.
//
// Columns mirror the paper: migrations and replications per node
// (CC-NUMA+MigRep), page-cache relocations per node (R-NUMA), and the
// overall remote misses (capacity/conflict in parentheses, x1000) on
// CC-NUMA, CC-NUMA+MigRep and R-NUMA.
#include <cstdio>

#include "bench_common.hpp"

using namespace dsm;
using namespace dsm::bench;

namespace {
std::string misses_cell(const RunResult& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f (%.1f)",
                r.stats.remote_misses_per_node() / 1000.0,
                r.stats.capacity_misses_per_node() / 1000.0);
  return buf;
}
}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv, kSweepFlags);
  std::printf(
      "=== Table 4: per-node page operations and remote misses ===\n"
      "scale: %s   fabric: %s\n"
      "(misses reported x1000, capacity/conflict in parens)\n\n",
      scale_name(opt.scale), to_string(opt.fabric));

  const Sweep sweep(
      opt, {{"CC-NUMA", paper_spec(SystemKind::kCcNuma, "")},
            {"CC-NUMA+MigRep", paper_spec(SystemKind::kCcNumaMigRep, "")},
            {"R-NUMA", paper_spec(SystemKind::kRNuma, "")}});

  Table t({"app", "mig/node", "rep/node", "reloc/node", "CC-NUMA",
           "CC-NUMA+MigRep", "R-NUMA"});
  for (std::size_t a = 0; a < sweep.apps.size(); ++a) {
    const Stats& mr = sweep.at(1, a).stats;
    t.add_row()
        .cell(sweep.apps[a])
        .cell(mr.migrations_per_node(), 1)
        .cell(mr.replications_per_node(), 1)
        .cell(sweep.at(2, a).stats.relocations_per_node(), 1)
        .cell(misses_cell(sweep.at(0, a)))
        .cell(misses_cell(sweep.at(1, a)))
        .cell(misses_cell(sweep.at(2, a)));
  }
  std::printf("%s\n", t.to_string().c_str());

  // The paper's headline metric, now in bytes: per-node interconnect
  // traffic split into data / coherence-control / page-op classes.
  print_traffic_table(sweep);
  if (opt.routed_fabric()) print_link_table(sweep);

  print_throughput_summary(sweep, opt);
  if (!opt.json_path.empty())
    write_json(opt.json_path, "table4_pageops", records_of(sweep),
               opt.resolved_jobs());
  return 0;
}
