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
  Options opt = parse(argc, argv);
  std::printf(
      "=== Table 4: per-node page operations and remote misses ===\n"
      "scale: %s   fabric: %s\n"
      "(misses reported x1000, capacity/conflict in parens)\n\n",
      scale_name(opt.scale),
      to_string(opt.fabric));

  std::vector<RunSpec> specs;
  for (const auto& app : opt.apps) {
    for (SystemKind kind : {SystemKind::kCcNuma, SystemKind::kCcNumaMigRep,
                            SystemKind::kRNuma}) {
      RunSpec s = paper_spec(kind, app, opt.scale);
      opt.apply(s.system);
      specs.push_back(s);
    }
  }
  SweepTimer timer;
  auto results = run_valid(specs, opt);

  Table t({"app", "mig/node", "rep/node", "reloc/node", "CC-NUMA",
           "CC-NUMA+MigRep", "R-NUMA"});
  for (std::size_t a = 0; a < opt.apps.size(); ++a) {
    const RunResult& cc = results[3 * a];
    const RunResult& mr = results[3 * a + 1];
    const RunResult& rn = results[3 * a + 2];
    t.add_row()
        .cell(opt.apps[a])
        .cell(mr.stats.migrations_per_node(), 1)
        .cell(mr.stats.replications_per_node(), 1)
        .cell(rn.stats.relocations_per_node(), 1)
        .cell(misses_cell(cc))
        .cell(misses_cell(mr))
        .cell(misses_cell(rn));
  }
  std::printf("%s\n", t.to_string().c_str());

  // The paper's headline metric, now in bytes: per-node interconnect
  // traffic split into data / coherence-control / page-op classes.
  // The result matrix is app-major with the three kinds interleaved;
  // each column names its row indices explicitly.
  std::vector<std::size_t> cc_rows, mr_rows, rn_rows;
  for (std::size_t a = 0; a < opt.apps.size(); ++a) {
    cc_rows.push_back(3 * a);
    mr_rows.push_back(3 * a + 1);
    rn_rows.push_back(3 * a + 2);
  }
  const std::vector<ResultColumn> columns = {
      column_of("CC-NUMA", results, cc_rows),
      column_of("CC-NUMA+MigRep", results, mr_rows),
      column_of("R-NUMA", results, rn_rows)};
  print_traffic_table(opt.apps, columns);

  if (opt.routed_fabric()) print_link_table(opt.apps, columns);

  print_throughput_summary(results, timer.seconds(), opt.jobs);
  if (!opt.json_path.empty())
    write_json(opt.json_path, "table4_pageops", records_of(opt.apps, columns),
               opt.resolved_jobs());
  return 0;
}
