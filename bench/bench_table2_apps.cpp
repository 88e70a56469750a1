// Table 2: applications and input parameters (live from the catalog,
// at both the paper scale and the reduced default scale) — followed by
// the full SystemKind x application sweep at the selected scale.
//
// The sweep is the harness's stress benchmark: all eight systems on
// every app, run through the parallel sweep harness (--jobs N), with
// per-run simulator throughput and the end-to-end wall clock reported.
// `--table-only` prints the input-parameter listing alone and takes no
// other flag.
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"

using namespace dsm;
using namespace dsm::bench;

int main(int argc, char** argv) {
  bool table_only = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--table-only") == 0) table_only = true;
  // The listing is fixed: any other flag would change nothing.
  for (int i = 1; table_only && i < argc; ++i) {
    if (std::strcmp(argv[i], "--table-only") == 0) continue;
    std::fprintf(stderr,
                 "%s: '%s' does not change the input listing; --table-only "
                 "takes no other flag\n",
                 argv[0], argv[i]);
    return 2;
  }
  Options opt = parse(argc, argv, {{"--table-only", false}});

  std::printf("=== Table 2: applications and input data sets ===\n\n");
  Table t({"application", "paper input", "default (bench) input"});
  for (const auto& app : paper_apps()) {
    t.add_row()
        .cell(app)
        .cell(workload_input_description(app, Scale::kPaper))
        .cell(workload_input_description(app, Scale::kDefault));
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "synthetic sharing-pattern micro-workloads (tests/examples): "
      "read_shared, migratory, producer_consumer\n");
  if (table_only) return 0;

  // Full sweep: every SystemKind on every selected app.
  const std::vector<std::pair<std::string, SystemKind>> kinds = {
      {"CC-NUMA", SystemKind::kCcNuma},
      {"Perfect", SystemKind::kPerfectCcNuma},
      {"Rep", SystemKind::kCcNumaRep},
      {"Mig", SystemKind::kCcNumaMig},
      {"MigRep", SystemKind::kCcNumaMigRep},
      {"R-NUMA", SystemKind::kRNuma},
      {"R-NUMA-Inf", SystemKind::kRNumaInf},
      {"RN+MigRep", SystemKind::kRNumaMigRep},
  };
  std::printf(
      "\n=== Full sweep: %zu systems x %zu apps (scale: %s, jobs: %u) ===\n\n",
      kinds.size(), opt.apps.size(), scale_name(opt.scale),
      opt.resolved_jobs());

  std::vector<RunSpec> specs;
  for (const auto& app : opt.apps) {
    for (const auto& [name, kind] : kinds) {
      RunSpec s = paper_spec(kind, app, opt.scale);
      opt.apply(s.system);
      specs.push_back(s);
    }
  }
  SweepTimer timer;
  auto results = run_valid(specs, opt);
  const double sweep_wall = timer.seconds();

  // Execution cycles per app x system.
  {
    std::vector<std::string> header = {"app (Mcycles)"};
    for (const auto& [name, kind] : kinds) header.push_back(name);
    Table ct(header);
    for (std::size_t a = 0; a < opt.apps.size(); ++a) {
      auto& row = ct.add_row();
      row.cell(opt.apps[a]);
      for (std::size_t k = 0; k < kinds.size(); ++k)
        row.cell(double(results[a * kinds.size() + k].cycles) / 1e6, 1);
    }
    std::printf("execution time, millions of simulated cycles:\n%s\n",
                ct.to_string().c_str());
  }

  print_throughput_summary(results, sweep_wall, opt.jobs);

  if (!opt.json_path.empty()) {
    std::vector<ResultColumn> columns;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::vector<std::size_t> rows;
      for (std::size_t a = 0; a < opt.apps.size(); ++a)
        rows.push_back(a * kinds.size() + k);
      columns.push_back(column_of(kinds[k].first, results, rows));
    }
    write_json(opt.json_path, "table2_apps", records_of(opt.apps, columns),
               opt.resolved_jobs());
  }
  return 0;
}
