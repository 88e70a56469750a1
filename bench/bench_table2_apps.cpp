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

#include "bench_common.hpp"

using namespace dsm;
using namespace dsm::bench;

int main(int argc, char** argv) {
  std::vector<std::string_view> flags = kSweepFlags;
  flags.push_back("--table-only");
  const Options opt = parse(argc, argv, flags);
  const bool table_only = opt.given("--table-only");
  // The listing is fixed: any other flag would change nothing.
  for (const auto& [flag, value] : opt.flags) {
    if (!table_only || flag == "--table-only") continue;
    std::fprintf(stderr,
                 "%s: '%.*s' does not change the input listing; --table-only "
                 "takes no other flag\n",
                 argv[0], int(flag.size()), flag.data());
    return 2;
  }

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
  const std::vector<Sweep::Column> columns = {
      {"CC-NUMA", paper_spec(SystemKind::kCcNuma, "")},
      {"Perfect", paper_spec(SystemKind::kPerfectCcNuma, "")},
      {"Rep", paper_spec(SystemKind::kCcNumaRep, "")},
      {"Mig", paper_spec(SystemKind::kCcNumaMig, "")},
      {"MigRep", paper_spec(SystemKind::kCcNumaMigRep, "")},
      {"R-NUMA", paper_spec(SystemKind::kRNuma, "")},
      {"R-NUMA-Inf", paper_spec(SystemKind::kRNumaInf, "")},
      {"RN+MigRep", paper_spec(SystemKind::kRNumaMigRep, "")}};
  std::printf(
      "\n=== Full sweep: %zu systems x %zu apps (scale: %s, jobs: %u) ===\n\n",
      columns.size(), opt.apps.size(), scale_name(opt.scale),
      opt.resolved_jobs());
  const Sweep sweep(opt, columns);

  // Execution cycles per app x system.
  std::vector<std::string> header = {"app (Mcycles)"};
  for (const Sweep::Column& c : columns) header.push_back(c.name);
  Table ct(header);
  for (std::size_t a = 0; a < sweep.apps.size(); ++a) {
    ct.add_row().cell(sweep.apps[a]);
    for (std::size_t c = 0; c < columns.size(); ++c)
      ct.cell(double(sweep.at(c, a).cycles) / 1e6, 1);
  }
  std::printf("execution time, millions of simulated cycles:\n%s\n",
              ct.to_string().c_str());

  print_throughput_summary(sweep, opt);
  if (!opt.json_path.empty())
    write_json(opt.json_path, "table2_apps", records_of(sweep),
               opt.resolved_jobs());
  return 0;
}
