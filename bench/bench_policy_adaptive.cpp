// Policy sweep: the paper's two fixed engines vs. the traffic-
// competitive adaptive engine across the competitive constant k.
//
// For each app, runs
//   MigRep     CC-NUMA+MigRep (the paper's Section 3.1 pairing)
//   R-NUMA     reactive relocation (Section 3.2)
//   adapt kN   the R-NUMA substrate (page cache available, so all three
//              verbs are live) driven by the adaptive engine at k = N
// and reports per-node bytes by class plus the decisions each engine
// took. The interesting read: where the adaptive engine lands relative
// to the two fixed policies on each sharing pattern, and how k trades
// page-op bytes against data/control bytes.
//
// Flags: the sweep flags except --policy and --adaptive-k, which each
// column sets itself, plus --ks 1,2,4 to pick the sweep points.
#include <cstdio>

#include "bench_common.hpp"
#include "net/message.hpp"

using namespace dsm;
using namespace dsm::bench;

namespace {

std::string ops_cell(const RunResult& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%llum/%llur/%llul",
                (unsigned long long)r.stats.page_migrations_total(),
                (unsigned long long)r.stats.page_replications_total(),
                (unsigned long long)r.stats.page_relocations_total());
  return buf;
}

std::string total_kb_cell(const RunResult& r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f",
                double(r.stats.traffic_total().total_bytes()) / 1024.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string_view> flags = kSweepFlags;
  std::erase(flags, "--policy");
  std::erase(flags, "--adaptive-k");
  flags.push_back("--ks");
  const Options opt = parse(argc, argv, flags);
  std::vector<std::uint32_t> ks = {1, 4, 16};
  if (opt.given("--ks")) {
    ks.clear();
    for (const std::string& k : split_list(opt.value("--ks")))
      ks.push_back(std::uint32_t(
          parse_uint("--ks", k, 1, 1u << 20,
                     "positive competitive constants, e.g. --ks 1,4,16")));
  }

  std::printf(
      "=== Policy sweep: MigRep vs. R-NUMA vs. traffic-competitive "
      "adaptive ===\nscale: %s   fabric: %s   page-move cost: %u bytes\n\n",
      scale_name(opt.scale), to_string(opt.fabric),
      unsigned(Message::page_bulk(0, 0, 0, kBlocksPerPage).total_bytes()));

  std::vector<Sweep::Column> columns = {
      {"MigRep", paper_spec(SystemKind::kCcNumaMigRep, "")},
      {"R-NUMA", paper_spec(SystemKind::kRNuma, "")}};
  for (std::uint32_t k : ks) {
    RunSpec s = paper_spec(SystemKind::kRNuma, "");
    s.system.policy = PolicyKind::kAdaptive;
    s.system.timing.adaptive_k = k;
    columns.push_back({"adapt k" + std::to_string(k), s});
  }
  const Sweep sweep(opt, columns);

  print_grid("page operations, migrations/replications/relocations", sweep,
             ops_cell);
  // The competitive metric itself.
  print_grid("total interconnect KB (all classes, all nodes)", sweep,
             total_kb_cell);
  print_traffic_table(sweep);

  print_throughput_summary(sweep, opt);
  if (!opt.json_path.empty())
    write_json(opt.json_path, "policy_sweep", records_of(sweep),
               opt.resolved_jobs());
  return 0;
}
