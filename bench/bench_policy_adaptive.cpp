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
// Flags: the common set (--paper/--tiny, --apps, --fabric, --link-bw,
// --json FILE) plus --ks 1,2,4 to pick the sweep points.
#include <cstdio>
#include <cstring>

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

std::vector<std::uint32_t> parse_ks(int argc, char** argv) {
  std::vector<std::uint32_t> ks = {1, 4, 16};
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--ks") != 0) continue;
    ks.clear();
    for (const std::string& k : split_list(argv[i + 1]))
      ks.push_back(std::uint32_t(parse_uint(
          "--ks", k, 1, 1u << 20,
          "positive competitive constants, e.g. --ks 1,4,16")));
  }
  return ks;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv, {{"--ks", true}});
  const std::vector<std::uint32_t> ks = parse_ks(argc, argv);

  std::printf(
      "=== Policy sweep: MigRep vs. R-NUMA vs. traffic-competitive "
      "adaptive ===\nscale: %s   fabric: %s   page-move cost: %u bytes\n\n",
      scale_name(opt.scale),
      to_string(opt.fabric),
      unsigned(Message::page_bulk(0, 0, 0, kBlocksPerPage).total_bytes()));

  // Column layout per app: MigRep, R-NUMA, then one adaptive run per k.
  struct PolicyPoint {
    std::string name;
    SystemKind kind;
    PolicyKind policy;
    std::uint32_t k;  // 0 = not adaptive
  };
  std::vector<PolicyPoint> points = {
      {"MigRep", SystemKind::kCcNumaMigRep, PolicyKind::kDefault, 0},
      {"R-NUMA", SystemKind::kRNuma, PolicyKind::kDefault, 0},
  };
  for (std::uint32_t k : ks) {
    char name[32];
    std::snprintf(name, sizeof name, "adapt k%u", k);
    points.push_back({name, SystemKind::kRNuma, PolicyKind::kAdaptive, k});
  }

  std::vector<RunSpec> specs;
  for (const auto& app : opt.apps) {
    for (const auto& p : points) {
      RunSpec s = paper_spec(p.kind, app, opt.scale);
      opt.apply(s.system);
      s.system.policy = p.policy;
      if (p.k != 0) s.system.timing.adaptive_k = p.k;
      specs.push_back(s);
    }
  }
  SweepTimer timer;
  auto results = run_valid(specs, opt);

  // Decisions table: migrations/replications/relocations per column.
  {
    std::vector<std::string> header = {"app"};
    for (const auto& p : points) header.push_back(p.name);
    Table t(header);
    for (std::size_t a = 0; a < opt.apps.size(); ++a) {
      auto& row = t.add_row();
      row.cell(opt.apps[a]);
      for (std::size_t s = 0; s < points.size(); ++s)
        row.cell(ops_cell(results[a * points.size() + s]));
    }
    std::printf("page operations, migrations/replications/relocations:\n%s\n",
                t.to_string().c_str());
  }

  // Total-bytes table: the competitive metric itself.
  {
    std::vector<std::string> header = {"app"};
    for (const auto& p : points) header.push_back(p.name);
    Table t(header);
    for (std::size_t a = 0; a < opt.apps.size(); ++a) {
      auto& row = t.add_row();
      row.cell(opt.apps[a]);
      for (std::size_t s = 0; s < points.size(); ++s)
        row.cell(double(results[a * points.size() + s]
                            .stats.traffic_total()
                            .total_bytes()) /
                     1024.0,
                 0);
    }
    std::printf("total interconnect KB (all classes, all nodes):\n%s\n",
                t.to_string().c_str());
  }

  // Per-class traffic split via the shared reporter.
  std::vector<ResultColumn> columns;
  for (std::size_t s = 0; s < points.size(); ++s) {
    std::vector<std::size_t> rows;
    for (std::size_t a = 0; a < opt.apps.size(); ++a)
      rows.push_back(a * points.size() + s);
    columns.push_back(column_of(points[s].name, results, rows));
  }
  print_traffic_table(opt.apps, columns);

  print_throughput_summary(results, timer.seconds(), opt.jobs);
  if (!opt.json_path.empty())
    write_json(opt.json_path, "policy_sweep", records_of(opt.apps, columns),
               opt.resolved_jobs());
  return 0;
}
