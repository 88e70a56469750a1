// Ablation: policy threshold sweeps.
//
// The paper fixes MigRep's threshold at 800 misses (reset 32000) and
// R-NUMA's switching threshold at 32 refetches, "selected so as to
// optimize performance over all benchmarks". This bench sweeps both
// around the paper's values on traffic-heavy applications so the
// sensitivity of each policy to its threshold is visible.
#include <cstdio>

#include "bench_common.hpp"

using namespace dsm;
using namespace dsm::bench;

namespace {

// One row per swept column of `s` (column 0 is the baseline): its label,
// its normalized time on each app, then `extra` of its run on the first
// app.
void print_sweep(const Sweep& s, std::vector<std::string> header,
                 const std::vector<std::string>& labels,
                 double (*extra)(const Stats&), int precision) {
  Table t(std::move(header));
  for (std::size_t c = 1; c < s.columns.size(); ++c) {
    t.add_row().cell(labels[c - 1]);
    for (std::size_t a = 0; a < s.apps.size(); ++a)
      t.cell(s.normalized(c, a), 3);
    t.cell(extra(s.at(c, 0).stats), precision);
  }
  std::printf("%s\n", t.to_string().c_str());
}

double relocations(const Stats& s) { return s.relocations_per_node(); }
double page_moves(const Stats& s) {
  return s.migrations_per_node() + s.replications_per_node();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv, kSweepFlags);
  const std::vector<std::string> apps =
      opt.given("--apps") ? opt.apps
                          : std::vector<std::string>{"barnes", "ocean",
                                                     "radix"};
  const RunSpec perfect = paper_spec(SystemKind::kPerfectCcNuma, "");
  // A threshold table's header: one column per app, then `last`.
  auto header = [&](std::string last) {
    std::vector<std::string> h = {"threshold"};
    h.insert(h.end(), apps.begin(), apps.end());
    h.push_back(std::move(last));
    return h;
  };

  std::printf("=== Ablation: R-NUMA switching threshold (refetches) ===\n\n");
  std::vector<Sweep::Column> columns = {{"perfect", perfect}};
  std::vector<std::string> labels;
  for (std::uint32_t th : {4, 8, 16, 32, 64, 128, 256}) {
    RunSpec s = paper_spec(SystemKind::kRNuma, "");
    s.system.timing.rnuma_threshold = th;
    columns.push_back({"R-NUMA rnuma_threshold=" + std::to_string(th), s});
    labels.push_back(std::to_string(th));
  }
  const Sweep rnuma(opt, columns, apps);
  print_sweep(rnuma, header("relocations/node (" + apps[0] + ")"), labels,
              relocations, 0);

  std::printf("=== Ablation: MigRep threshold (misses; reset = 40x) ===\n\n");
  columns = {{"perfect", perfect}};
  labels.clear();
  for (std::uint32_t th : {100, 200, 400, 800, 1600, 3200}) {
    RunSpec s = paper_spec(SystemKind::kCcNumaMigRep, "");
    s.system.timing.migrep_threshold = th;
    s.system.timing.migrep_reset_interval = std::uint64_t(th) * 40;
    columns.push_back({"MigRep migrep_threshold=" + std::to_string(th), s});
    labels.push_back(std::to_string(th));
  }
  const Sweep migrep(opt, columns, apps);
  print_sweep(migrep, header("mig+rep/node (" + apps[0] + ")"), labels,
              page_moves, 1);

  std::printf(
      "=== Ablation: MigRep counter-cache size (Section 6.4 hardware "
      "constraint) ===\n\n");
  // Real implementations keep a *cache* of per-page miss counters.
  // Sweep its capacity: too small and hot pages lose their history
  // before crossing the threshold, so page operations stop firing.
  columns = {{"perfect", perfect}};
  labels.clear();
  for (std::uint32_t e : {4, 16, 64, 256, 0}) {
    RunSpec s = paper_spec(SystemKind::kCcNumaMigRep, "");
    s.system.migrep_counter_cache_pages = e;
    columns.push_back(
        {"MigRep migrep_counter_cache_pages=" + std::to_string(e), s});
    labels.push_back(e == 0 ? "unlimited" : std::to_string(e));
  }
  const Sweep counters(opt, columns, {apps[0]});
  print_sweep(counters,
              {"counter entries/home", "normalized (" + apps[0] + ")",
               "mig+rep per node"},
              labels, page_moves, 1);

  if (!opt.json_path.empty()) {
    // One record per cell of each sweep, tagged with the sweep's name.
    std::vector<Record> records;
    auto add = [&](const char* name, const Sweep& sweep) {
      for (Record& r : records_of(sweep)) {
        r.fields.push_back({"sweep", name});
        records.push_back(std::move(r));
      }
    };
    add("rnuma_threshold", rnuma);
    add("migrep_threshold", migrep);
    add("migrep_counter_cache_pages", counters);
    write_json(opt.json_path, "ablation_thresholds", records,
               opt.resolved_jobs());
  }
  return 0;
}
