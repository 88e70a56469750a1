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

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  std::vector<std::string> apps = {"barnes", "ocean", "radix"};
  if (opt.apps.size() < paper_apps().size()) apps = opt.apps;  // --apps given
  // Each sweep's results (baselines first), kept for --json.
  std::vector<RunResult> rnuma_runs, migrep_runs, counter_runs;
  std::vector<std::string> rnuma_names, migrep_names, counter_names;

  std::printf("=== Ablation: R-NUMA switching threshold (refetches) ===\n\n");
  {
    const std::vector<std::uint32_t> thresholds = {4, 8, 16, 32, 64, 128, 256};
    std::vector<RunSpec> specs;
    for (const auto& app : apps)
      specs.push_back(opt.spec(SystemKind::kPerfectCcNuma, app));
    for (auto th : thresholds) {
      for (const auto& app : apps) {
        RunSpec s = opt.spec(SystemKind::kRNuma, app);
        s.system.timing.rnuma_threshold = th;
        specs.push_back(s);
      }
      rnuma_names.push_back("R-NUMA rnuma_threshold=" + std::to_string(th));
    }
    rnuma_runs = run_valid(specs, opt);
    const std::vector<RunResult>& results = rnuma_runs;
    Table t({"threshold", apps[0], apps.size() > 1 ? apps[1] : "-",
             apps.size() > 2 ? apps[2] : "-", "relocations/node (" + apps[0] + ")"});
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
      auto row = t.add_row();
      t.cell(std::uint64_t(thresholds[i]));
      for (std::size_t a = 0; a < 3; ++a) {
        if (a < apps.size()) {
          const RunResult& r = results[apps.size() * (i + 1) + a];
          t.cell(r.normalized_to(results[a]), 3);
        } else {
          t.cell(std::string("-"));
        }
      }
      t.cell(results[apps.size() * (i + 1)].stats.relocations_per_node(), 0);
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  std::printf("=== Ablation: MigRep threshold (misses; reset = 40x) ===\n\n");
  {
    const std::vector<std::uint32_t> thresholds = {100, 200, 400, 800, 1600,
                                                   3200};
    std::vector<RunSpec> specs;
    for (const auto& app : apps)
      specs.push_back(opt.spec(SystemKind::kPerfectCcNuma, app));
    for (auto th : thresholds) {
      for (const auto& app : apps) {
        RunSpec s = opt.spec(SystemKind::kCcNumaMigRep, app);
        s.system.timing.migrep_threshold = th;
        s.system.timing.migrep_reset_interval = std::uint64_t(th) * 40;
        specs.push_back(s);
      }
      migrep_names.push_back("MigRep migrep_threshold=" + std::to_string(th));
    }
    migrep_runs = run_valid(specs, opt);
    const std::vector<RunResult>& results = migrep_runs;
    Table t({"threshold", apps[0], apps.size() > 1 ? apps[1] : "-",
             apps.size() > 2 ? apps[2] : "-",
             "mig+rep/node (" + apps[0] + ")"});
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
      t.add_row().cell(std::uint64_t(thresholds[i]));
      for (std::size_t a = 0; a < 3; ++a) {
        if (a < apps.size()) {
          const RunResult& r = results[apps.size() * (i + 1) + a];
          t.cell(r.normalized_to(results[a]), 3);
        } else {
          t.cell(std::string("-"));
        }
      }
      const RunResult& r0 = results[apps.size() * (i + 1)];
      t.cell(r0.stats.migrations_per_node() + r0.stats.replications_per_node(),
             1);
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  std::printf(
      "=== Ablation: MigRep counter-cache size (Section 6.4 hardware "
      "constraint) ===\n\n");
  {
    // Real implementations keep a *cache* of per-page miss counters.
    // Sweep its capacity: too small and hot pages lose their history
    // before crossing the threshold, so page operations stop firing.
    const std::vector<std::uint32_t> entries = {4, 16, 64, 256, 0};
    std::vector<RunSpec> specs;
    const std::string app = apps[0];
    specs.push_back(opt.spec(SystemKind::kPerfectCcNuma, app));
    for (auto e : entries) {
      RunSpec s = opt.spec(SystemKind::kCcNumaMigRep, app);
      s.system.migrep_counter_cache_pages = e;
      specs.push_back(s);
      counter_names.push_back("MigRep migrep_counter_cache_pages=" +
                              std::to_string(e));
    }
    counter_runs = run_valid(specs, opt);
    const std::vector<RunResult>& results = counter_runs;
    Table t({"counter entries/home", "normalized (" + app + ")",
             "mig+rep per node"});
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const RunResult& r = results[i + 1];
      t.add_row()
          .cell(entries[i] == 0 ? std::string("unlimited")
                                : std::to_string(entries[i]))
          .cell(r.normalized_to(results[0]), 3)
          .cell(r.stats.migrations_per_node() + r.stats.replications_per_node(),
                1);
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  if (!opt.json_path.empty()) {
    // One record per cell of each sweep, tagged with the sweep's name.
    std::vector<Record> records;
    auto add = [&](const char* sweep, const std::vector<std::string>& names,
                   const std::vector<RunResult>& runs,
                   const std::vector<std::string>& sweep_apps) {
      for (Record& r : records_of(
               sweep_apps, baseline_columns(names, runs, sweep_apps.size()))) {
        r.fields.push_back({"sweep", sweep});
        records.push_back(std::move(r));
      }
    };
    add("rnuma_threshold", rnuma_names, rnuma_runs, apps);
    add("migrep_threshold", migrep_names, migrep_runs, apps);
    add("migrep_counter_cache_pages", counter_names, counter_runs, {apps[0]});
    write_json(opt.json_path, "ablation_thresholds", records,
               opt.resolved_jobs());
  }
  return 0;
}
