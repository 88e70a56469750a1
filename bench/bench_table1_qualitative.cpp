// Table 1: the qualitative opportunity/overhead matrix, *measured*.
//
// The paper's Table 1 is an analysis; here each row is derived from
// simulations of the three synthetic sharing patterns: does the
// mechanism fire, does it reduce misses, and at what page-operation
// frequency. Thresholds are scaled to the micro-workloads' traffic as
// in tests/integration_test.cpp.
#include <cstdio>

#include "bench_common.hpp"

using namespace dsm;
using namespace dsm::bench;

namespace {
RunSpec tuned(SystemKind kind, const std::string& app) {
  RunSpec s = paper_spec(kind, app, Scale::kDefault);
  s.system.timing.migrep_threshold = 150;
  s.system.timing.migrep_reset_interval = 3000;
  return s;
}
const char* yn(bool b) { return b ? "yes" : "no"; }
}  // namespace

int main(int argc, char** argv) {
  parse(argc, argv, {});  // a fixed table: no flag changes it
  std::printf(
      "=== Table 1 (measured): miss-reduction opportunity by sharing "
      "pattern ===\n\n");
  const std::vector<std::string> patterns = {"read_shared", "migratory",
                                             "producer_consumer"};
  Table t({"pattern", "Rep fires", "Rep helps", "Mig fires", "Mig helps",
           "R-NUMA helps", "page ops (Rep/Mig/Reloc per node)"});
  for (const auto& app : patterns) {
    auto cc = run_one(tuned(SystemKind::kCcNuma, app));
    auto rep = run_one(tuned(SystemKind::kCcNumaRep, app));
    auto mig = run_one(tuned(SystemKind::kCcNumaMig, app));
    auto rn = run_one(tuned(SystemKind::kRNuma, app));
    const auto cc_misses = cc.stats.remote_misses_total().total();
    char ops[64];
    std::snprintf(ops, sizeof ops, "%.0f / %.0f / %.0f",
                  rep.stats.replications_per_node(),
                  mig.stats.migrations_per_node(),
                  rn.stats.relocations_per_node());
    t.add_row()
        .cell(app)
        .cell(std::string(yn(rep.stats.page_replications_total() > 0)))
        .cell(std::string(
            yn(rep.stats.remote_misses_total().total() < cc_misses)))
        .cell(std::string(yn(mig.stats.page_migrations_total() > 0)))
        .cell(std::string(
            yn(mig.stats.remote_misses_total().total() < cc_misses)))
        .cell(std::string(yn(rn.cycles < cc.cycles)))
        .cell(std::string(ops));
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "paper's analytical rows: replication wins on read-only sharing,\n"
      "migration on low-degree read-write sharing, neither on high-degree\n"
      "read-write sharing; R-NUMA covers all three at low per-op cost but\n"
      "much higher op frequency.\n");
  return 0;
}
