// Table 3: baseline system cost assumptions — printed live from the
// TimingConfig actually used by every simulation, with the calibration
// sums (local miss = 104 cycles, remote clean miss = 418 cycles) and
// the slow / long-latency variants of Sections 6.2-6.3.
#include <cstdio>

#include "bench_common.hpp"

using namespace dsm;

namespace {
void print_timing(const char* title, const TimingConfig& t) {
  std::printf("--- %s ---\n", title);
  Table tab({"operation", "cost (cycles)"});
  tab.add_row().cell(std::string("network latency (per hop)")).cell(t.net_latency);
  tab.add_row().cell(std::string("local miss latency (unloaded)")).cell(t.local_miss_total());
  tab.add_row().cell(std::string("round-trip remote miss (unloaded)")).cell(t.remote_clean_miss_total());
  tab.add_row().cell(std::string("soft trap")).cell(t.soft_trap);
  tab.add_row().cell(std::string("TLB shootdown")).cell(t.tlb_shootdown);
  char range[64];
  std::snprintf(range, sizeof range, "%llu~%llu",
                (unsigned long long)t.page_op_cost(0),
                (unsigned long long)t.page_op_cost(kBlocksPerPage));
  tab.add_row().cell(std::string("alloc/replace or R-NUMA relocation")).cell(std::string(range));
  std::snprintf(range, sizeof range, "%llu~%llu",
                (unsigned long long)(t.page_op_cost(0)),
                (unsigned long long)(t.page_op_cost(kBlocksPerPage)));
  tab.add_row().cell(std::string("page invalidation + gathering")).cell(std::string(range));
  std::snprintf(range, sizeof range, "%llu~%llu",
                (unsigned long long)t.page_copy_cost(0),
                (unsigned long long)t.page_copy_cost(kBlocksPerPage));
  tab.add_row().cell(std::string("page copying")).cell(std::string(range));
  tab.add_row().cell(std::string("MigRep threshold (misses)")).cell(std::uint64_t(t.migrep_threshold));
  tab.add_row().cell(std::string("MigRep reset interval (misses)")).cell(t.migrep_reset_interval);
  tab.add_row().cell(std::string("R-NUMA switch threshold (refetches)")).cell(std::uint64_t(t.rnuma_threshold));
  std::printf("%s\n", tab.to_string().c_str());
}
}  // namespace

int main(int argc, char** argv) {
  bench::parse(argc, argv, {});  // a fixed table: no flag changes it
  std::printf("=== Table 3: baseline system assumptions (600 MHz CPU cycles) ===\n\n");
  print_timing("base (fast hardware page-op support)", TimingConfig::fast_page_ops());
  print_timing("slow page operations (Section 6.2)", TimingConfig::slow_page_ops());
  print_timing("long network latency, remote:local = 16 (Section 6.3)",
               TimingConfig::long_latency());

  SystemConfig cfg = SystemConfig::base(SystemKind::kRNuma);
  std::printf(
      "machine: %u nodes x %u CPUs, %llu-KByte direct-mapped L1s,\n"
      "%llu-KByte block cache/node (inclusive), %llu-KByte S-COMA page "
      "cache/node (%llu frames)\n",
      cfg.nodes, cfg.cpus_per_node,
      (unsigned long long)cfg.l1_bytes / 1024,
      (unsigned long long)cfg.block_cache_bytes / 1024,
      (unsigned long long)cfg.page_cache_bytes / 1024,
      (unsigned long long)cfg.page_cache_pages());
  return 0;
}
