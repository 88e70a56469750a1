// Unit tests: configuration calibration, stats, RNG, tables, types.
#include <gtest/gtest.h>

#include <set>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace dsm {
namespace {

TEST(Types, BlockAndPageGeometry) {
  EXPECT_EQ(kBlockBytes, 64u);
  EXPECT_EQ(kPageBytes, 4096u);
  EXPECT_EQ(kBlocksPerPage, 64u);
  EXPECT_EQ(block_of(0x1000), 0x1000u >> 6);
  EXPECT_EQ(page_of(0x1000), 1u);
  EXPECT_EQ(block_base(0x1234), 0x1200u);
  EXPECT_EQ(page_base(0x1234), 0x1000u);
  EXPECT_EQ(block_index_in_page(0x1040), 1u);
  EXPECT_EQ(block_addr_of_page_block(2, 3), (2ull << 12) | (3ull << 6));
}

TEST(TimingConfig, LocalMissCalibratedTo104) {
  TimingConfig t;
  EXPECT_EQ(t.local_miss_total(), 104u);
}

TEST(TimingConfig, RemoteCleanMissCalibratedTo418) {
  TimingConfig t;
  EXPECT_EQ(t.remote_clean_miss_total(), 418u);
}

TEST(TimingConfig, RemoteToLocalRatioIsFourInBase) {
  TimingConfig t;
  const double ratio =
      double(t.remote_clean_miss_total()) / double(t.local_miss_total());
  EXPECT_NEAR(ratio, 4.0, 0.05);
}

TEST(TimingConfig, PageOpCostsSpanTable3Range) {
  TimingConfig t;
  // Table 3: allocation/replacement/relocation 3000~11500.
  EXPECT_EQ(t.page_op_cost(0), 3000u);
  EXPECT_NEAR(double(t.page_op_cost(kBlocksPerPage)), 11500.0, 600.0);
  // Table 3: page copying 8000~21800.
  EXPECT_EQ(t.page_copy_cost(0), 8000u);
  EXPECT_NEAR(double(t.page_copy_cost(kBlocksPerPage)), 21800.0, 300.0);
}

TEST(TimingConfig, SlowVariantMatchesSection62) {
  TimingConfig s = TimingConfig::slow_page_ops();
  EXPECT_EQ(s.soft_trap, 30000u);       // 50 us at 600 MHz
  EXPECT_EQ(s.tlb_shootdown, 3000u);    // 5 us
  EXPECT_EQ(s.migrep_threshold, 1200u);
  EXPECT_EQ(s.rnuma_threshold, 64u);
  TimingConfig f = TimingConfig::fast_page_ops();
  EXPECT_EQ(s.page_copy_fixed, f.page_copy_fixed + 6000u);
}

TEST(TimingConfig, LongLatencyVariantReachesRatio16) {
  TimingConfig t = TimingConfig::long_latency();
  const double ratio =
      double(t.remote_clean_miss_total()) / double(t.local_miss_total());
  EXPECT_NEAR(ratio, 16.0, 0.05);
  EXPECT_GT(t.net_latency, TimingConfig{}.net_latency);
}

TEST(SystemConfig, BaseMachineShapeMatchesPaper) {
  SystemConfig c = SystemConfig::base(SystemKind::kCcNuma);
  EXPECT_EQ(c.nodes, 8u);
  EXPECT_EQ(c.cpus_per_node, 4u);
  EXPECT_EQ(c.total_cpus(), 32u);
  EXPECT_EQ(c.l1_bytes, 16u * 1024);
  EXPECT_EQ(c.block_cache_bytes, 64u * 1024);
  EXPECT_EQ(c.page_cache_bytes, 2400u * 1024);
  EXPECT_EQ(c.page_cache_pages(), 600u);
}

TEST(SystemConfig, RNumaMigRepGetsRelocationDelay) {
  SystemConfig c = SystemConfig::base(SystemKind::kRNumaMigRep);
  EXPECT_EQ(c.timing.rnuma_relocation_delay_misses, 32000u);
  SystemConfig plain = SystemConfig::base(SystemKind::kRNuma);
  EXPECT_EQ(plain.timing.rnuma_relocation_delay_misses, 0u);
}

TEST(SystemKind, Predicates) {
  EXPECT_TRUE(uses_page_cache(SystemKind::kRNuma));
  EXPECT_TRUE(uses_page_cache(SystemKind::kRNumaInf));
  EXPECT_TRUE(uses_page_cache(SystemKind::kRNumaMigRep));
  EXPECT_FALSE(uses_page_cache(SystemKind::kCcNuma));
}

TEST(SystemKind, NamesAreUnique) {
  std::set<std::string> names;
  for (auto k : {SystemKind::kCcNuma, SystemKind::kPerfectCcNuma,
                 SystemKind::kCcNumaRep, SystemKind::kCcNumaMig,
                 SystemKind::kCcNumaMigRep, SystemKind::kRNuma,
                 SystemKind::kRNumaInf, SystemKind::kRNumaMigRep})
    names.insert(to_string(k));
  EXPECT_EQ(names.size(), 8u);
}

TEST(Stats, MissBreakdownRecordsAndAggregates) {
  MissBreakdown b;
  b.record(MissClass::kCold);
  b.record(MissClass::kCapacity);
  b.record(MissClass::kCapacity);
  b.record(MissClass::kCoherence);
  EXPECT_EQ(b.total(), 4u);
  EXPECT_EQ(b.capacity_conflict(), 2u);
  MissBreakdown c;
  c.record(MissClass::kCold);
  c += b;
  EXPECT_EQ(c.total(), 5u);
}

TEST(Stats, PerNodeAverages) {
  Stats s(4);
  s.node[0].remote_misses.record(MissClass::kCapacity);
  s.node[1].remote_misses.record(MissClass::kCold);
  s.node[2].page_migrations = 2;
  s.node[3].page_replications = 4;
  s.node[0].page_relocations = 8;
  EXPECT_DOUBLE_EQ(s.remote_misses_per_node(), 0.5);
  EXPECT_DOUBLE_EQ(s.capacity_misses_per_node(), 0.25);
  EXPECT_DOUBLE_EQ(s.migrations_per_node(), 0.5);
  EXPECT_DOUBLE_EQ(s.replications_per_node(), 1.0);
  EXPECT_DOUBLE_EQ(s.relocations_per_node(), 2.0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) same++;
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedValuesInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng r(11);
  int buckets[10] = {0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) buckets[r.next_below(10)]++;
  for (int b : buckets) EXPECT_NEAR(double(b), n / 10.0, n / 10.0 * 0.15);
}

TEST(RngForStream, StreamsAreDeterministicAndDecorrelated) {
  Rng a = Rng::for_stream(7, 0);
  Rng b = Rng::for_stream(7, 0);
  EXPECT_EQ(a.next_u64(), b.next_u64());  // same (seed, stream) replays
  Rng c = Rng::for_stream(7, 1);
  Rng d = Rng::for_stream(8, 0);
  const std::uint64_t va = a.next_u64();
  EXPECT_NE(va, c.next_u64());  // neighboring stream differs
  EXPECT_NE(va, d.next_u64());  // neighboring seed differs
}

TEST(Table, RendersAlignedColumns) {
  Table t({"app", "value"});
  t.add_row().cell(std::string("lu")).cell(1.25, 2);
  t.add_row().cell(std::string("radix")).cell(std::uint64_t(42));
  const std::string out = t.to_string();
  EXPECT_NE(out.find("app"), std::string::npos);
  EXPECT_NE(out.find("1.25"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("radix"), std::string::npos);
}

TEST(Table, SeriesRendering) {
  std::vector<Series> series{{"A", {1.0, 2.0}}, {"B", {3.0}}};
  const std::string out = render_series({"x", "y"}, series, 1);
  EXPECT_NE(out.find("A"), std::string::npos);
  EXPECT_NE(out.find("3.0"), std::string::npos);
  EXPECT_NE(out.find("-"), std::string::npos);  // missing value placeholder
}

}  // namespace
}  // namespace dsm
