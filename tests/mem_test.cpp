// Unit tests: L1 cache (MOESI states, miss classification), resources.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "mem/l1_cache.hpp"
#include "mem/resource.hpp"

namespace dsm {
namespace {

TEST(Resource, UnloadedReservationStartsImmediately) {
  Resource r;
  EXPECT_EQ(r.reserve(100, 10), 100u);
  EXPECT_EQ(r.busy_until(), 110u);
}

TEST(Resource, ContendedReservationQueues) {
  Resource r;
  r.reserve(100, 10);
  EXPECT_EQ(r.reserve(105, 10), 110u);  // waits for the first
  EXPECT_EQ(r.reserve(200, 10), 200u);  // idle gap: no wait
  EXPECT_EQ(r.total_busy(), 30u);
  EXPECT_EQ(r.reservations(), 3u);
}

TEST(Resource, OccupyConsumesBandwidthWithoutBlockingCaller) {
  Resource r;
  r.occupy(100, 50);
  // A later transaction sees the occupancy.
  EXPECT_EQ(r.reserve(120, 10), 150u);
}

TEST(Resource, Reset) {
  Resource r;
  r.reserve(10, 10);
  r.reset();
  EXPECT_EQ(r.busy_until(), 0u);
  EXPECT_EQ(r.total_busy(), 0u);
}

TEST(L1Cache, MissThenInstallHits) {
  L1Cache c(16 * 1024);
  EXPECT_EQ(c.n_sets(), 256u);
  EXPECT_EQ(c.probe(42), nullptr);
  c.install(42, L1State::kS);
  ASSERT_NE(c.probe(42), nullptr);
  EXPECT_EQ(c.probe(42)->state, L1State::kS);
}

TEST(L1Cache, DirectMappedConflictEvicts) {
  L1Cache c(16 * 1024);
  c.install(1, L1State::kS);
  const Addr conflicting = 1 + 256;  // same set
  auto v = c.install(conflicting, L1State::kS);
  EXPECT_TRUE(v.valid);
  EXPECT_EQ(v.blk, 1u);
  EXPECT_EQ(c.probe(1), nullptr);
  ASSERT_NE(c.probe(conflicting), nullptr);
}

TEST(L1Cache, VictimCarriesState) {
  L1Cache c(16 * 1024);
  c.install(7, L1State::kM);
  auto v = c.install(7 + 256, L1State::kS);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.state, L1State::kM);
}

TEST(L1Cache, ReinstallSameBlockNoVictim) {
  L1Cache c(16 * 1024);
  c.install(7, L1State::kS);
  auto v = c.install(7, L1State::kM);
  EXPECT_FALSE(v.valid);
  EXPECT_EQ(c.probe(7)->state, L1State::kM);
}

TEST(L1Cache, ColdMissClassification) {
  L1Cache c(16 * 1024);
  EXPECT_EQ(c.classify_miss(100), MissClass::kCold);
  // Re-classifying without any event: default capacity (seen before).
  EXPECT_EQ(c.classify_miss(100), MissClass::kCapacity);
}

TEST(L1Cache, CoherenceMissClassification) {
  L1Cache c(16 * 1024);
  c.classify_miss(5);
  c.install(5, L1State::kS);
  c.invalidate(5, MissClass::kCoherence);
  EXPECT_EQ(c.probe(5), nullptr);
  EXPECT_EQ(c.classify_miss(5), MissClass::kCoherence);
}

TEST(L1Cache, CapacityMissClassificationAfterEviction) {
  L1Cache c(16 * 1024);
  c.classify_miss(5);
  c.install(5, L1State::kS);
  c.install(5 + 256, L1State::kS);  // evicts 5
  EXPECT_EQ(c.classify_miss(5), MissClass::kCapacity);
}

TEST(L1Cache, InclusionInvalidateWithCapacityReason) {
  L1Cache c(16 * 1024);
  c.classify_miss(9);
  c.install(9, L1State::kS);
  c.invalidate(9, MissClass::kCapacity);
  EXPECT_EQ(c.classify_miss(9), MissClass::kCapacity);
}

// hit() is the one definition of an L1 hit: a read of any valid line,
// a write to an E or M line (E becomes M); a write to S or O needs an
// upgrade and a miss needs a fill, and both leave the line untouched.
TEST(L1Cache, HitReadsValidLinesAndWritesExclusiveOnes) {
  L1Cache c(16 * 1024);
  for (L1State s : {L1State::kS, L1State::kE, L1State::kO, L1State::kM}) {
    c.install(3, s);
    EXPECT_TRUE(c.hit(3, /*write=*/false)) << to_string(s);
    EXPECT_EQ(c.probe(3)->state, s) << to_string(s);
  }
  for (L1State s : {L1State::kE, L1State::kM}) {
    c.install(3, s);
    EXPECT_TRUE(c.hit(3, /*write=*/true)) << to_string(s);
    EXPECT_EQ(c.probe(3)->state, L1State::kM) << to_string(s);
  }
  for (L1State s : {L1State::kS, L1State::kO}) {
    c.install(3, s);
    EXPECT_FALSE(c.hit(3, /*write=*/true)) << to_string(s);
    EXPECT_EQ(c.probe(3)->state, s) << to_string(s);
  }
}

TEST(L1Cache, HitMissesAbsentAndInvalidatedBlocks) {
  L1Cache c(16 * 1024);
  EXPECT_FALSE(c.hit(3, false));
  EXPECT_FALSE(c.hit(3, true));
  c.install(3, L1State::kM);
  EXPECT_FALSE(c.hit(3 + c.n_sets(), false));  // same set, other tag
  EXPECT_FALSE(c.hit(3 + c.n_sets(), true));
  EXPECT_EQ(c.probe(3)->state, L1State::kM);
  c.invalidate(3);
  EXPECT_FALSE(c.hit(3, false));
  EXPECT_FALSE(c.hit(3, true));
  EXPECT_EQ(c.probe(3), nullptr);
}

TEST(L1Cache, StateHelpers) {
  EXPECT_TRUE(l1_dirty(L1State::kM));
  EXPECT_TRUE(l1_dirty(L1State::kO));
  EXPECT_FALSE(l1_dirty(L1State::kE));
  EXPECT_FALSE(l1_dirty(L1State::kS));
  EXPECT_TRUE(l1_writable(L1State::kM));
  EXPECT_TRUE(l1_writable(L1State::kE));
  EXPECT_FALSE(l1_writable(L1State::kO));
  EXPECT_FALSE(l1_valid(L1State::kI));
}

// Property sweep: a straight-line write sweep of N distinct blocks in a
// direct-mapped cache leaves exactly min(N, sets) resident and every
// evicted block classified capacity.
class L1SweepTest : public ::testing::TestWithParam<int> {};

TEST_P(L1SweepTest, SweepLeavesResidueAndCapacityHistory) {
  const int n = GetParam();
  L1Cache c(16 * 1024);
  for (int i = 0; i < n; ++i) {
    c.classify_miss(Addr(i));
    c.install(Addr(i), L1State::kM);
  }
  int resident = 0;
  for (int i = 0; i < n; ++i)
    if (c.probe(Addr(i))) resident++;
  EXPECT_EQ(resident, std::min<int>(n, 256));
  if (n > 256) {
    // The first block was evicted by i + 256.
    EXPECT_EQ(c.classify_miss(0), MissClass::kCapacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, L1SweepTest,
                         ::testing::Values(1, 17, 255, 256, 257, 1024, 5000));

// Reference model of the miss history as an unbounded per-block map: a
// block is absent until its first classification, eviction or
// invalidation; classification inserts capacity on first touch and
// otherwise returns the stored class without consuming it.
class L1Model {
 public:
  explicit L1Model(std::uint32_t sets) : lines_(sets) {}

  MissClass classify(Addr blk) {
    auto [it, fresh] = next_.try_emplace(blk, MissClass::kCapacity);
    return fresh ? MissClass::kCold : it->second;
  }
  L1Cache::Victim install(Addr blk, L1State st) {
    L1Cache::Line& ln = lines_[blk % lines_.size()];
    L1Cache::Victim v;
    if (ln.state != L1State::kI && ln.blk != blk) {
      v = {true, ln.blk, ln.state};
      next_[ln.blk] = MissClass::kCapacity;
    }
    ln = {blk, st};
    return v;
  }
  void invalidate(Addr blk, MissClass reason) {
    L1Cache::Line& ln = lines_[blk % lines_.size()];
    if (ln.state == L1State::kI || ln.blk != blk) return;
    ln.state = L1State::kI;
    next_[blk] = reason;
  }

 private:
  std::vector<L1Cache::Line> lines_;
  std::unordered_map<Addr, MissClass> next_;
};

// Seeded differential test of the 2-bit paged history against the
// model. The block pool straddles history-page boundaries (the last and
// first blocks of adjacent pages), covers the start, middle and random
// offsets of several pages, reaches past 2^40, and is dense enough in a
// 16-set cache that evictions and invalidations are common.
TEST(L1Cache, MissHistoryMatchesUnboundedMapModel) {
  constexpr std::uint64_t kBytes = 16 * kBlockBytes;  // 16 sets
  L1Cache c(kBytes);
  L1Model m(16);
  const Addr page = L1Cache::kHistoryBlocks;
  Rng rng(0x11CAC4Eu);
  std::vector<Addr> pool;
  for (Addr base : {Addr(0), page, 7 * page, Addr(1) << 40,
                    (Addr(1) << 40) + page, (Addr(1) << 52) + 3 * page}) {
    for (Addr d = 0; d < 24; ++d) {
      pool.push_back(base + d);
      pool.push_back(base + page / 2 + d);
      if (base >= 24) pool.push_back(base - 1 - d);
    }
    for (int k = 0; k < 16; ++k) pool.push_back(base + rng.next_below(page));
  }
  const L1State states[] = {L1State::kS, L1State::kE, L1State::kO,
                            L1State::kM};
  for (int i = 0; i < 200'000; ++i) {
    const Addr blk = pool[rng.next_below(pool.size())];
    switch (rng.next_below(4)) {
      case 0:
        ASSERT_EQ(c.classify_miss(blk), m.classify(blk)) << "op " << i;
        break;
      case 1: {
        const L1State st = states[rng.next_below(4)];
        const L1Cache::Victim got = c.install(blk, st);
        const L1Cache::Victim want = m.install(blk, st);
        ASSERT_EQ(got.valid, want.valid) << "op " << i;
        if (want.valid) {
          ASSERT_EQ(got.blk, want.blk) << "op " << i;
        }
        break;
      }
      default: {
        const MissClass why = rng.next_below(2) ? MissClass::kCoherence
                                                : MissClass::kCapacity;
        c.invalidate(blk, why);
        m.invalidate(blk, why);
        break;
      }
    }
  }
  for (Addr blk : pool) {
    ASSERT_EQ(c.classify_miss(blk), m.classify(blk)) << blk;
  }
}

}  // namespace
}  // namespace dsm
