// AddrMap unit + differential tests.
//
// The open-addressing rewrite of the simulator's per-address state
// tables must behave exactly like the node-based maps it replaced, so
// the core test drives AddrMap against a std::unordered_map reference
// model with ~1M seeded-random mixed operations (insert / erase /
// probe / iterate). Backward-shift deletion is the subtle part — the
// dense-cluster tests target it directly.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/addr_map.hpp"
#include "common/rng.hpp"

namespace dsm {
namespace {

TEST(AddrMap, InsertFindErase) {
  AddrMap<int> m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(42), nullptr);
  m[42] = 7;
  ASSERT_NE(m.find(42), nullptr);
  EXPECT_EQ(*m.find(42), 7);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.erase(42));
  EXPECT_FALSE(m.erase(42));
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_EQ(m.size(), 0u);
}

TEST(AddrMap, RecycledSlotStartsFresh) {
  AddrMap<int> m;
  m[1] = 99;
  m.erase(1);
  // A later insert reuses the freed slot; the value must not leak.
  EXPECT_EQ(m[2], 0);
}

TEST(AddrMap, ReferencesStableAcrossInsertsAndForeignErases) {
  AddrMap<std::uint64_t> m;
  m[7] = 77;
  std::uint64_t* p = m.find(7);
  ASSERT_NE(p, nullptr);
  // Grow the table well past several rehashes and erase other keys.
  for (Addr k = 100; k < 5000; ++k) m[k] = k;
  for (Addr k = 100; k < 3000; k += 2) m.erase(k);
  EXPECT_EQ(m.find(7), p);  // chunk-stable: the address never moved
  EXPECT_EQ(*p, 77u);
}

TEST(AddrMap, SortedIteration) {
  AddrMap<int> m;
  // Insert in a scrambled order; for_each must visit sorted by key.
  const Addr keys[] = {900, 3, 512, 77, 4096, 1, 2048, 15};
  for (Addr k : keys) m[k] = int(k);
  std::vector<Addr> visited;
  m.for_each([&](Addr k, int& v) {
    EXPECT_EQ(v, int(k));
    visited.push_back(k);
  });
  ASSERT_EQ(visited.size(), 8u);
  for (std::size_t i = 1; i < visited.size(); ++i)
    EXPECT_LT(visited[i - 1], visited[i]);
}

// Dense key cluster + interior erase: backward-shift deletion must not
// strand entries whose probe path crossed the hole.
TEST(AddrMap, BackwardShiftDenseCluster) {
  AddrMap<int> m;
  constexpr Addr kN = 512;
  for (Addr k = 0; k < kN; ++k) m[k] = int(k);
  // Erase every third key, then verify every survivor is reachable.
  for (Addr k = 0; k < kN; k += 3) m.erase(k);
  for (Addr k = 0; k < kN; ++k) {
    if (k % 3 == 0) {
      EXPECT_EQ(m.find(k), nullptr) << k;
    } else {
      ASSERT_NE(m.find(k), nullptr) << k;
      EXPECT_EQ(*m.find(k), int(k)) << k;
    }
  }
}

// The randomized differential test: ~1M mixed operations against a
// std::unordered_map reference model, seeded RNG (bit-reproducible).
TEST(AddrMap, DifferentialVsUnorderedMap) {
  AddrMap<std::uint64_t> m;
  std::unordered_map<Addr, std::uint64_t> ref;
  Rng rng(0xD1FFu);

  // Skewed key space: a dense low range (page-table-like) plus sparse
  // high keys (directory blocks of scattered pages).
  auto pick_key = [&]() -> Addr {
    if (rng.next_below(4) != 0) return rng.next_below(1 << 12);
    return (rng.next_below(1 << 12) << 20) | rng.next_below(64);
  };

  constexpr int kOps = 1'000'000;
  for (int i = 0; i < kOps; ++i) {
    const Addr k = pick_key();
    switch (rng.next_below(10)) {
      case 0:
      case 1: {  // erase
        EXPECT_EQ(m.erase(k), ref.erase(k) == 1) << "op " << i;
        break;
      }
      case 2:
      case 3:
      case 4: {  // find-or-insert + mutate
        std::uint64_t& v = m[k];
        std::uint64_t& rv = ref[k];
        EXPECT_EQ(v, rv) << "op " << i;
        v += i;
        rv += i;
        break;
      }
      default: {  // probe
        std::uint64_t* v = m.find(k);
        auto it = ref.find(k);
        if (it == ref.end()) {
          EXPECT_EQ(v, nullptr) << "op " << i;
        } else {
          ASSERT_NE(v, nullptr) << "op " << i;
          EXPECT_EQ(*v, it->second) << "op " << i;
        }
        break;
      }
    }
    // Periodic full sweep: size + sorted order + exact content.
    if (i % 100'000 == 0) {
      ASSERT_EQ(m.size(), ref.size()) << "op " << i;
      Addr prev = 0;
      bool first = true;
      std::size_t seen = 0;
      m.for_each([&](Addr key, std::uint64_t& val) {
        if (!first) {
          EXPECT_LT(prev, key);
        }
        prev = key;
        first = false;
        seen++;
        auto it = ref.find(key);
        ASSERT_NE(it, ref.end()) << "stray key " << key;
        EXPECT_EQ(val, it->second);
      });
      EXPECT_EQ(seen, ref.size());
    }
  }
  EXPECT_EQ(m.size(), ref.size());
}

// A std::vector<CounterCache> moves its tables when it grows: the
// moved-to map must find every key at its old value address, and the
// moved-from map must read empty (its memo included).
TEST(AddrMap, MoveKeepsEntriesAndValueAddresses) {
  AddrMap<std::uint64_t> m;
  std::vector<std::pair<Addr, std::uint64_t*>> addrs;
  for (Addr k = 0; k < 1000; ++k) {
    const Addr key = k * 7919;
    m[key] = key + 1;
    addrs.emplace_back(key, m.find(key));
  }
  m.erase(addrs[10].first);  // a recycled slot and a memo survive too
  addrs.erase(addrs.begin() + 10);
  m[~Addr(0) - 1] = 5;
  addrs.emplace_back(~Addr(0) - 1, m.find(~Addr(0) - 1));

  AddrMap<std::uint64_t> moved(std::move(m));
  EXPECT_EQ(moved.size(), addrs.size());
  for (const auto& [key, val] : addrs) {
    EXPECT_EQ(moved.find(key), val) << key;
    EXPECT_EQ(&moved[key], val) << key;
  }
  EXPECT_EQ(*moved.find(~Addr(0) - 1), 5u);
  EXPECT_EQ(*moved.find(7919), 7920u);

  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  for (const auto& [key, val] : addrs) EXPECT_EQ(m.find(key), nullptr) << key;
  std::size_t visited = 0;
  m.for_each([&](Addr, std::uint64_t&) { visited++; });
  EXPECT_EQ(visited, 0u);
  EXPECT_FALSE(m.erase(7919));
  // The moved-from map is usable again.
  m[3] = 4;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.find(3), 4u);
  EXPECT_EQ(moved.find(3), nullptr);
}

}  // namespace
}  // namespace dsm
