// Unit tests: block cache, S-COMA page cache, directory, node history,
// page table.
// (Interconnect fabric timing and accounting live in fabric_test.cpp.)
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "dsm/block_cache.hpp"
#include "dsm/cluster.hpp"
#include "dsm/directory.hpp"
#include "dsm/page_cache.hpp"
#include "dsm/page_table.hpp"

namespace dsm {
namespace {

// Directory and PageTable tests run under the default 8-node full-map
// layout unless they exercise a wider machine explicitly.
NodeSetLayout layout8() {
  return NodeSetLayout::make(8, DirScheme::kFullMap);
}

constexpr BlockCache::Shape kDirect = BlockCache::Shape::kDirectMapped;
constexpr BlockCache::Shape kInfinite = BlockCache::Shape::kInfinite;

TEST(BlockCache, InstallProbeInvalidate) {
  BlockCache bc(64 * 1024, kDirect);
  EXPECT_EQ(bc.probe(10), nullptr);
  bc.install(10, NodeState::kShared);
  ASSERT_NE(bc.probe(10), nullptr);
  EXPECT_EQ(bc.probe(10)->state, NodeState::kShared);
  bc.invalidate(10);
  EXPECT_EQ(bc.probe(10), nullptr);
  EXPECT_EQ(bc.occupancy(), 0u);
}

// 64 KB is 1024 sets, indexed by mask; 48 KB is 768 sets, indexed by
// modulo: there block 1 + 768 evicts block 1, and block 1 + 1024 (set
// 257) does not.
TEST(BlockCache, DirectMappedEviction) {
  for (const Addr sets : {Addr(1024), Addr(768)}) {
    SCOPED_TRACE(sets);
    BlockCache bc(sets * kBlockBytes, kDirect);
    bc.install(1, NodeState::kShared);
    if (sets != 1024) {
      EXPECT_FALSE(bc.install(1 + 1024, NodeState::kShared).valid);
      EXPECT_NE(bc.probe(1), nullptr);
    }
    auto v = bc.install(1 + sets, NodeState::kModified);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.blk, 1u);
    EXPECT_EQ(v.state, NodeState::kShared);
    EXPECT_EQ(bc.probe(1), nullptr);
    ASSERT_NE(bc.probe(1 + sets), nullptr);
    EXPECT_EQ(bc.probe(1 + sets)->state, NodeState::kModified);
  }
}

TEST(BlockCache, InfiniteNeverEvicts) {
  BlockCache bc(64, kInfinite);
  for (Addr b = 0; b < 100000; b += 7) {
    auto v = bc.install(b, NodeState::kShared);
    EXPECT_FALSE(v.valid);
  }
  EXPECT_NE(bc.probe(7 * 1000), nullptr);
}

TEST(BlockCache, ReuseInvalidFrame) {
  BlockCache bc(64 * 1024, kDirect);
  bc.install(5, NodeState::kShared);
  bc.invalidate(5);
  auto v = bc.install(5 + 1024, NodeState::kShared);
  EXPECT_FALSE(v.valid);  // took the invalid frame, no eviction
}

TEST(BlockCache, InfiniteCongruentAddressesStayBounded) {
  // Blocks congruent in every power-of-two set count (distinct high
  // bits only) must spill within the table instead of forcing endless
  // set doubling — memory tracks resident blocks, not address span.
  BlockCache bc(64, kInfinite);
  constexpr int kN = 64;  // far more than one home window holds
  for (int j = 0; j < kN; ++j) {
    auto v = bc.install(Addr(j) << 40, NodeState::kShared);
    EXPECT_FALSE(v.valid);
  }
  EXPECT_EQ(bc.occupancy(), std::uint64_t(kN));
  for (int j = 0; j < kN; ++j)
    EXPECT_NE(bc.probe(Addr(j) << 40), nullptr) << j;
  bc.invalidate(Addr(5) << 40);
  EXPECT_EQ(bc.probe(Addr(5) << 40), nullptr);
  bc.install(Addr(5) << 40, NodeState::kModified);
  ASSERT_NE(bc.probe(Addr(5) << 40), nullptr);
  EXPECT_EQ(bc.probe(Addr(5) << 40)->state, NodeState::kModified);
  EXPECT_EQ(bc.occupancy(), std::uint64_t(kN));
}

TEST(BlockCache, InfiniteGrowthPreservesContents) {
  // Push far past the initial set capacity: the growable infinite shape
  // must keep every block probeable across splits.
  BlockCache bc(64, kInfinite);
  constexpr Addr kBlocks = 100000;
  for (Addr b = 0; b < kBlocks; ++b) {
    auto v = bc.install(b, b % 3 ? NodeState::kShared : NodeState::kModified);
    EXPECT_FALSE(v.valid);
  }
  EXPECT_EQ(bc.occupancy(), kBlocks);
  for (Addr b = 0; b < kBlocks; b += 997) {
    const BlockCache::Entry* e = bc.probe(b);
    ASSERT_NE(e, nullptr) << b;
    EXPECT_EQ(e->state, b % 3 ? NodeState::kShared : NodeState::kModified);
  }
  // Invalidate + refill survives growth too.
  bc.invalidate(12345);
  EXPECT_EQ(bc.probe(12345), nullptr);
  bc.install(12345, NodeState::kShared);
  ASSERT_NE(bc.probe(12345), nullptr);
  EXPECT_EQ(bc.occupancy(), kBlocks);
}

// The infinite shape against a std::map reference on one seeded stream
// of installs, invalidates and probes. Half the blocks are congruent in
// every power of two (j << 40), the other half dense; at every step the
// probe result, the state, the victim (there is none) and occupancy()
// must agree with the map.
TEST(BlockCache, InfiniteMatchesAMapOnASeededStream) {
  BlockCache bc(64, kInfinite);
  std::map<Addr, NodeState> ref;
  Rng rng(0xB10Cu);
  auto pick_block = [&]() -> Addr {
    if (rng.next_below(2) == 0) return Addr(rng.next_below(512)) << 40;
    return rng.next_below(4096);
  };
  constexpr int kOps = 200'000;
  for (int i = 0; i < kOps; ++i) {
    const Addr blk = pick_block();
    switch (rng.next_below(4)) {
      case 0: {
        const NodeState st = rng.next_below(2) ? NodeState::kShared
                                               : NodeState::kModified;
        const BlockCache::Victim v = bc.install(blk, st);
        EXPECT_FALSE(v.valid) << "op " << i;
        ref[blk] = st;
        break;
      }
      case 1:
        bc.invalidate(blk);
        ref.erase(blk);
        break;
      default: {
        const BlockCache::Entry* e = bc.probe(blk);
        const auto it = ref.find(blk);
        if (it == ref.end()) {
          EXPECT_EQ(e, nullptr) << "op " << i;
        } else {
          ASSERT_NE(e, nullptr) << "op " << i;
          EXPECT_EQ(e->state, it->second) << "op " << i;
        }
        break;
      }
    }
    ASSERT_EQ(bc.occupancy(), ref.size()) << "op " << i;
  }
  for (const auto& [blk, st] : ref) {
    const BlockCache::Entry* e = bc.probe(blk);
    ASSERT_NE(e, nullptr) << blk;
    EXPECT_EQ(e->state, st) << blk;
  }
}

TEST(PageCache, AllocateFindRelease) {
  PageCache pc(2);
  EXPECT_TRUE(pc.has_free_frame());
  auto& f = pc.allocate(100);
  f.tag[3] = NodeState::kShared;
  f.valid_blocks = 1;
  ASSERT_NE(pc.find(100), nullptr);
  EXPECT_TRUE(pc.find(100)->has(3));
  EXPECT_FALSE(pc.find(100)->has(4));
  pc.release(100);
  EXPECT_EQ(pc.find(100), nullptr);
}

TEST(PageCache, CapacityAndVictimSelection) {
  PageCache pc(2);
  pc.allocate(1);
  pc.allocate(2);
  EXPECT_FALSE(pc.has_free_frame());
  pc.touch(1);  // 2 becomes LRU
  EXPECT_EQ(pc.pick_victim(), 2u);
  pc.touch(2);
  EXPECT_EQ(pc.pick_victim(), 1u);
}

TEST(PageCache, InfiniteCapacity) {
  PageCache pc(0);
  for (Addr p = 0; p < 10000; ++p) pc.allocate(p);
  EXPECT_TRUE(pc.has_free_frame());
  EXPECT_EQ(pc.frames_in_use(), 10000u);
}

TEST(Directory, EntryLifecycle) {
  const NodeSetLayout l = layout8();
  Directory d(l);
  EXPECT_EQ(d.find(9), nullptr);
  DirEntry& e = d.entry(9);
  e.state = DirState::kShared;
  e.add_sharer(3, l);
  e.add_sharer(5, l);
  EXPECT_TRUE(d.find(9)->is_sharer(3, l));
  EXPECT_FALSE(d.find(9)->is_sharer(4, l));
  EXPECT_EQ(d.find(9)->sharer_count(l), 2u);
  e.remove_sharer(3, l);
  EXPECT_EQ(d.find(9)->sharer_count(l), 1u);
  d.erase_page(0);  // blocks 0..63
  EXPECT_EQ(d.find(9), nullptr);
  EXPECT_EQ(d.size(), 0u);
}

TEST(Directory, GrantAndDropTransitions) {
  const NodeSetLayout l = layout8();
  DirEntry e;
  e.state = DirState::kShared;
  e.add_sharer(2, l);
  e.add_sharer(6, l);
  e.drop(2, l);  // one sharer left: still shared
  EXPECT_EQ(e.state, DirState::kShared);
  EXPECT_EQ(e.sharer_count(l), 1u);
  e.drop(6, l);  // last sharer gone
  EXPECT_EQ(e.state, DirState::kUncached);
  e.add_sharer(1, l);
  e.grant_exclusive(4);
  EXPECT_EQ(e.state, DirState::kExclusive);
  EXPECT_EQ(e.owner, 4u);
  EXPECT_EQ(e.sharer_count(l), 0u);
  e.drop(5, l);  // not the owner: unchanged
  EXPECT_EQ(e.owner, 4u);
  e.drop(4, l);
  EXPECT_EQ(e.state, DirState::kUncached);
  EXPECT_EQ(e.owner, kNoNode);
}

TEST(Directory, ErasePageDropsEveryEntryOfThePage) {
  Directory d(layout8());
  for (Addr b : {Addr(64), Addr(65), Addr(127), Addr(128)})
    d.entry(b).state = DirState::kShared;
  d.erase_page(1);  // blocks 64..127
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.find(65), nullptr);
  EXPECT_NE(d.find(128), nullptr);
  d.erase_page(1);  // already gone: no-op
  EXPECT_EQ(d.size(), 1u);
}

// Regression: sharer ids past bit 31 must not alias low nodes. The old
// raw-uint32 directory computed `1u << n` with n >= 32 (undefined; in
// practice node 33 aliased node 1). A 64-node full-map layout must keep
// the two distinct.
TEST(Directory, WideNodeIdsDoNotAliasLowNodes) {
  const NodeSetLayout l = NodeSetLayout::make(64, DirScheme::kFullMap);
  Directory d(l);
  DirEntry& e = d.entry(4);
  e.state = DirState::kShared;
  e.add_sharer(33, l);
  EXPECT_TRUE(e.is_sharer(33, l));
  EXPECT_FALSE(e.is_sharer(1, l));
  EXPECT_EQ(e.sharer_count(l), 1u);
  e.add_sharer(1, l);
  EXPECT_EQ(e.sharer_count(l), 2u);
  e.remove_sharer(33, l);
  EXPECT_FALSE(e.is_sharer(33, l));
  EXPECT_TRUE(e.is_sharer(1, l));
}

TEST(Directory, UsageCensusCountsSharersAndStorage) {
  const NodeSetLayout l = layout8();
  Directory d(l);
  DirEntry& a = d.entry(1);
  a.state = DirState::kShared;
  a.add_sharer(0, l);
  a.add_sharer(5, l);
  DirEntry& b = d.entry(2);
  b.state = DirState::kExclusive;
  b.owner = 3;
  const DirUsage u = d.usage();
  EXPECT_EQ(u.nodes, 8u);
  EXPECT_EQ(u.entries, 2u);
  EXPECT_EQ(u.shared_entries, 1u);
  EXPECT_EQ(u.coarse_entries, 0u);
  EXPECT_EQ(u.sharers_measured, 2u);
  EXPECT_EQ(u.sharer_bits_full_map, 16u);  // 2 entries x 8 nodes
  EXPECT_GT(u.sharer_bits_used, 0u);
}

TEST(PageTable, FirstTouchBinding) {
  PageTable pt(8, layout8());
  EXPECT_FALSE(pt.is_bound(7));
  pt.info(7).home = 3;
  EXPECT_TRUE(pt.is_bound(7));
  EXPECT_EQ(pt.find(7)->home, 3u);
}

// Report rows and coherence-check walks follow container iteration
// order; these pins keep it sorted-by-address on every stdlib.
TEST(PageTable, ForEachIsSortedByPage) {
  PageTable pt(8, layout8());
  for (Addr p : {Addr(77), Addr(3), Addr(4096), Addr(512), Addr(1)})
    pt.info(p).home = 0;
  std::vector<Addr> order;
  pt.for_each([&](Addr p, PageInfo&) { order.push_back(p); });
  EXPECT_EQ(order, (std::vector<Addr>{1, 3, 77, 512, 4096}));
}

TEST(Directory, ForEachIsSortedByBlock) {
  Directory d(layout8());
  for (Addr b : {Addr(900), Addr(2), Addr(64), Addr(100), Addr(33)})
    d.entry(b).state = DirState::kShared;
  d.erase_page(1);  // blocks 64..127
  std::vector<Addr> order;
  d.for_each([&](Addr b, DirEntry&) { order.push_back(b); });
  EXPECT_EQ(order, (std::vector<Addr>{2, 33, 900}));
}

bool same_entry(const DirEntry& a, const DirEntry& b, const NodeSetLayout& l) {
  if (a.state != b.state || a.owner != b.owner ||
      a.sharers.rep() != b.sharers.rep() ||
      a.sharers.count(l) != b.sharers.count(l))
    return false;
  for (NodeId n = 0; n < l.nodes; ++n)
    if (a.sharers.contains(n, l) != b.sharers.contains(n, l)) return false;
  return true;
}

// Seeded differential test of the page-grained directory against a
// block-keyed std::map: entry (with mutation), find, page erase and
// re-entry over blocks on both sides of page boundaries and past 2^40.
// size(), the for_each sequence and the usage() census must match
// throughout, and a held reference must survive other blocks' inserts
// and other pages' erases.
TEST(Directory, DifferentialVsBlockMap) {
  const NodeSetLayout l = NodeSetLayout::make(64, DirScheme::kLimitedPtr);
  Directory d(l);
  std::map<Addr, DirEntry> ref;
  std::vector<Addr> pool;
  for (Addr page : {Addr(0), Addr(1), Addr(2), Addr(77), Addr(1) << 34})
    for (unsigned i : {0u, 1u, 2u, 31u, 32u, 61u, 62u, 63u})
      pool.push_back(page * kBlocksPerPage + i);
  Rng rng(0xD1EC7u);

  const Addr pinned = pool[3];
  DirEntry* pinned_ref = &d.entry(pinned);
  ref[pinned];

  auto check_all = [&](int op) {
    ASSERT_EQ(d.size(), ref.size()) << "op " << op;
    auto it = ref.begin();
    d.for_each([&](Addr blk, DirEntry& e) {
      ASSERT_NE(it, ref.end()) << "op " << op;
      EXPECT_EQ(blk, it->first) << "op " << op;
      EXPECT_TRUE(same_entry(e, it->second, l)) << "op " << op;
      ++it;
    });
    EXPECT_EQ(it, ref.end()) << "op " << op;
    DirUsage want;
    want.nodes = l.nodes;
    for (const auto& [blk, e] : ref) {
      want.entries++;
      if (e.state == DirState::kShared) want.shared_entries++;
      if (e.sharers.rep() == NodeSet::Rep::kCoarse) want.coarse_entries++;
      want.sharers_measured += e.sharers.count(l);
      want.sharer_bits_used += e.sharers.storage_bits(l);
      want.sharer_bits_full_map += l.nodes;
    }
    const DirUsage got = d.usage();
    EXPECT_EQ(got.entries, want.entries) << "op " << op;
    EXPECT_EQ(got.shared_entries, want.shared_entries) << "op " << op;
    EXPECT_EQ(got.coarse_entries, want.coarse_entries) << "op " << op;
    EXPECT_EQ(got.sharers_measured, want.sharers_measured) << "op " << op;
    EXPECT_EQ(got.sharer_bits_used, want.sharer_bits_used) << "op " << op;
    EXPECT_EQ(got.sharer_bits_full_map, want.sharer_bits_full_map)
        << "op " << op;
  };

  for (int i = 0; i < 100'000; ++i) {
    const Addr blk = pool[rng.next_below(pool.size())];
    switch (rng.next_below(4)) {
      case 0: {  // find-or-insert, then mutate both sides alike
        DirEntry& e = d.entry(blk);
        DirEntry& r = ref[blk];
        ASSERT_TRUE(same_entry(e, r, l)) << "op " << i;
        const NodeId n = NodeId(rng.next_below(l.nodes));
        if (rng.next_below(3) == 0) {
          e.state = r.state = DirState::kExclusive;
          e.owner = r.owner = n;
          e.sharers.clear();
          r.sharers.clear();
        } else {
          e.state = r.state = DirState::kShared;
          e.owner = r.owner = kNoNode;
          e.add_sharer(n, l);
          r.add_sharer(n, l);
        }
        break;
      }
      case 1: {  // erase the block's page (the pinned page stays live)
        const Addr page = blk / kBlocksPerPage;
        if (page == pinned / kBlocksPerPage) break;
        d.erase_page(page);
        ref.erase(ref.lower_bound(page * kBlocksPerPage),
                  ref.lower_bound((page + 1) * kBlocksPerPage));
        break;
      }
      default: {  // probe
        const DirEntry* e = d.find(blk);
        auto it = ref.find(blk);
        ASSERT_EQ(e != nullptr, it != ref.end()) << "op " << i;
        if (e != nullptr) {
          ASSERT_TRUE(same_entry(*e, it->second, l)) << "op " << i;
        }
        break;
      }
    }
    ASSERT_EQ(d.find(pinned), pinned_ref) << "op " << i;
    if (i % 10'000 == 0) check_all(i);
  }
  check_all(-1);
  // Erasing every page empties the directory; re-entry starts fresh.
  for (Addr blk : pool) d.erase_page(blk / kBlocksPerPage);
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.entry(pool[0]).state, DirState::kUncached);
  EXPECT_TRUE(d.entry(pool[0]).sharers.empty());
}

// Node history: a direct-mapped table with full block tags. Blocks 1 and
// 1 + 2^16 share an index in the 2^16-entry table and evict each other;
// blocks that differ only at bit 57 share an index too, and must not
// alias (the packed tag keeps every bit of a 58-bit block number).
TEST(NodeHistory, ConflictsEvictAndHighTagsDoNotAlias) {
  static_assert(NodeHistory::kEntries == std::size_t(1) << 16);
  NodeHistory h;
  EXPECT_EQ(h.classify(0), MissClass::kCold);  // block 0 is not "empty"
  EXPECT_EQ(h.classify(0), MissClass::kCapacity);

  const Addr a = 1, b = 1 + (Addr(1) << 16);
  EXPECT_EQ(h.classify(a), MissClass::kCold);
  h.mark(a, MissClass::kCoherence);
  EXPECT_EQ(h.classify(a), MissClass::kCoherence);
  EXPECT_EQ(h.classify(b), MissClass::kCold);  // evicts a
  EXPECT_EQ(h.classify(a), MissClass::kCold);  // evicts b
  EXPECT_EQ(h.classify(b), MissClass::kCold);

  const Addr lo = 5, hi = (Addr(1) << 57) + 5, top = (Addr(1) << 58) - 1;
  h.mark(hi, MissClass::kCoherence);
  EXPECT_EQ(h.classify(hi), MissClass::kCoherence);
  EXPECT_EQ(h.classify(lo), MissClass::kCold);
  EXPECT_EQ(h.classify(hi), MissClass::kCold);
  h.mark(top, MissClass::kCapacity);
  EXPECT_EQ(h.classify(top), MissClass::kCapacity);
  EXPECT_EQ(h.classify(top >> 1), MissClass::kCold);
}

// The node history's first encoding, kept as the reference for the
// differential test below: one 8-byte word per index, the full block
// number shifted left by two over the MissClass plus one.
class FullTagHistory {
 public:
  MissClass classify(Addr blk) {
    std::uint64_t& e = table_[index(blk)];
    if (e == 0 || (e >> 2) != blk) {
      e = pack(blk, MissClass::kCapacity);
      return MissClass::kCold;
    }
    return MissClass((e & 3) - 1);
  }
  void mark(Addr blk, MissClass c) { table_[index(blk)] = pack(blk, c); }

  static std::size_t index(Addr blk) {
    const Addr h = blk ^ (blk >> 17) ^ (blk >> 31);
    return std::size_t(h) & (NodeHistory::kEntries - 1);
  }

 private:
  static std::uint64_t pack(Addr blk, MissClass c) {
    return (blk << 2) | (std::uint64_t(c) + 1);
  }
  std::vector<std::uint64_t> table_ =
      std::vector<std::uint64_t>(NodeHistory::kEntries);
};

// The block whose bits above 16 are `high` and whose index is `idx`:
// index() xors the low 16 bits with high >> 1 and high >> 15, so the
// low bits follow from the two.
Addr block_at_index(Addr high, std::size_t idx) {
  return (high << 16) | ((idx ^ (high >> 1) ^ (high >> 15)) & 0xFFFF);
}

// NodeHistory against the full-tag reference, over a seeded stream of
// classify/mark calls. The pool crowds a few indices with blocks below
// 2^16, at 2^30 - 1 and 2^30 (the last 14-bit tag and the first wide
// block), up to 2^58 - 1, narrow and wide blocks sharing an index, and
// wide blocks that differ only at bit 57, so entries are evicted,
// refilled and swapped between the 2-byte and the wide form; every
// classify must return the reference's class.
TEST(NodeHistory, MatchesTheFullTagTableOnASeededStream) {
  const Addr kNarrowTop = (Addr(1) << 30) - 1, kWideLow = Addr(1) << 30;
  const Addr kTop = (Addr(1) << 58) - 1;
  std::vector<Addr> pool = {0, 1, 2, 0xFFFF, kNarrowTop, kWideLow, kTop};
  Rng rng(20260);
  std::vector<std::size_t> crowded;
  for (Addr b : {Addr(0), kNarrowTop, kWideLow, kTop})
    crowded.push_back(FullTagHistory::index(b));
  for (int k = 0; k < 12; ++k)
    crowded.push_back(std::size_t(rng.next_below(NodeHistory::kEntries)));
  for (const std::size_t idx : crowded) {
    for (const Addr high :
         {Addr(0), Addr(1), Addr(rng.next_below(Addr(1) << 14)),
          (Addr(1) << 14) - 1, Addr(1) << 14,
          (Addr(1) << 41) + (Addr(1) << 14),  // differs only at bit 57
          (Addr(1) << 14) + rng.next_below(Addr(1) << 28),
          rng.next_below(Addr(1) << 42), (Addr(1) << 42) - 1})
      pool.push_back(block_at_index(high, idx));
  }
  for (int k = 0; k < 64; ++k) {  // spread over the table: many pages
    pool.push_back(rng.next_below(Addr(1) << 16));
    pool.push_back(rng.next_below(Addr(1) << 30));
    pool.push_back(rng.next_below(Addr(1) << 58));
  }
  for (const Addr b : pool) ASSERT_LE(b, kTop);

  NodeHistory h;
  FullTagHistory ref;
  std::size_t cold = 0, warm = 0;
  for (int op = 0; op < 400'000; ++op) {
    const Addr blk = pool[rng.next_below(pool.size())];
    if (rng.next_below(3) == 0) {
      const MissClass c = MissClass(rng.next_below(3));
      h.mark(blk, c);
      ref.mark(blk, c);
      continue;
    }
    const MissClass want = ref.classify(blk);
    ASSERT_EQ(h.classify(blk), want) << "op " << op << " block " << blk;
    (want == MissClass::kCold ? cold : warm)++;
  }
  // Both outcomes occur often, so the stream exercises hits and
  // evictions alike.
  EXPECT_GT(cold, 10'000u);
  EXPECT_GT(warm, 10'000u);
}

TEST(PageCache, ForEachFrameIsSortedByPage) {
  PageCache pc(0);
  for (Addr p : {Addr(42), Addr(7), Addr(1000), Addr(8)}) pc.allocate(p);
  std::vector<Addr> order;
  pc.for_each_frame([&](Addr p, PageCache::Frame&) { order.push_back(p); });
  EXPECT_EQ(order, (std::vector<Addr>{7, 8, 42, 1000}));
}

TEST(PageTable, InfoStartsUnbound) {
  // PageInfo is pure mechanism state now; the observation counters the
  // decision engines use live in PolicyEngine::PageObs (covered by
  // policy_engine_test.cpp).
  PageTable pt(8, layout8());
  PageInfo& pi = pt.info(1);
  EXPECT_EQ(pi.home, kNoNode);
  EXPECT_FALSE(pi.replicated);
  EXPECT_EQ(pi.op_pending_until, 0u);
  for (NodeId n = 0; n < 8; ++n)
    EXPECT_EQ(pi.mode[n], PageMode::kUnmapped);
}

// Wide machines spill the 2-bit-per-node page modes into lazily
// attached extension words; every node id must round-trip its mode.
TEST(PageTable, WideModeVectorRoundTrips) {
  const NodeSetLayout l = NodeSetLayout::make(1024, DirScheme::kCoarse);
  PageTable pt(1024, l);
  PageInfo& pi = pt.info(7);
  pi.mode[0] = PageMode::kCcNuma;
  pi.mode[63] = PageMode::kScoma;
  pi.mode[64] = PageMode::kReplica;
  pi.mode[1023] = PageMode::kCcNuma;
  EXPECT_EQ(pi.mode[0], PageMode::kCcNuma);
  EXPECT_EQ(pi.mode[63], PageMode::kScoma);
  EXPECT_EQ(pi.mode[64], PageMode::kReplica);
  EXPECT_EQ(pi.mode[1023], PageMode::kCcNuma);
  // Untouched ids stay unmapped, including neighbours of the set ones.
  EXPECT_EQ(pi.mode[1], PageMode::kUnmapped);
  EXPECT_EQ(pi.mode[65], PageMode::kUnmapped);
  EXPECT_EQ(pi.mode[1022], PageMode::kUnmapped);
}

}  // namespace
}  // namespace dsm
