// NodeSet unit tests: layout resolution, exact-representation parity,
// the limited-pointer -> coarse-vector overflow transition, and a
// randomized differential check against std::set<NodeId> across the
// machine widths the scale-out sweep uses.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/node_set.hpp"
#include "common/rng.hpp"

namespace dsm {
namespace {

// ---------------------------------------------------------------------------
// Layout resolution
// ---------------------------------------------------------------------------

TEST(NodeSetLayout, AutoResolvesByWidth) {
  EXPECT_EQ(NodeSetLayout::make(8, DirScheme::kAuto).scheme,
            DirScheme::kFullMap);
  EXPECT_EQ(NodeSetLayout::make(64, DirScheme::kAuto).scheme,
            DirScheme::kFullMap);
  EXPECT_EQ(NodeSetLayout::make(65, DirScheme::kAuto).scheme,
            DirScheme::kLimitedPtr);
  EXPECT_EQ(NodeSetLayout::make(1024, DirScheme::kAuto).scheme,
            DirScheme::kLimitedPtr);
}

TEST(NodeSetLayout, CoarseRegionsStayWithinWord) {
  // <= 32 nodes: one node per region (exact); wider: regions grow so
  // the region word never exceeds kMaxCoarseRegions bits.
  for (std::uint32_t nodes : {1u, 8u, 32u, 33u, 64u, 256u, 1024u}) {
    const NodeSetLayout l = NodeSetLayout::make(nodes, DirScheme::kCoarse);
    EXPECT_LE(l.regions(), NodeSetLayout::kMaxCoarseRegions) << nodes;
    EXPECT_EQ(l.region_of(nodes - 1), l.regions() - 1) << nodes;
    if (nodes <= 32) {
      EXPECT_EQ(l.region_shift, 0u) << nodes;
    }
  }
  EXPECT_EQ(NodeSetLayout::make(64, DirScheme::kCoarse).region_shift, 1u);
  EXPECT_EQ(NodeSetLayout::make(1024, DirScheme::kCoarse).region_shift, 5u);
}

// ---------------------------------------------------------------------------
// Representation transitions
// ---------------------------------------------------------------------------

TEST(NodeSet, LimitedPointersOverflowToCoarse) {
  const NodeSetLayout l = NodeSetLayout::make(1024, DirScheme::kLimitedPtr);
  NodeSet s;
  const NodeId members[] = {7, 100, 333, 900};
  for (NodeId n : members) s.add(n, l);
  EXPECT_EQ(s.rep(), NodeSet::Rep::kPtrs);
  EXPECT_TRUE(s.exact(l));
  EXPECT_EQ(s.count(l), 4u);
  EXPECT_FALSE(s.contains(8, l));  // exact while pointers last

  // Fifth distinct member: degrade to the coarse vector. Every prior
  // member must stay covered (superset conservatism).
  s.add(555, l);
  EXPECT_EQ(s.rep(), NodeSet::Rep::kCoarse);
  EXPECT_FALSE(s.exact(l));
  for (NodeId n : members) EXPECT_TRUE(s.contains(n, l)) << n;
  EXPECT_TRUE(s.contains(555, l));
  // Conservative width >= true membership.
  EXPECT_GE(s.count(l), 5u);
  // Re-adding an existing member must not change anything.
  const std::uint32_t before = s.count(l);
  s.add(7, l);
  EXPECT_EQ(s.count(l), before);
}

TEST(NodeSet, CoarseRemoveIsConservative) {
  const NodeSetLayout l = NodeSetLayout::make(1024, DirScheme::kCoarse);
  ASSERT_GT(l.region_shift, 0u);
  NodeSet s;
  s.add(40, l);
  // 40 and 41 share a 32-node region: membership over-approximates.
  EXPECT_TRUE(s.contains(41, l));
  // remove() may not clear the region bit — 40 could still be present
  // as far as the representation knows.
  s.remove(41, l);
  EXPECT_TRUE(s.contains(40, l));
  EXPECT_FALSE(s.empty());
  s.remove(40, l);
  EXPECT_TRUE(s.contains(40, l));  // still conservative
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(40, l));
}

TEST(NodeSet, CoarseWithSingleNodeRegionsIsExact) {
  // At <= 32 nodes the coarse vector has one node per region and
  // behaves exactly like the full map.
  const NodeSetLayout l = NodeSetLayout::make(32, DirScheme::kCoarse);
  ASSERT_EQ(l.region_shift, 0u);
  NodeSet s;
  s.add(31, l);
  s.add(0, l);
  EXPECT_TRUE(s.exact(l));
  EXPECT_TRUE(s.is_exactly(31, l) == false);
  EXPECT_EQ(s.count(l), 2u);
  s.remove(31, l);
  EXPECT_FALSE(s.contains(31, l));
  s.remove(0, l);
  EXPECT_TRUE(s.empty());
}

TEST(NodeSet, IsExactlySemantics) {
  const NodeSetLayout full = NodeSetLayout::make(64, DirScheme::kFullMap);
  NodeSet s;
  s.add(33, full);
  EXPECT_TRUE(s.is_exactly(33, full));
  EXPECT_FALSE(s.is_exactly(1, full));
  s.add(1, full);
  EXPECT_FALSE(s.is_exactly(33, full));

  // Inexact coarse sets never answer "exactly {n}": callers must run
  // the conservative invalidation round.
  const NodeSetLayout coarse = NodeSetLayout::make(1024, DirScheme::kCoarse);
  NodeSet c;
  c.add(33, coarse);
  EXPECT_FALSE(c.is_exactly(33, coarse));
}

TEST(NodeSet, StorageBitsTrackRepresentation) {
  const NodeSetLayout full = NodeSetLayout::make(64, DirScheme::kFullMap);
  const NodeSetLayout ptrs = NodeSetLayout::make(1024, DirScheme::kLimitedPtr);
  const NodeSetLayout coarse = NodeSetLayout::make(1024, DirScheme::kCoarse);
  NodeSet s;
  EXPECT_EQ(s.storage_bits(full), 0u);
  s.add(3, full);
  EXPECT_EQ(s.storage_bits(full), 64u);  // full map pays machine width
  NodeSet p;
  p.add(900, ptrs);
  p.add(7, ptrs);
  EXPECT_EQ(p.storage_bits(ptrs), 2u * 10u);  // 2 pointers x log2(1024)
  NodeSet c;
  c.add(900, coarse);
  EXPECT_EQ(c.storage_bits(coarse), coarse.regions());
}

// ---------------------------------------------------------------------------
// Randomized differential check vs std::set<NodeId>
// ---------------------------------------------------------------------------

// Reference-checked random add/remove/contains/count/iterate streams.
// Exact representations must agree with std::set verbatim; inexact ones
// must remain conservative supersets with ascending iteration order.
void differential(std::uint32_t nodes, DirScheme scheme, std::uint64_t seed) {
  const NodeSetLayout l = NodeSetLayout::make(nodes, scheme);
  NodeSet s;
  std::set<NodeId> ref;
  Rng rng(seed);
  for (int step = 0; step < 2000; ++step) {
    const NodeId n = NodeId(rng.next_below(nodes));
    switch (rng.next_below(4)) {
      case 0:
      case 1:
        s.add(n, l);
        ref.insert(n);
        break;
      case 2:
        s.remove(n, l);
        // The reference mirrors what an exact set would hold. The
        // superset invariant below is checked against this exact truth;
        // an inexact coarse rep keeps covering removed members, which
        // the invariant permits.
        if (s.exact(l)) ref.erase(n);
        break;
      case 3:
        s.clear();
        ref.clear();
        break;
    }

    // Superset invariant: every true member is covered.
    for (NodeId m : ref) ASSERT_TRUE(s.contains(m, l)) << m;
    ASSERT_GE(s.count(l), std::uint32_t(ref.size()));
    ASSERT_LE(s.count(l), nodes);
    if (!ref.empty()) {
      ASSERT_FALSE(s.empty());
    }

    // Iteration: strictly ascending node ids, consistent with
    // contains(), covering every true member, count() entries total.
    std::vector<NodeId> seen;
    s.for_each(l, [&](NodeId m) { seen.push_back(m); });
    ASSERT_EQ(seen.size(), s.count(l));
    for (std::size_t i = 1; i < seen.size(); ++i)
      ASSERT_LT(seen[i - 1], seen[i]);
    for (NodeId m : seen) ASSERT_TRUE(s.contains(m, l));
    std::size_t covered = 0;
    for (NodeId m : seen)
      if (ref.count(m)) ++covered;
    ASSERT_EQ(covered, ref.size());

    // Exact representations must match the reference verbatim.
    if (s.exact(l)) {
      ASSERT_EQ(seen.size(), ref.size());
      ASSERT_TRUE(std::equal(seen.begin(), seen.end(), ref.begin()));
      for (int probe = 0; probe < 8; ++probe) {
        const NodeId q = NodeId(rng.next_below(nodes));
        ASSERT_EQ(s.contains(q, l), ref.count(q) != 0) << q;
      }
    }
  }
}

TEST(NodeSetDifferential, FullMapWidths) {
  differential(8, DirScheme::kFullMap, 1);
  differential(32, DirScheme::kFullMap, 2);
  differential(33, DirScheme::kFullMap, 3);
  differential(64, DirScheme::kFullMap, 4);
}

TEST(NodeSetDifferential, LimitedPointerWidths) {
  differential(8, DirScheme::kLimitedPtr, 5);
  differential(33, DirScheme::kLimitedPtr, 6);
  differential(64, DirScheme::kLimitedPtr, 7);
  differential(1024, DirScheme::kLimitedPtr, 8);
}

TEST(NodeSetDifferential, CoarseWidths) {
  differential(8, DirScheme::kCoarse, 9);
  differential(32, DirScheme::kCoarse, 10);
  differential(33, DirScheme::kCoarse, 11);
  differential(64, DirScheme::kCoarse, 12);
  differential(1024, DirScheme::kCoarse, 13);
}

}  // namespace
}  // namespace dsm
