// White-box tests of the DSM cluster system: unloaded latency
// calibration, three-level coherence transitions, miss classification,
// page-operation mechanisms, and the global coherence invariant.
//
// These drive DsmSystem::access() directly (no engine) with one CPU per
// node so every transition is observable.
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "dsm/cluster.hpp"
#include "protocols/system_factory.hpp"

namespace dsm {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  void build(SystemKind kind, std::uint32_t nodes = 4,
             std::uint32_t cpus_per_node = 2) {
    cfg_ = SystemConfig::base(kind);
    cfg_.nodes = nodes;
    cfg_.cpus_per_node = cpus_per_node;
    stats_ = Stats(nodes);
    sys_ = make_system(cfg_, &stats_);
  }

  // Issue an access from (node, cpu-in-node) and return its latency.
  Cycle go(NodeId node, std::uint32_t lane, Addr addr, bool write,
           Cycle start) {
    const CpuId cpu = node * cfg_.cpus_per_node + lane;
    return sys_->access({cpu, node, addr, write, start}) - start;
  }

  // Bind page homes deterministically: node `h` touches first.
  void bind(Addr addr, NodeId h, Cycle at = 0) {
    go(h, 0, addr, /*write=*/false, at);
  }

  SystemConfig cfg_;
  Stats stats_{0};
  std::unique_ptr<DsmSystem> sys_;
};

TEST_F(ClusterTest, FirstTouchBindsHomeAndCostsSoftFault) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  const Cycle lat = go(2, 0, a, false, 1000);
  EXPECT_EQ(sys_->page_table().find(page_of(a))->home, 2u);
  // Soft fault + local miss.
  EXPECT_EQ(lat, cfg_.timing.soft_trap + cfg_.timing.local_miss_total());
  EXPECT_EQ(stats_.node[2].soft_traps, 1u);
}

TEST_F(ClusterTest, LocalMissCosts104) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  bind(a, 0);
  // Second block on the same (mapped) page: pure local miss.
  const Cycle lat = go(0, 0, a + kBlockBytes, false, 10000);
  EXPECT_EQ(lat, 104u);
}

TEST_F(ClusterTest, L1HitCosts1) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  bind(a, 0);
  EXPECT_EQ(go(0, 0, a, false, 20000), cfg_.timing.l1_hit);
}

TEST_F(ClusterTest, RemoteCleanMissCosts418PlusFault) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  bind(a, 0);
  // Node 1's first access: soft fault (mapping) + remote fetch of a
  // block nobody caches dirty... node 0's L1 holds it E; grant requires
  // a recall. Use an untouched block on the same page instead.
  go(1, 0, a, false, 50000);  // map page at node 1 (pays fault + recall)
  const Cycle lat = go(1, 0, a + 2 * kBlockBytes, false, 200000);
  EXPECT_EQ(lat, 418u);
  EXPECT_EQ(stats_.node[1].remote_misses.total(), 2u);
}

TEST_F(ClusterTest, BlockCacheHitIsLocalSpeed) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  const Addr l1_conflict = a + 256 * kBlockBytes;  // same L1 set, other page
  bind(a, 0);
  bind(l1_conflict, 0, 5000);
  go(1, 0, a, false, 50000);             // fetch into BC + L1 of cpu (1,0)
  go(1, 0, l1_conflict, false, 200000);  // evicts `a` from the L1 only
  // Re-read: L1 miss, no peer copy, block cache supplies.
  const Cycle lat = go(1, 0, a, false, 400000);
  EXPECT_EQ(stats_.node[1].bc_hits, 1u);
  // bc_lookup + mem-speed supply: comparable to a local miss.
  EXPECT_LE(lat, 130u);
  EXPECT_GE(lat, 100u);
}

TEST_F(ClusterTest, CacheToCacheSupplyWithinNode) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  bind(a, 0);
  const Cycle lat = go(0, 1, a, false, 30000);  // peer L1 has it E
  // Cache-to-cache: no memory access.
  EXPECT_LT(lat, 60u);
  // Supplier downgraded E -> S.
  EXPECT_EQ(sys_->l1(0).probe(block_of(a))->state, L1State::kS);
  EXPECT_EQ(sys_->l1(1).probe(block_of(a))->state, L1State::kS);
}

TEST_F(ClusterTest, MoesiOwnerSupplyAfterDirtyRead) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  bind(a, 0);
  go(0, 0, a, true, 10000);  // write: M in cpu (0,0)
  go(0, 1, a, false, 20000);
  EXPECT_EQ(sys_->l1(0).probe(block_of(a))->state, L1State::kO);
  EXPECT_EQ(sys_->l1(1).probe(block_of(a))->state, L1State::kS);
}

TEST_F(ClusterTest, SilentUpgradeFromExclusive) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  bind(a, 0);  // E grant
  const Cycle lat = go(0, 0, a, true, 10000);
  EXPECT_EQ(lat, cfg_.timing.l1_hit);  // no bus transaction
  EXPECT_EQ(sys_->l1(0).probe(block_of(a))->state, L1State::kM);
}

TEST_F(ClusterTest, WriteInvalidatesRemoteSharers) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  bind(a, 0);
  go(1, 0, a, false, 50000);   // node 1 shares
  go(2, 0, a, false, 100000);  // node 2 shares
  go(0, 0, a, true, 200000);   // home writes: invalidate both
  EXPECT_EQ(sys_->block_cache(1).probe(block_of(a)), nullptr);
  EXPECT_EQ(sys_->block_cache(2).probe(block_of(a)), nullptr);
  EXPECT_EQ(sys_->l1(1 * cfg_.cpus_per_node).probe(block_of(a)), nullptr);
  const DirEntry* e = sys_->directory().find(block_of(a));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, DirState::kExclusive);
  EXPECT_EQ(e->owner, 0u);
  sys_->check_coherence();
}

TEST_F(ClusterTest, RemoteWriteMissFetchesExclusive) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  bind(a, 0);
  go(1, 0, a, true, 50000);
  const DirEntry* e = sys_->directory().find(block_of(a));
  EXPECT_EQ(e->state, DirState::kExclusive);
  EXPECT_EQ(e->owner, 1u);
  EXPECT_EQ(sys_->block_cache(1).probe(block_of(a))->state,
            NodeState::kModified);
  EXPECT_EQ(sys_->l1(cfg_.cpus_per_node).probe(block_of(a))->state,
            L1State::kM);
  sys_->check_coherence();
}

TEST_F(ClusterTest, DirtyRemoteFetchRecallsFromOwner) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  bind(a, 0);
  go(1, 0, a, true, 50000);            // node 1 owns dirty
  const Cycle lat = go(2, 0, a, false, 200000);
  // 3-hop-ish: strictly longer than a clean remote miss (+fault at 2).
  EXPECT_GT(lat, 418u + cfg_.timing.soft_trap);
  const DirEntry* e = sys_->directory().find(block_of(a));
  EXPECT_EQ(e->state, DirState::kShared);
  EXPECT_TRUE(e->is_sharer(1, sys_->node_set_layout()));
  EXPECT_TRUE(e->is_sharer(2, sys_->node_set_layout()));
  sys_->check_coherence();
}

TEST_F(ClusterTest, UpgradeOnSharedBlockInvalidatesPeers) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x10000;
  bind(a, 0);
  go(1, 0, a, false, 50000);
  go(1, 0, a, true, 150000);  // write hit on S at node 1: upgrade
  const DirEntry* e = sys_->directory().find(block_of(a));
  EXPECT_EQ(e->state, DirState::kExclusive);
  EXPECT_EQ(e->owner, 1u);
  EXPECT_EQ(sys_->l1(0).probe(block_of(a)), nullptr);  // home L1 invalidated
  sys_->check_coherence();
}

TEST_F(ClusterTest, BlockCacheEvictionWritesBackAndUpdatesDirectory) {
  build(SystemKind::kCcNuma);
  // Home node 0; node 1 writes block X, then touches 1024 conflicting
  // blocks to evict it from the (direct-mapped, 1024-set) BC.
  const Addr base = 0x100000;
  bind(base, 0);
  go(1, 0, base, true, 50000);
  ASSERT_NE(sys_->block_cache(1).probe(block_of(base)), nullptr);
  // Conflicting block: same BC set <=> blk difference multiple of 1024.
  const Addr conflict = base + 1024 * kBlockBytes;
  bind(conflict, 0);
  go(1, 0, conflict, false, 400000);
  EXPECT_EQ(sys_->block_cache(1).probe(block_of(base)), nullptr);
  const DirEntry* e = sys_->directory().find(block_of(base));
  EXPECT_EQ(e->state, DirState::kUncached);  // dirty writeback
  // Refetch classifies capacity/conflict.
  go(1, 0, base, false, 800000);
  EXPECT_GE(stats_.node[1].remote_misses.capacity_conflict(), 1u);
  sys_->check_coherence();
}

TEST_F(ClusterTest, PerfectCcNumaNeverEvicts) {
  build(SystemKind::kPerfectCcNuma);
  const Addr base = 0x100000;
  bind(base, 0);
  for (int i = 0; i < 3000; ++i)
    go(1, 0, base + Addr(i) * kBlockBytes, false, 100000 + i * 1000);
  EXPECT_EQ(stats_.node[1].remote_misses.capacity_conflict(), 0u);
  EXPECT_NE(sys_->block_cache(1).probe(block_of(base)), nullptr);
}

TEST_F(ClusterTest, ReplicationMechanism) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x30000;
  bind(a, 0);
  go(1, 0, a, false, 10000);
  const Cycle end = sys_->replicate_page(page_of(a), 1, 20000);
  EXPECT_GT(end, 20000u);
  const PageInfo* pi = sys_->page_table().find(page_of(a));
  EXPECT_TRUE(pi->replicated);
  EXPECT_EQ(pi->mode[1], PageMode::kReplica);
  EXPECT_EQ(stats_.node[1].page_replications, 1u);
  // Replica reads are local-memory speed.
  const Cycle lat = go(1, 0, a + kBlockBytes, false, end + 1000);
  EXPECT_LE(lat, 110u);
  EXPECT_EQ(stats_.node[1].local_mem_accesses, 1u);
  sys_->check_coherence();
}

TEST_F(ClusterTest, WriteToReplicatedPageCollapsesReplicas) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x30000;
  bind(a, 0);
  go(1, 0, a, false, 10000);
  const Cycle end = sys_->replicate_page(page_of(a), 1, 20000);
  go(1, 0, a, false, end + 100);  // read through the replica
  // Node 2 writes: collapse must precede the write.
  go(2, 0, a, true, end + 50000);
  const PageInfo* pi = sys_->page_table().find(page_of(a));
  EXPECT_FALSE(pi->replicated);
  EXPECT_EQ(pi->mode[1], PageMode::kCcNuma);
  EXPECT_EQ(stats_.node[2].replica_collapses, 1u);
  EXPECT_GE(stats_.node[1].tlb_shootdowns, 1u);
  // Replica holder's cached copies are gone.
  EXPECT_EQ(sys_->l1(cfg_.cpus_per_node).probe(block_of(a)), nullptr);
  sys_->check_coherence();
}

TEST_F(ClusterTest, MigrationMechanismMovesHome) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x40000;
  bind(a, 0);
  go(1, 0, a, false, 10000);
  const Cycle end = sys_->migrate_page(page_of(a), 1, 50000);
  const PageInfo* pi = sys_->page_table().find(page_of(a));
  EXPECT_EQ(pi->home, 1u);
  EXPECT_EQ(pi->mode[1], PageMode::kCcNuma);
  EXPECT_EQ(pi->mode[0], PageMode::kUnmapped);
  EXPECT_EQ(stats_.node[1].page_migrations, 1u);
  EXPECT_EQ(pi->op_pending_until, end);
  // New home reads locally now.
  const Cycle lat = go(1, 0, a, false, end + 1000);
  EXPECT_EQ(lat, 104u);
  // Old home must re-fault (lazy TLB invalidation) and go remote.
  const Cycle lat0 = go(0, 0, a, false, end + 500000);
  EXPECT_GE(lat0, cfg_.timing.soft_trap + 418u);
  sys_->check_coherence();
}

TEST_F(ClusterTest, AccessDuringPageOpStalls) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x40000;
  bind(a, 0);
  go(1, 0, a, false, 10000);
  const Cycle end = sys_->migrate_page(page_of(a), 1, 50000);
  ASSERT_GT(end, 51000u);
  // An access issued mid-operation completes only after it.
  const Cycle done = sys_->access({0, 0, a, false, 51000});
  EXPECT_GE(done, end);
}

TEST_F(ClusterTest, RelocationMovesPageIntoPageCache) {
  build(SystemKind::kRNuma);
  const Addr a = 0x50000;
  bind(a, 0);
  go(1, 0, a, false, 10000);
  const Cycle end = sys_->relocate_to_scoma(1, page_of(a), 20000);
  const PageInfo* pi = sys_->page_table().find(page_of(a));
  EXPECT_EQ(pi->mode[1], PageMode::kScoma);
  EXPECT_EQ(stats_.node[1].page_relocations, 1u);
  EXPECT_NE(sys_->page_cache(1).find(page_of(a)), nullptr);
  // First access refetches into the frame; after the L1 copy is evicted
  // by a conflicting block, the refill is a local page-cache hit.
  go(1, 0, a, false, end + 100);
  const Addr l1_conflict = a + 256 * kBlockBytes;
  bind(l1_conflict, 0, end + 5000);
  go(1, 0, l1_conflict, false, end + 50000);  // evicts `a` from the L1
  const Cycle lat = go(1, 0, a, false, end + 100000);
  EXPECT_LE(lat, 130u);
  EXPECT_GE(stats_.node[1].pc_hits, 1u);
  sys_->check_coherence();
}

TEST_F(ClusterTest, PageCacheEvictionUnderPressure) {
  build(SystemKind::kRNuma);
  cfg_.page_cache_bytes = 2 * kPageBytes;  // 2 frames only
  stats_ = Stats(cfg_.nodes);
  sys_ = make_system(cfg_, &stats_);
  const Addr p0 = 0x100000, p1 = 0x200000, p2 = 0x300000;
  for (Addr p : {p0, p1, p2}) bind(p, 0);
  Cycle t = 50000;
  for (Addr p : {p0, p1, p2}) {
    go(1, 0, p, false, t);
    t += 10000;
    sys_->relocate_to_scoma(1, page_of(p), t);
    t += 50000;
  }
  EXPECT_EQ(stats_.node[1].page_cache_evictions, 1u);
  EXPECT_EQ(sys_->page_cache(1).frames_in_use(), 2u);
  // The evicted page is unmapped at node 1 again.
  EXPECT_EQ(sys_->page_table().find(page_of(p0))->mode[1],
            PageMode::kUnmapped);
  sys_->check_coherence();
}

TEST_F(ClusterTest, ReplicaReplacesPageCacheFrame) {
  // Replicating a page at a node that maps it S-COMA gathers the
  // frame's blocks home and returns the emptied frame to the mapper:
  // the replica supersedes it.
  build(SystemKind::kRNumaMigRep);
  const Addr a = 0x68000;
  bind(a, 0);
  go(1, 0, a, false, 10000);
  Cycle t = sys_->relocate_to_scoma(1, page_of(a), 20000);
  go(1, 0, a, false, t + 100);                // refill into the frame
  go(1, 0, a + kBlockBytes, false, t + 2000);
  ASSERT_EQ(sys_->page_cache(1).find(page_of(a))->valid_blocks, 2u);
  t = sys_->replicate_page(page_of(a), 1, t + 10000);
  const PageInfo* pi = sys_->page_table().find(page_of(a));
  EXPECT_EQ(pi->mode[1], PageMode::kReplica);
  EXPECT_TRUE(pi->replicated);
  EXPECT_EQ(sys_->page_cache(1).frames_in_use(), 0u);
  EXPECT_EQ(stats_.node[1].page_replications, 1u);
  // One block at the relocation, both frame blocks at the gather.
  EXPECT_EQ(stats_.node[1].blocks_flushed, 3u);
  // The replica now supplies node 1 from local memory.
  const std::uint64_t local = stats_.node[1].local_mem_accesses;
  go(1, 0, a, false, t + 100);
  EXPECT_EQ(stats_.node[1].local_mem_accesses, local + 1);
  sys_->check_coherence();
}

TEST_F(ClusterTest, ScomaDirtyBlockServedToOtherNode) {
  build(SystemKind::kRNuma);
  const Addr a = 0x60000;
  bind(a, 0);
  go(1, 0, a, false, 10000);
  const Cycle end = sys_->relocate_to_scoma(1, page_of(a), 20000);
  go(1, 0, a, true, end + 100);  // dirty in node 1's page cache
  sys_->check_coherence();
  go(2, 0, a, false, end + 100000);  // node 2 reads: recall from node 1
  const DirEntry* e = sys_->directory().find(block_of(a));
  EXPECT_EQ(e->state, DirState::kShared);
  EXPECT_TRUE(e->is_sharer(1, sys_->node_set_layout()));
  EXPECT_TRUE(e->is_sharer(2, sys_->node_set_layout()));
  sys_->check_coherence();
}

TEST_F(ClusterTest, MissClassificationEndToEnd) {
  build(SystemKind::kCcNuma);
  const Addr a = 0x70000;
  bind(a, 0);
  go(1, 0, a, false, 10000);  // cold
  EXPECT_EQ(stats_.node[1].remote_misses.by_class[size_t(MissClass::kCold)],
            1u);
  go(0, 0, a, true, 100000);  // invalidates node 1
  go(1, 0, a, false, 200000);  // coherence refetch
  EXPECT_EQ(
      stats_.node[1].remote_misses.by_class[size_t(MissClass::kCoherence)],
      1u);
}

// Property test: random access streams keep the directory and caches
// coherent on every system kind.
class CoherenceFuzzTest
    : public ::testing::TestWithParam<std::tuple<SystemKind, int>> {};

TEST_P(CoherenceFuzzTest, RandomTrafficKeepsInvariants) {
  const auto [kind, seed] = GetParam();
  SystemConfig cfg = SystemConfig::base(kind);
  cfg.nodes = 4;
  cfg.cpus_per_node = 2;
  cfg.page_cache_bytes = 8 * kPageBytes;  // tiny: force evictions
  Stats stats(cfg.nodes);
  auto sys = make_system(cfg, &stats);
  Rng rng(seed);
  Cycle t = 0;
  for (int i = 0; i < 6000; ++i) {
    const NodeId node = NodeId(rng.next_below(cfg.nodes));
    const CpuId cpu = node * cfg.cpus_per_node +
                      CpuId(rng.next_below(cfg.cpus_per_node));
    // 16 pages x 8 blocks: heavy sharing and conflict pressure.
    const Addr addr = 0x100000 + rng.next_below(16) * kPageBytes +
                      rng.next_below(8) * kBlockBytes * 128;
    const bool write = rng.next_below(100) < 30;
    t += rng.next_below(200);
    const Cycle done = sys->access({cpu, node, block_base(addr), write, t});
    ASSERT_GE(done, t);
    if (i % 500 == 0) sys->check_coherence();
  }
  sys->check_coherence();
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, CoherenceFuzzTest,
    ::testing::Combine(
        ::testing::Values(SystemKind::kCcNuma, SystemKind::kPerfectCcNuma,
                          SystemKind::kCcNumaMigRep, SystemKind::kRNuma,
                          SystemKind::kRNumaInf, SystemKind::kRNumaMigRep),
        ::testing::Values(1, 2, 3, 4, 5)));

}  // namespace
}  // namespace dsm
