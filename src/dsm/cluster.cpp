// DsmSystem core: construction, the top-level access dispatcher, and
// the global coherence checker.
//
// The protocol engine is decomposed into layered translation units,
// each speaking to the interconnect only via typed messages
// (net/message.hpp):
//   dsm/node_agent.cpp  node-level access paths, snoop, installs/flushes
//   dsm/home_agent.cpp  cluster-level directory transactions at the home
//   dsm/page_ops.cpp    page migrate/replicate/collapse/relocate
#include "dsm/cluster.hpp"

#include <algorithm>

namespace dsm {

const char* to_string(PageMode m) {
  switch (m) {
    case PageMode::kUnmapped: return "unmapped";
    case PageMode::kCcNuma: return "ccnuma";
    case PageMode::kScoma: return "scoma";
    case PageMode::kReplica: return "replica";
  }
  return "?";
}

const char* to_string(DirState s) {
  switch (s) {
    case DirState::kUncached: return "U";
    case DirState::kShared: return "S";
    case DirState::kExclusive: return "E";
  }
  return "?";
}

DsmSystem::DsmSystem(const SystemConfig& cfg, Stats* stats)
    : cfg_(cfg),
      stats_(stats),
      nsl_(NodeSetLayout::make(cfg.nodes, cfg.dir_scheme)),
      pt_(cfg.nodes, nsl_),
      dir_(nsl_),
      net_(cfg_, stats),
      bus_(cfg.nodes),
      device_(cfg.nodes),
      engine_(*this, stats) {
  DSM_ASSERT(stats_ != nullptr);
  DSM_ASSERT(stats_->node.size() >= cfg.nodes, "Stats sized for node count");
  const BlockCache::Shape bc_shape = cfg.kind == SystemKind::kPerfectCcNuma
                                        ? BlockCache::Shape::kInfinite
                                        : BlockCache::Shape::kDirectMapped;
  const bool has_pc = uses_page_cache(cfg.kind);
  const std::uint64_t pc_pages =
      cfg.kind == SystemKind::kRNumaInf ? 0 : cfg.page_cache_pages();
  for (CpuId c = 0; c < cfg.total_cpus(); ++c)
    l1_.push_back(std::make_unique<L1Cache>(cfg.l1_bytes));
  // The block cache is direct-mapped SRAM, as in the remote-cache
  // designs of the period the paper builds on (Moga & Dubois, HPCA'98).
  history_.reserve(cfg.nodes);
  for (NodeId n = 0; n < cfg.nodes; ++n) {
    bc_.push_back(
        std::make_unique<BlockCache>(cfg.block_cache_bytes, bc_shape));
    pc_.push_back(std::make_unique<PageCache>(has_pc ? pc_pages : 1));
    history_.emplace_back();
  }
  // The failure detector exists only when the fault layer is on.
  if (net_.fault_plan() != nullptr)
    crash_detected_until_.assign(cfg.nodes, 0);
}

void DsmSystem::parallel_begin(Cycle now) { parallel_begin_at_ = now; }
void DsmSystem::parallel_end(Cycle now) {
  stats_->execution_cycles = now - parallel_begin_at_;
  // End-of-run directory-memory census: what the sharer-set
  // representations actually occupy vs the full-map extrapolation.
  stats_->dir = dir_.usage();
  stats_->links = net_.link_usage();
}

// ---------------------------------------------------------------------------
// Top-level access
// ---------------------------------------------------------------------------

Cycle DsmSystem::access(const MemAccess& a) {
  const Addr page = page_of(a.addr);
  const Addr blk = block_of(a.addr);
  Cycle t = a.start;

  PageInfo& pi = pt_.info(page);
  L1Cache& l1 = *l1_[a.cpu];

  // The facts that make the engine's hit path exact (op_horizon_): no
  // window is pending at or after the horizon, and a line of this L1
  // belongs to a page bound and mapped at this node, never E or M on a
  // replicated one.
  DSM_DEBUG_ASSERT(t < op_horizon_ || pi.op_pending_until <= t,
                   "page-op window past the horizon");
  DSM_DEBUG_ASSERT(!l1.probe(blk) || (pi.home != kNoNode &&
                                      pi.mode[a.node] != PageMode::kUnmapped),
                   "L1 line of a page not mapped at its node");
  DSM_DEBUG_ASSERT(!l1.probe(blk) || !pi.replicated ||
                       !l1_writable(l1.probe(blk)->state),
                   "E/M L1 line of a replicated page");

  // First-touch home binding: the first node to request the page
  // becomes its home (the baseline placement policy in every system).
  if (pi.home == kNoNode) pi.home = a.node;

  // A global page operation in flight on this page stalls accesses.
  if (pi.op_pending_until > t) t = pi.op_pending_until;

  // Soft page fault on an unmapped page.
  if (pi.mode[a.node] == PageMode::kUnmapped) t = map_page(a, pi, page, t);

  // Writes to a replicated page first switch it back to read-write.
  if (a.write && pi.replicated) {
    t = collapse_replicas(page, a.node, t);
    DSM_DEBUG_ASSERT(!pi.replicated);
    // An emergency re-home during the collapse (dead home) tears every
    // mapping down; refault the page like any first access.
    if (pi.mode[a.node] == PageMode::kUnmapped) t = map_page(a, pi, page, t);
  }

  // L1 lookup: a hit, or a write to an S/O line that needs exclusivity.
  if (l1.hit(blk, a.write)) return t + cfg_.timing.l1_hit;
  if (l1.probe(blk)) return access_upgrade(a, pi, blk, t);

  // L1 miss.
  stats_->node[a.node].l1_misses.record(l1.classify_miss(blk));
  t += cfg_.timing.l1_miss_detect;

  t = bus_request(a.node, t);

  // Within-node snoop: a peer L1 may supply or we may satisfy a write
  // locally when the node already has exclusivity.
  if (snoop_node(a, blk, t)) return t;

  switch (pi.mode[a.node]) {
    case PageMode::kCcNuma:
      if (pi.home == a.node) return access_local(a, pi, blk, t);
      [[fallthrough]];
    case PageMode::kScoma:
      return access_remote(a, pi, blk, t);
    case PageMode::kReplica:
      DSM_ASSERT(!a.write, "write reached replica path without collapse");
      return access_replica(a, blk, t);
    case PageMode::kUnmapped:
      break;
  }
  DSM_ASSERT(false, std::string("unreachable page mode ") +
                        to_string(pi.mode[a.node]));
  return t;
}

Cycle DsmSystem::map_page(const MemAccess& a, PageInfo& pi, Addr page,
                          Cycle t) {
  (void)page;
  // Soft page fault: the faulting CPU requests the global mapping and
  // maps the page CC-NUMA (Figure 2(b) in the paper).
  stats_->node[a.node].soft_traps++;
  pi.mode[a.node] = PageMode::kCcNuma;
  return t + cfg_.timing.soft_trap;
}

// ---------------------------------------------------------------------------
// Invariant checking
// ---------------------------------------------------------------------------

void DsmSystem::check_coherence() const {
  auto* self = const_cast<DsmSystem*>(this);
  self->dir_.for_each([&](Addr blk, DirEntry& e) {
    const PageInfo* pi = pt_.find(page_of(blk << kBlockBits));
    DSM_ASSERT(pi != nullptr);
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
      const NodeCopies h = self->walk_copies(n, blk);
      const bool node_has = h.any();
      // An E line counts: a shared block may have no exclusive copy.
      const bool node_excl = h.l1_exclusive || h.node_modified;
      switch (e.state) {
        case DirState::kUncached:
          DSM_ASSERT(!node_has, "copy of an uncached block");
          break;
        case DirState::kShared:
          DSM_ASSERT(!node_excl, "dirty copy of a shared block");
          // Conservative supersets are valid: every actual holder must
          // be covered by the sharer set (inexact schemes may cover
          // non-holders too — that is their contract, not a bug).
          DSM_ASSERT(!node_has || e.is_sharer(n, nsl_) || pi->home == n,
                     "unregistered sharer");
          break;
        case DirState::kExclusive:
          DSM_ASSERT(!node_has || n == e.owner,
                     "copy outside the exclusive owner");
          break;
      }
    }
  });
}

}  // namespace dsm
