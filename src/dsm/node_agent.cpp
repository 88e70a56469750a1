// Node agent: node-level access paths and snoop.
//
// Everything below operates within one node (L1s, node bus, block
// cache, S-COMA page cache) and escalates to the home agent
// (dsm/home_agent.cpp) when a transaction must leave the node. The only
// interconnect activity initiated here is the off-critical-path victim
// notification on a block-cache eviction, sent as a typed writeback or
// replacement-hint message.
#include <algorithm>

#include "dsm/cluster.hpp"
#include "protocols/policy_engine.hpp"

namespace dsm {

namespace {
// Byte charge of an UPGRADE/ACK round trip between requester and home
// (zero when the requester is the home: no wire messages exist).
std::uint64_t upgrade_bytes(NodeId requester, NodeId home, Addr blk) {
  if (requester == home) return 0;
  return Message::control(MsgKind::kUpgrade, requester, home, blk)
             .total_bytes() +
         Message::control(MsgKind::kAck, home, requester, blk).total_bytes();
}
}  // namespace

// ---------------------------------------------------------------------------
// L1 hit / upgrade
// ---------------------------------------------------------------------------

Cycle DsmSystem::access_hit_or_upgrade(const MemAccess& a, PageInfo& pi,
                                       Addr blk, L1Cache::Line* ln, Cycle t) {
  if (!a.write) return t + cfg_.timing.l1_hit;
  if (l1_writable(ln->state)) {
    ln->state = L1State::kM;  // E -> M silent upgrade
    return t + cfg_.timing.l1_hit;
  }

  // Write hit on S or O: need exclusivity.
  t += cfg_.timing.l1_miss_detect;
  t = bus_[a.node].reserve(t, cfg_.timing.bus_arb + cfg_.timing.bus_addr) +
      cfg_.timing.bus_arb + cfg_.timing.bus_addr;

  // Does the node already own the block cluster-wide?
  DirEntry& e = dir_.entry(blk);
  const bool node_exclusive =
      e.state == DirState::kExclusive && e.owner == a.node;
  if (!node_exclusive) {
    t = remote_upgrade(a.node, page_of(a.addr), blk, t);
    emit_counted(/*upgrade=*/true, page_of(a.addr), pi, a.node,
                 /*is_write=*/true, upgrade_bytes(a.node, pi.home, blk), t);
    if (l1_[a.cpu]->probe(blk) == nullptr) {
      // A policy fired a page op off this event and its gather flushed
      // our own copies: the mapping changed under the access. Restart
      // against the new mapping (the poison-bit fault-and-retry the
      // page-op machinery models; the op window stalls the retry).
      MemAccess retry = a;
      retry.start = t;
      return access(retry);
    }
  }
  // Invalidate peer L1 copies on this node.
  for (CpuId c = a.node * cfg_.cpus_per_node;
       c < (a.node + 1) * cfg_.cpus_per_node; ++c) {
    if (c != a.cpu) l1_[c]->invalidate(blk, MissClass::kCoherence);
  }
  // Node-level state -> modified.
  if (pi.mode[a.node] == PageMode::kScoma) {
    PageCache::Frame* f = pc_[a.node]->find(page_of(a.addr));
    DSM_ASSERT(f && f->has(block_index_in_page(a.addr)));
    f->tag[block_index_in_page(a.addr)] = NodeState::kModified;
  } else if (pi.home != a.node) {
    if (BlockCache::Entry* be = bc_[a.node]->probe(blk))
      be->state = NodeState::kModified;
  }
  l1_[a.cpu]->set_state(blk, L1State::kM);
  return t + cfg_.timing.fill;
}

// ---------------------------------------------------------------------------
// Within-node snoop
// ---------------------------------------------------------------------------

bool DsmSystem::snoop_node(const MemAccess& a, Addr blk, Cycle& t) {
  const CpuId first = a.node * cfg_.cpus_per_node;
  const CpuId last = first + cfg_.cpus_per_node;
  L1Cache::Line* supplier = nullptr;
  CpuId supplier_cpu = 0;
  for (CpuId c = first; c < last; ++c) {
    if (c == a.cpu) continue;
    if (L1Cache::Line* ln = l1_[c]->probe(blk)) {
      if (!supplier || int(ln->state) > int(supplier->state)) {
        supplier = ln;
        supplier_cpu = c;
      }
    }
  }
  if (!supplier) return false;

  if (!a.write) {
    // Cache-to-cache read supply. MOESI: M -> O, E -> S; O/S unchanged.
    if (supplier->state == L1State::kM) supplier->state = L1State::kO;
    if (supplier->state == L1State::kE) supplier->state = L1State::kS;
    l1_install(a, blk, L1State::kS);
    t = bus_[a.node].reserve(t, cfg_.timing.bus_data) + cfg_.timing.bus_data +
        cfg_.timing.fill;
    return true;
  }

  // Write: only resolvable within the node if the node is exclusive
  // cluster-wide (peer holding M/E/O implies node-level kModified, or a
  // local page with directory exclusivity at this node).
  DirEntry& e = dir_.entry(blk);
  const bool node_exclusive =
      e.state == DirState::kExclusive && e.owner == a.node;
  if (!node_exclusive) return false;  // fall through to upgrade paths
  (void)supplier_cpu;
  for (CpuId c = first; c < last; ++c)
    if (c != a.cpu) l1_[c]->invalidate(blk, MissClass::kCoherence);
  l1_install(a, blk, L1State::kM);
  t = bus_[a.node].reserve(t, cfg_.timing.bus_data) + cfg_.timing.bus_data +
      cfg_.timing.fill;
  return true;
}

// ---------------------------------------------------------------------------
// Local (home) access path
// ---------------------------------------------------------------------------

Cycle DsmSystem::access_local(const MemAccess& a, PageInfo& pi, Addr blk,
                              Cycle t) {
  DirEntry& e = dir_.entry(blk);
  const NodeId home = a.node;

  // Count the home's own misses so migration can compare usage.
  emit_counted(/*upgrade=*/false, page_of(a.addr), pi, home, a.write,
               /*bytes=*/0, t);

  if (a.write) {
    // is_exactly() is false whenever the set might cover anyone beyond
    // the home (inexact coarse sets always answer false), so inexact
    // schemes conservatively run the invalidation round.
    if ((e.state == DirState::kShared && !e.sharers.is_exactly(home, nsl_)) ||
        (e.state == DirState::kExclusive && e.owner != home)) {
      t = home_service_exclusive(home, home, blk, t);
      record_remote_miss(home, MissClass::kCoherence);
    }
    t += cfg_.timing.mem_access;
    e.state = DirState::kExclusive;
    e.owner = home;
    e.sharers.clear();
    l1_install(a, blk, L1State::kM);
  } else {
    if (e.state == DirState::kExclusive && e.owner != home) {
      t = home_recall_shared(home, home, blk, t);
      record_remote_miss(home, MissClass::kCoherence);
    }
    t += cfg_.timing.mem_access;
    if (!pi.replicated &&
        (e.state == DirState::kUncached ||
         (e.state == DirState::kExclusive && e.owner == home))) {
      // Exclusive-clean grant: the home may silently modify. Never
      // granted while replicas exist (the page is read-only).
      e.state = DirState::kExclusive;
      e.owner = home;
      e.sharers.clear();
      l1_install(a, blk, L1State::kE);
    } else {
      if (e.state == DirState::kExclusive) {
        // after recall: owner + home share
        e.sharers.reset_to_pair(e.owner, home, nsl_);
        e.owner = kNoNode;
      } else {
        e.add_sharer(home, nsl_);
      }
      e.state = DirState::kShared;
      l1_install(a, blk, L1State::kS);
    }
  }
  stats_->node[home].local_mem_accesses++;
  t = bus_[a.node].reserve(t, cfg_.timing.bus_data) + cfg_.timing.bus_data +
      cfg_.timing.fill;
  return t;
}

// ---------------------------------------------------------------------------
// Remote CC-NUMA (block cache) path
// ---------------------------------------------------------------------------

Cycle DsmSystem::access_remote_ccnuma(const MemAccess& a, PageInfo& pi,
                                      Addr blk, Cycle t) {
  BlockCache& bc = *bc_[a.node];
  const Addr page = page_of(a.addr);
  t += cfg_.timing.bc_lookup;

  if (BlockCache::Entry* be = bc.probe(blk)) {
    const bool writable = be->state == NodeState::kModified;
    if (!a.write || writable) {
      // Block-cache hit. The paper keeps block-cache and page-cache
      // supply latencies/occupancies comparable (Section 2), so this
      // path costs the same as a local memory / S-COMA page-cache fill.
      bc.touch(blk);
      stats_->node[a.node].bc_hits++;
      l1_install(a, blk,
                 a.write ? L1State::kM
                         : (writable ? L1State::kE : L1State::kS));
      t += cfg_.timing.mem_access;
      t = bus_[a.node].reserve(t, cfg_.timing.bus_data) +
          cfg_.timing.bus_data + cfg_.timing.fill;
      return t;
    }
    // Write to a node-shared block: upgrade at home.
    t = remote_upgrade(a.node, page, blk, t);
    emit_counted(/*upgrade=*/true, page, pi, a.node, /*is_write=*/true,
                 upgrade_bytes(a.node, pi.home, blk), t);
    // Re-probe: a policy page op may have flushed this node's copies
    // (and remapped the page) while the event dispatched.
    be = bc.probe(blk);
    if (be == nullptr) {
      MemAccess retry = a;
      retry.start = t;
      return access(retry);
    }
    record_remote_miss(a.node, MissClass::kCoherence);
    be->state = NodeState::kModified;
    bc.touch(blk);
    l1_install(a, blk, L1State::kM);
    t = bus_[a.node].reserve(t, cfg_.timing.bus_data) + cfg_.timing.bus_data +
        cfg_.timing.fill;
    return t;
  }

  // Block-cache miss: remote fetch required. The event reaches the
  // requester-side policies (R-NUMA relocation, adaptive) before the
  // fetch leaves the node; a policy may relocate the page to S-COMA
  // and/or delay the fetch by returning a later cycle.
  const MissClass node_class = history_[a.node].classify(blk);
  {
    PolicyEvent ev;
    ev.kind = PolicyEventKind::kRemoteFetch;
    ev.page = page;
    ev.blk = blk;
    ev.node = a.node;
    ev.peer = pi.home;
    ev.is_write = a.write;
    ev.miss_class = node_class;
    ev.now = t;
    const Cycle t2 = engine_->dispatch(ev, &pi);
    if (pi.mode[a.node] == PageMode::kScoma) {
      // Relocated: service this access through the S-COMA path.
      return access_scoma(a, pi, blk, t2);
    }
    t = t2;
  }

  record_remote_miss(a.node, node_class);
  NodeState granted = NodeState::kShared;
  t = remote_fetch(a.node, page, blk, a.write, t, &granted);
  if (granted == NodeState::kInvalid) {
    // The fetch aborted: a page op moved the mapping mid-transaction.
    // Restart the whole access against the post-op mapping.
    MemAccess retry = a;
    retry.start = t;
    return access(retry);
  }
  bc_install(a.node, blk, granted, t);
  l1_install(a, blk,
             a.write ? L1State::kM
                     : (granted == NodeState::kModified ? L1State::kE
                                                        : L1State::kS));
  t = bus_[a.node].reserve(t, cfg_.timing.bus_arb + cfg_.timing.bus_data) +
      cfg_.timing.bus_arb + cfg_.timing.bus_data + cfg_.timing.fill;
  return t;
}

// ---------------------------------------------------------------------------
// S-COMA (page cache) path
// ---------------------------------------------------------------------------

Cycle DsmSystem::access_scoma(const MemAccess& a, PageInfo& pi, Addr blk,
                              Cycle t) {
  const Addr page = page_of(a.addr);
  const unsigned bix = block_index_in_page(a.addr);
  PageCache& pc = *pc_[a.node];
  PageCache::Frame* f = pc.find(page);
  DSM_ASSERT(f != nullptr, "S-COMA mapped page has no frame");
  pc.touch(page);

  // Fine-grain tag lookup (memory inhibit check).
  t += cfg_.timing.bc_lookup;

  if (f->has(bix)) {
    const bool writable = f->tag[bix] == NodeState::kModified;
    if (!a.write || writable) {
      // Local page-cache hit: the node's own memory supplies.
      stats_->node[a.node].pc_hits++;
      l1_install(a, blk,
                 a.write ? L1State::kM
                         : (writable ? L1State::kE : L1State::kS));
      t += cfg_.timing.mem_access;
      t = bus_[a.node].reserve(t, cfg_.timing.bus_data) +
          cfg_.timing.bus_data + cfg_.timing.fill;
      return t;
    }
    // Write to a shared tag: upgrade at home.
    t = remote_upgrade(a.node, page, blk, t);
    emit_counted(/*upgrade=*/true, page, pi, a.node, /*is_write=*/true,
                 upgrade_bytes(a.node, pi.home, blk), t);
    // Re-find the frame: a policy page op may have flushed it — or
    // released it outright — while the event dispatched.
    f = pc.find(page);
    if (f == nullptr || !f->has(bix)) {
      MemAccess retry = a;
      retry.start = t;
      return access(retry);
    }
    record_remote_miss(a.node, MissClass::kCoherence);
    f->tag[bix] = NodeState::kModified;
    l1_install(a, blk, L1State::kM);
    t = bus_[a.node].reserve(t, cfg_.timing.bus_data) + cfg_.timing.bus_data +
        cfg_.timing.fill;
    return t;
  }

  // Tag miss: fetch the block from home into the page-cache frame.
  const MissClass node_class = history_[a.node].classify(blk);
  record_remote_miss(a.node, node_class);
  NodeState granted = NodeState::kShared;
  t = remote_fetch(a.node, page, blk, a.write, t, &granted);
  if (granted == NodeState::kInvalid) {
    // The fetch aborted: a page op moved the mapping mid-transaction
    // (the frame `f` may be flushed or released). Restart the access.
    MemAccess retry = a;
    retry.start = t;
    return access(retry);
  }
  if (!f->has(bix)) f->valid_blocks++;
  f->tag[bix] = a.write ? NodeState::kModified : granted;
  l1_install(a, blk,
             a.write ? L1State::kM
                     : (granted == NodeState::kModified ? L1State::kE
                                                        : L1State::kS));
  t = bus_[a.node].reserve(t, cfg_.timing.bus_arb + cfg_.timing.bus_data) +
      cfg_.timing.bus_arb + cfg_.timing.bus_data + cfg_.timing.fill;
  return t;
}

// ---------------------------------------------------------------------------
// Replica path (read-only local copy)
// ---------------------------------------------------------------------------

Cycle DsmSystem::access_replica(const MemAccess& a, PageInfo& pi, Addr blk,
                                Cycle t) {
  // Local memory supplies; coherence is trivial (page is read-only
  // cluster-wide while replicated). Track the node as a sharer so the
  // collapse path and the checker see the L1 copies.
  DirEntry& e = dir_.entry(blk);
  if (e.state == DirState::kUncached) e.state = DirState::kShared;
  DSM_ASSERT(e.state == DirState::kShared,
             "replicated page block held exclusive");
  e.add_sharer(a.node, nsl_);
  (void)pi;
  l1_install(a, blk, L1State::kS);
  stats_->node[a.node].local_mem_accesses++;
  t += cfg_.timing.mem_access;
  t = bus_[a.node].reserve(t, cfg_.timing.bus_data) + cfg_.timing.bus_data +
      cfg_.timing.fill;
  return t;
}

// ---------------------------------------------------------------------------
// Node-level helpers
// ---------------------------------------------------------------------------

bool DsmSystem::flush_block_at_node(NodeId n, Addr blk, bool invalidate,
                                    MissClass reason) {
  bool dirty = false;
  const CpuId first = n * cfg_.cpus_per_node;
  for (CpuId c = first; c < first + cfg_.cpus_per_node; ++c) {
    if (const L1Cache::Line* ln = l1_[c]->probe(blk))
      dirty = dirty || l1_dirty(ln->state);
    if (invalidate)
      l1_[c]->invalidate(blk, reason);
    else
      l1_[c]->downgrade_to_shared(blk);
  }
  if (BlockCache::Entry* be = bc_[n]->probe(blk)) {
    dirty = dirty || be->state == NodeState::kModified;
    if (invalidate) {
      bc_[n]->invalidate(blk);
      history_[n].mark(blk, reason);
    } else {
      be->state = NodeState::kShared;
    }
  }
  const Addr page = page_of(blk << kBlockBits);
  if (PageCache::Frame* f = pc_[n]->find(page)) {
    const unsigned bix = block_index_in_page(blk << kBlockBits);
    if (f->has(bix)) {
      dirty = dirty || f->tag[bix] == NodeState::kModified;
      if (invalidate) {
        f->tag[bix] = NodeState::kInvalid;
        f->valid_blocks--;
        history_[n].mark(blk, reason);
      } else {
        f->tag[bix] = NodeState::kShared;
      }
    }
  }
  return dirty;
}

void DsmSystem::l1_install(const MemAccess& a, Addr blk, L1State st) {
  L1Cache::Victim v = l1_[a.cpu]->install(blk, st);
  if (!v.valid || !l1_dirty(v.state)) return;
  // Dirty victim writes back to its node-level container: the S-COMA
  // frame or local memory absorb it silently; a remote CC-NUMA block
  // merges into the (inclusive) block cache. The transfer occupies the
  // bus off the critical path.
  bus_[a.node].occupy(a.start, cfg_.timing.bus_data);
  const Addr vpage = page_of(v.blk << kBlockBits);
  const PageInfo* vpi = pt_.find(vpage);
  if (!vpi) return;
  if (vpi->mode[a.node] == PageMode::kCcNuma && vpi->home != a.node) {
    // Inclusion guarantees a frame exists unless it was already flushed.
    if (BlockCache::Entry* be = bc_[a.node]->probe(v.blk))
      be->state = NodeState::kModified;
  }
}

void DsmSystem::bc_install(NodeId n, Addr blk, NodeState st, Cycle t) {
  BlockCache::Victim v = bc_[n]->install(blk, st);
  if (!v.valid) return;
  // Inclusion: L1 copies of the victim must go.
  const CpuId first = n * cfg_.cpus_per_node;
  bool dirty = v.state == NodeState::kModified;
  for (CpuId c = first; c < first + cfg_.cpus_per_node; ++c) {
    if (L1Cache::Line* ln = l1_[c]->probe(v.blk)) {
      dirty = dirty || l1_dirty(ln->state);
      l1_[c]->invalidate(v.blk, MissClass::kCapacity);
    }
  }
  history_[n].mark(v.blk, MissClass::kCapacity);
  // Victim leaves the node: tell the home — a dirty block travels as a
  // writeback (data), a clean one as a replacement hint (control). If a
  // mid-transaction migration just re-homed the page to this very node,
  // the victim's memory is local and no interconnect message exists.
  const Addr vpage = page_of(v.blk << kBlockBits);
  const PageInfo* vpi = pt_.find(vpage);
  DSM_ASSERT(vpi && vpi->home != kNoNode);
  if (vpi->home != n)
    net_.post(dirty ? Message::writeback(n, vpi->home, v.blk)
                    : Message::control(MsgKind::kHint, n, vpi->home, v.blk),
              t);
  // Event: a block of `vpage` left this node's block cache; charged the
  // writeback or replacement hint the home just received (zero when the
  // victim's memory is local and no message exists).
  {
    PolicyEvent ev;
    ev.kind = PolicyEventKind::kEviction;
    ev.page = vpage;
    ev.blk = v.blk;
    ev.node = n;
    ev.peer = vpi->home;
    ev.is_write = dirty;
    ev.bytes =
        (vpi->home == n)
            ? 0
            : (dirty
                   ? Message::writeback(n, vpi->home, v.blk).total_bytes()
                   : Message::control(MsgKind::kHint, n, vpi->home, v.blk)
                         .total_bytes());
    ev.now = t;
    engine_->dispatch(ev, &pt_.info(vpage));
  }
  DirEntry& e = dir_.entry(v.blk);
  if (dirty) {
    DSM_DEBUG_ASSERT(e.state == DirState::kExclusive && e.owner == n);
    e.state = DirState::kUncached;
    e.owner = kNoNode;
    e.sharers.clear();
  } else {
    if (e.state == DirState::kShared) {
      e.remove_sharer(n, nsl_);
      if (e.sharers.empty()) e.state = DirState::kUncached;
    } else if (e.state == DirState::kExclusive && e.owner == n) {
      // Clean-exclusive eviction.
      e.state = DirState::kUncached;
      e.owner = kNoNode;
    }
  }
}

unsigned DsmSystem::flush_page_at_node(NodeId n, Addr page, MissClass reason) {
  unsigned flushed = 0;
  const Addr first_blk = page << (kPageBits - kBlockBits);
  const CpuId first_cpu = n * cfg_.cpus_per_node;
  for (unsigned i = 0; i < kBlocksPerPage; ++i) {
    const Addr blk = first_blk + i;
    bool present = false;
    for (CpuId c = first_cpu; c < first_cpu + cfg_.cpus_per_node; ++c) {
      if (l1_[c]->probe(blk)) {
        l1_[c]->invalidate(blk, reason);
        present = true;
      }
    }
    if (bc_[n]->probe(blk)) {
      bc_[n]->invalidate(blk);
      present = true;
    }
    if (PageCache::Frame* f = pc_[n]->find(page)) {
      if (f->has(i)) {
        f->tag[i] = NodeState::kInvalid;
        f->valid_blocks--;
        present = true;
      }
    }
    if (present) {
      history_[n].mark(blk, reason);
      flushed++;
      // Directory: the node no longer caches the block.
      DirEntry& e = dir_.entry(blk);
      if (e.state == DirState::kExclusive && e.owner == n) {
        e.state = DirState::kUncached;
        e.owner = kNoNode;
        e.sharers.clear();
      } else if (e.state == DirState::kShared) {
        e.remove_sharer(n, nsl_);
        if (e.sharers.empty()) e.state = DirState::kUncached;
      }
    }
  }
  stats_->node[n].blocks_flushed += flushed;
  return flushed;
}

}  // namespace dsm
