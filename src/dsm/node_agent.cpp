// Node agent: node-level access paths and snoop.
//
// Everything below operates within one node (L1s, node bus, block
// cache, S-COMA page cache) and escalates to the home agent
// (dsm/home_agent.cpp) when a transaction must leave the node. The only
// interconnect activity initiated here is the off-critical-path victim
// notification on a block-cache eviction, sent as a typed writeback or
// replacement-hint message.
#include "dsm/cluster.hpp"

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

// The L1 state a fill grants: M for a write, E when the node holds the
// block exclusively, S otherwise.
L1State l1_fill_state(bool write, NodeState node) {
  if (write) return L1State::kM;
  return node == NodeState::kModified ? L1State::kE : L1State::kS;
}
}  // namespace

// ---------------------------------------------------------------------------
// Steps every access path shares
// ---------------------------------------------------------------------------

Cycle DsmSystem::restart(const MemAccess& a, Cycle t) {
  MemAccess retry = a;
  retry.start = t;
  return access(retry);
}

Cycle DsmSystem::bus_request(NodeId n, Cycle t) {
  const Cycle occ = cfg_.timing.bus_arb + cfg_.timing.bus_addr;
  return bus_[n].reserve(t, occ) + occ;
}

Cycle DsmSystem::bus_fill(NodeId n, Cycle t, Cycle occ) {
  return bus_[n].reserve(t, occ) + occ + cfg_.timing.fill;
}

Cycle DsmSystem::upgrade_at_home(const MemAccess& a, PageInfo& pi, Addr blk,
                                 Cycle t) {
  const Addr page = page_of(a.addr);
  t = remote_upgrade(a.node, page, blk, t);
  // Priced at the page's home after the round trip, which re-homes the
  // page when the old home is dead.
  emit_counted(/*upgrade=*/true, page, pi, a.node, /*is_write=*/true,
               upgrade_bytes(a.node, pi.home, blk), t);
  return t;
}

NodeState* DsmSystem::node_copy(NodeId n, bool scoma, Addr blk) {
  if (!scoma) {
    BlockCache::Entry* be = bc_[n]->probe(blk);
    return be ? &be->state : nullptr;
  }
  PageCache::Frame* f = pc_[n]->find(page_of(blk << kBlockBits));
  const unsigned bix = block_index_in_page(blk << kBlockBits);
  return f && f->has(bix) ? &f->tag[bix] : nullptr;
}

// ---------------------------------------------------------------------------
// L1 upgrade
// ---------------------------------------------------------------------------

Cycle DsmSystem::access_upgrade(const MemAccess& a, PageInfo& pi, Addr blk,
                                Cycle t) {
  t = bus_request(a.node, t + cfg_.timing.l1_miss_detect);

  // Does the node already own the block cluster-wide?
  const DirEntry& e = dir_.entry(blk);
  if (!(e.state == DirState::kExclusive && e.owner == a.node)) {
    t = upgrade_at_home(a, pi, blk, t);
    // A policy fired a page op off this event and its gather flushed
    // our own copies: the mapping changed under the access.
    if (l1_[a.cpu]->probe(blk) == nullptr) return restart(a, t);
  }
  // Invalidate peer L1 copies on this node.
  for (CpuId c = a.node * cfg_.cpus_per_node;
       c < (a.node + 1) * cfg_.cpus_per_node; ++c) {
    if (c != a.cpu) l1_[c]->invalidate(blk, MissClass::kCoherence);
  }
  // Node-level state -> modified.
  const bool scoma = pi.mode[a.node] == PageMode::kScoma;
  if (scoma || pi.home != a.node) {
    NodeState* held = node_copy(a.node, scoma, blk);
    DSM_ASSERT(held || !scoma, "S-COMA L1 copy outside its frame");
    if (held) *held = NodeState::kModified;
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
  for (CpuId c = first; c < last; ++c) {
    if (c == a.cpu) continue;
    if (L1Cache::Line* ln = l1_[c]->probe(blk)) {
      if (!supplier || int(ln->state) > int(supplier->state)) supplier = ln;
    }
  }
  if (!supplier) return false;

  if (!a.write) {
    // Cache-to-cache read supply. MOESI: M -> O, E -> S; O/S unchanged.
    if (supplier->state == L1State::kM) supplier->state = L1State::kO;
    if (supplier->state == L1State::kE) supplier->state = L1State::kS;
    l1_install(a, blk, L1State::kS);
    t = bus_fill(a.node, t, cfg_.timing.bus_data);
    return true;
  }

  // Write: only resolvable within the node if the node is exclusive
  // cluster-wide (peer holding M/E/O implies node-level kModified, or a
  // local page with directory exclusivity at this node).
  const DirEntry& e = dir_.entry(blk);
  if (!(e.state == DirState::kExclusive && e.owner == a.node))
    return false;  // fall through to upgrade paths
  for (CpuId c = first; c < last; ++c)
    if (c != a.cpu) l1_[c]->invalidate(blk, MissClass::kCoherence);
  l1_install(a, blk, L1State::kM);
  t = bus_fill(a.node, t, cfg_.timing.bus_data);
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
    e.grant_exclusive(home);
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
      e.grant_exclusive(home);
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
  return bus_fill(a.node, t, cfg_.timing.bus_data);
}

// ---------------------------------------------------------------------------
// Remote page path: the node's copy lives in its block cache (CC-NUMA) or,
// once R-NUMA relocated the page, in the page's S-COMA frame
// ---------------------------------------------------------------------------

Cycle DsmSystem::access_remote(const MemAccess& a, PageInfo& pi, Addr blk,
                               Cycle t) {
  const Addr page = page_of(a.addr);
  const bool scoma = pi.mode[a.node] == PageMode::kScoma;
  if (scoma) {
    DSM_ASSERT(pc_[a.node]->find(page) != nullptr,
               "S-COMA mapped page has no frame");
    pc_[a.node]->touch(page);
  }
  // Block-cache probe, or the frame's fine-grain tag lookup (memory
  // inhibit check).
  t += cfg_.timing.bc_lookup;

  if (NodeState* held = node_copy(a.node, scoma, blk)) {
    if (!a.write || *held == NodeState::kModified) {
      // Node-level hit. The paper keeps block-cache and page-cache
      // supply latencies/occupancies comparable (Section 2), so both
      // cost the same as a local memory fill.
      if (scoma)
        stats_->node[a.node].pc_hits++;
      else
        stats_->node[a.node].bc_hits++;
      l1_install(a, blk, l1_fill_state(a.write, *held));
      return bus_fill(a.node, t + cfg_.timing.mem_access,
                      cfg_.timing.bus_data);
    }
    // Write to a node-shared block: upgrade at home. Re-probe after: a
    // policy page op may have flushed this node's copies, or released
    // the frame outright, while the event dispatched.
    t = upgrade_at_home(a, pi, blk, t);
    held = node_copy(a.node, scoma, blk);
    if (held == nullptr) return restart(a, t);
    record_remote_miss(a.node, MissClass::kCoherence);
    *held = NodeState::kModified;
    l1_install(a, blk, L1State::kM);
    return bus_fill(a.node, t, cfg_.timing.bus_data);
  }

  // Miss: fetch the block from home. Under CC-NUMA the event reaches the
  // requester-side rules (R-NUMA relocation, adaptive) before the fetch
  // leaves the node; a rule may relocate the page to S-COMA — the
  // access then continues on the S-COMA path — and/or delay the fetch
  // by returning a later cycle.
  const MissClass node_class = history_[a.node].classify(blk);
  if (!scoma) {
    PolicyEvent ev;
    ev.kind = PolicyEventKind::kRemoteFetch;
    ev.page = page;
    ev.node = a.node;
    ev.miss_class = node_class;
    ev.now = t;
    t = engine_.dispatch(ev, pi);
    if (pi.mode[a.node] == PageMode::kScoma)
      return access_remote(a, pi, blk, t);
  }
  record_remote_miss(a.node, node_class);
  NodeState granted = NodeState::kShared;
  t = remote_fetch(a.node, page, blk, a.write, t, &granted);
  // The fetch aborted: a page op moved the mapping mid-transaction (the
  // frame may be flushed or released).
  if (granted == NodeState::kInvalid) return restart(a, t);
  if (scoma) {
    PageCache::Frame* f = pc_[a.node]->find(page);
    const unsigned bix = block_index_in_page(a.addr);
    if (!f->has(bix)) f->valid_blocks++;
    f->tag[bix] = granted;
  } else {
    bc_install(a.node, blk, granted, t);
  }
  l1_install(a, blk, l1_fill_state(a.write, granted));
  return bus_fill(a.node, t, cfg_.timing.bus_arb + cfg_.timing.bus_data);
}

// ---------------------------------------------------------------------------
// Replica path (read-only local copy)
// ---------------------------------------------------------------------------

Cycle DsmSystem::access_replica(const MemAccess& a, Addr blk, Cycle t) {
  // Local memory supplies; coherence is trivial (page is read-only
  // cluster-wide while replicated). Track the node as a sharer so the
  // collapse path and the checker see the L1 copies.
  DirEntry& e = dir_.entry(blk);
  if (e.state == DirState::kUncached) e.state = DirState::kShared;
  DSM_ASSERT(e.state == DirState::kShared,
             "replicated page block held exclusive");
  e.add_sharer(a.node, nsl_);
  l1_install(a, blk, L1State::kS);
  stats_->node[a.node].local_mem_accesses++;
  return bus_fill(a.node, t + cfg_.timing.mem_access, cfg_.timing.bus_data);
}

// ---------------------------------------------------------------------------
// Node-level helpers
// ---------------------------------------------------------------------------

DsmSystem::NodeCopies DsmSystem::walk_copies(NodeId n, Addr blk,
                                             CopyAction act,
                                             MissClass reason) {
  NodeCopies h;
  const CpuId first = n * cfg_.cpus_per_node;
  for (CpuId c = first; c < first + cfg_.cpus_per_node; ++c) {
    L1Cache::Line* ln = l1_[c]->probe(blk);
    if (!ln) continue;
    h.l1 = true;
    h.l1_exclusive = h.l1_exclusive || ln->state != L1State::kS;
    h.l1_dirty = h.l1_dirty || l1_dirty(ln->state);
    if (act == CopyAction::kInvalidate) l1_[c]->invalidate(blk, reason);
    if (act == CopyAction::kDowngrade) ln->state = L1State::kS;
  }
  // The block cache and the page's frame: whichever holds a node copy.
  auto visit = [&](NodeState& s) {
    h.node = true;
    h.node_modified = h.node_modified || s == NodeState::kModified;
    if (act == CopyAction::kDowngrade) s = NodeState::kShared;
  };
  if (BlockCache::Entry* be = bc_[n]->probe(blk)) {
    visit(be->state);
    if (act == CopyAction::kInvalidate) bc_[n]->invalidate(blk);
  }
  if (PageCache::Frame* f = pc_[n]->find(page_of(blk << kBlockBits))) {
    const unsigned bix = block_index_in_page(blk << kBlockBits);
    if (f->has(bix)) {
      visit(f->tag[bix]);
      if (act == CopyAction::kInvalidate) {
        f->tag[bix] = NodeState::kInvalid;
        f->valid_blocks--;
      }
    }
  }
  return h;
}

bool DsmSystem::flush_block_at_node(NodeId n, Addr blk, bool invalidate,
                                    MissClass reason) {
  const NodeCopies h = walk_copies(
      n, blk, invalidate ? CopyAction::kInvalidate : CopyAction::kDowngrade,
      reason);
  if (invalidate && h.node) history_[n].mark(blk, reason);
  return h.dirty();
}

unsigned DsmSystem::flush_page_at_node(NodeId n, Addr page, MissClass reason) {
  unsigned flushed = 0;
  const Addr first_blk = page << (kPageBits - kBlockBits);
  for (Addr blk = first_blk; blk < first_blk + kBlocksPerPage; ++blk) {
    if (!walk_copies(n, blk, CopyAction::kInvalidate, reason).any()) continue;
    history_[n].mark(blk, reason);
    flushed++;
    dir_.entry(blk).drop(n, nsl_);  // the node no longer caches the block
  }
  stats_->node[n].blocks_flushed += flushed;
  return flushed;
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
  const NodeCopies l1s =
      walk_copies(n, v.blk, CopyAction::kInvalidate, MissClass::kCapacity);
  const bool dirty = v.state == NodeState::kModified || l1s.dirty();
  history_[n].mark(v.blk, MissClass::kCapacity);
  // Victim leaves the node: tell the home — a dirty block travels as a
  // writeback (data), a clean one as a replacement hint (control). If a
  // mid-transaction migration just re-homed the page to this very node,
  // the victim's memory is local and no interconnect message exists.
  // The event reports the block leaving, charged that message.
  const Addr vpage = page_of(v.blk << kBlockBits);
  PageInfo* vpi = pt_.find(vpage);
  DSM_ASSERT(vpi && vpi->home != kNoNode);
  PolicyEvent ev;
  ev.kind = PolicyEventKind::kEviction;
  ev.page = vpage;
  ev.node = n;
  ev.now = t;
  if (vpi->home != n) {
    const Message m =
        dirty ? Message::writeback(n, vpi->home, v.blk)
              : Message::control(MsgKind::kHint, n, vpi->home, v.blk);
    net_.post(m, t);
    ev.bytes = m.total_bytes();
  }
  engine_.dispatch(ev, *vpi);
  DirEntry& e = dir_.entry(v.blk);
  DSM_DEBUG_ASSERT(!dirty ||
                   (e.state == DirState::kExclusive && e.owner == n));
  e.drop(n, nsl_);
}

}  // namespace dsm
