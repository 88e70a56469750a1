// Page-operation mechanisms: replicate, migrate, collapse, relocate.
//
// These are the timed mechanisms the policies (src/protocols) invoke.
// Bulk page copies travel as kPageBulk messages, charged to the page-op
// traffic class; the control choreography (collapse requests, replica
// invalidations, acks) travels as typed control messages. Block flushes
// during a gather are charged as page-op *device* occupancy
// (page_op_per_block), not as interconnect messages — see ROADMAP.md
// "Architecture" for the accounting model.
#include <algorithm>

#include "dsm/cluster.hpp"
#include "net/fault.hpp"
#include "protocols/policy_engine.hpp"

namespace dsm {

namespace {
// Byte charge of the bulk copy a migration/replication ships.
std::uint64_t page_bulk_bytes(NodeId src, NodeId dst, Addr page) {
  return Message::page_bulk(src, dst, page, kBlocksPerPage).total_bytes();
}
}  // namespace

Cycle DsmSystem::replicate_page(Addr page, NodeId node, Cycle now) {
  PageInfo& pi = pt_.info(page);
  const NodeId home = pi.home;
  DSM_ASSERT(node != home && pi.mode[node] != PageMode::kReplica);
  Cycle t = std::max(now, pi.op_pending_until);

  // Gather: make the home copy current. Dirty copies anywhere are
  // written back; every cacher's copy of the page is flushed (poison
  // bits allow lazy TLB invalidation, so only the home takes a trap).
  unsigned flushed = 0;
  for (NodeId s = 0; s < cfg_.nodes; ++s)
    flushed += flush_page_at_node(s, page, MissClass::kCoherence);
  stats_->node[home].soft_traps++;
  const Cycle gather_occ = cfg_.timing.page_op_cost(flushed);
  t = device_[home].reserve(t, gather_occ) + gather_occ;

  // After the gather no node caches any block of the page; entries that
  // still read kExclusive are stale left-overs of silent clean-exclusive
  // L1 drops. Normalize them so replica reads see a consistent state.
  const Addr first_blk_rep = page << (kPageBits - kBlockBits);
  for (unsigned i = 0; i < kBlocksPerPage; ++i)
    dir_.erase(first_blk_rep + i);

  // Copy the page to the replica node. After retry exhaustion the op
  // aborts cleanly: the gather already emptied every cache (demand
  // fetches repopulate them) and no mapping was touched yet, so the
  // rolled-back state is simply "not replicated".
  const SendOutcome bulk = send_reliable(
      Message::page_bulk(home, node, page, kBlocksPerPage), t,
      /*nack_dup=*/false);
  if (!bulk.ok) {
    stats_->faults.aborted_page_ops++;
    pi.op_pending_until = bulk.at;
    PolicyEvent ev;
    ev.kind = PolicyEventKind::kPageOpComplete;
    ev.op = PageOpKind::kReplicate;
    ev.page = page;
    ev.node = node;
    ev.peer = home;
    ev.failed = true;
    ev.now = bulk.at;
    engine_->dispatch(ev, &pi);
    return bulk.at;
  }
  t = bulk.at;
  const Cycle copy_occ = cfg_.timing.page_copy_cost(kBlocksPerPage);
  t = device_[node].reserve(t, copy_occ) + copy_occ;
  t += cfg_.timing.tlb_shootdown;  // map the replica read-only at `node`
  stats_->node[node].tlb_shootdowns++;

  // The replica supersedes any S-COMA mapping the target held: return
  // the (gather-emptied) frame to the mapper. Other nodes keep their
  // mappings — their frames refill by demand fetches from the home.
  if (PageCache::Frame* f = pc_[node]->find(page)) {
    DSM_DEBUG_ASSERT(f->valid_blocks == 0, "gather left blocks in frame");
    pc_[node]->release(page);
  }

  pi.replicated = true;
  pi.replicas.add(node, nsl_);
  pi.mode[node] = PageMode::kReplica;
  pi.op_pending_until = t;
  stats_->node[node].page_replications++;
  stats_->node[node].blocks_copied += kBlocksPerPage;

  PolicyEvent ev;
  ev.kind = PolicyEventKind::kPageOpComplete;
  ev.op = PageOpKind::kReplicate;
  ev.page = page;
  ev.node = node;
  ev.peer = home;
  ev.bytes = page_bulk_bytes(home, node, page);
  ev.now = t;
  engine_->dispatch(ev, &pi);
  return t;
}

Cycle DsmSystem::migrate_page(Addr page, NodeId node, Cycle now) {
  PageInfo& pi = pt_.info(page);
  const NodeId old_home = pi.home;
  DSM_ASSERT(node != old_home);
  DSM_ASSERT(!pi.replicated, "migrating a replicated page");
  Cycle t = std::max(now, pi.op_pending_until);

  // Gather and poison: flush every cached copy cluster-wide, set poison
  // bits for lazy TLB invalidation, lock the mapper.
  unsigned flushed = 0;
  for (NodeId s = 0; s < cfg_.nodes; ++s)
    flushed += flush_page_at_node(s, page, MissClass::kCoherence);
  stats_->node[old_home].soft_traps++;
  const Cycle gather_occ = cfg_.timing.page_op_cost(flushed);
  t = device_[old_home].reserve(t, gather_occ) + gather_occ;
  t += cfg_.timing.tlb_shootdown;  // home shootdown (others are lazy)
  stats_->node[old_home].tlb_shootdowns++;

  // Move the page to the new home. After retry exhaustion the op aborts
  // cleanly: caches are already gathered (refilled on demand), the
  // directory and every mapping still name the old home.
  const SendOutcome bulk = send_reliable(
      Message::page_bulk(old_home, node, page, kBlocksPerPage), t,
      /*nack_dup=*/false);
  if (!bulk.ok) {
    stats_->faults.aborted_page_ops++;
    pi.op_pending_until = bulk.at;
    PolicyEvent ev;
    ev.kind = PolicyEventKind::kPageOpComplete;
    ev.op = PageOpKind::kMigrate;
    ev.page = page;
    ev.node = node;
    ev.peer = old_home;
    ev.failed = true;
    ev.now = bulk.at;
    engine_->dispatch(ev, &pi);
    return bulk.at;
  }
  t = bulk.at;
  const Cycle copy_occ = cfg_.timing.page_copy_cost(kBlocksPerPage);
  t = device_[node].reserve(t, copy_occ) + copy_occ;

  // Directory state for the page's blocks starts clean at the new home.
  const Addr first_blk = page << (kPageBits - kBlockBits);
  for (unsigned i = 0; i < kBlocksPerPage; ++i) dir_.erase(first_blk + i);

  // Every node's mapping is torn down below: S-COMA frames holding the
  // page are dead and must be returned to the mapper, or a later
  // re-relocation would find a ghost frame already allocated.
  for (NodeId s = 0; s < cfg_.nodes; ++s) {
    if (PageCache::Frame* f = pc_[s]->find(page)) {
      DSM_DEBUG_ASSERT(f->valid_blocks == 0, "gather left blocks in frame");
      pc_[s]->release(page);
    }
  }

  pi.home = node;
  for (NodeId s = 0; s < cfg_.nodes; ++s)
    pi.mode[s] = (s == node) ? PageMode::kCcNuma : PageMode::kUnmapped;
  pi.op_pending_until = t;
  stats_->node[node].page_migrations++;
  stats_->node[node].blocks_copied += kBlocksPerPage;

  // The completion event also resets the page's observation counters
  // (the engine clears the miss history a migration invalidates).
  PolicyEvent ev;
  ev.kind = PolicyEventKind::kPageOpComplete;
  ev.op = PageOpKind::kMigrate;
  ev.page = page;
  ev.node = node;
  ev.peer = old_home;
  ev.bytes = page_bulk_bytes(old_home, node, page);
  ev.now = t;
  engine_->dispatch(ev, &pi);
  return t;
}

Cycle DsmSystem::collapse_replicas(Addr page, NodeId writer_node, Cycle now) {
  PageInfo& pi = pt_.info(page);
  DSM_ASSERT(pi.replicated);
  const NodeId home = pi.home;
  Cycle t = std::max(now, pi.op_pending_until);
  std::uint64_t wire_bytes = 0;

  // Write-protection fault at the writer, then a switch-to-R/W request
  // at the home (a page-grain upgrade message).
  // Every leg below is demand-path: the triggering write cannot abort,
  // so retry exhaustion escalates to the reliable channel (hard error)
  // instead of rolling back.
  stats_->node[writer_node].soft_traps++;
  t += cfg_.timing.soft_trap;
  Cycle th = t;
  const Message up =
      Message::control(MsgKind::kUpgrade, writer_node, home, page);
  if (writer_node != home) {
    wire_bytes += up.total_bytes();
    const DemandOutcome ho = send_demand(up, t, /*nack_dup=*/true);
    if (ho.dst_dead) {
      // Dead home: the emergency re-home tears down every replica and
      // mapping, which *is* the collapse — the page comes back
      // read-write at the successor and the write refaults it.
      return emergency_rehome(page, home, writer_node, ho.at);
    }
    th = ho.at;
  }
  th = device_[home].reserve(th, cfg_.timing.soft_trap) +
       cfg_.timing.soft_trap;
  stats_->node[home].soft_traps++;

  // Invalidate every member of the replica set (parallel round trips
  // from home). Under a coarse-vector scheme the set is a conservative
  // superset: non-replica nodes it covers still receive the inval order
  // and ack it — that overshoot traffic is charged for real. Only nodes
  // actually mapped kReplica are remapped.
  Cycle done = th;
  pi.replicas.for_each(nsl_, [&](NodeId s) {
    if (s == home) return;
    const Message inv = Message::control(MsgKind::kInval, home, s, page);
    const DemandOutcome so = send_demand(inv, th, /*nack_dup=*/false);
    if (so.dst_dead) {
      // Dead replica holder: its read-only copy dies with it. Flush the
      // bookkeeping and remap without wire traffic (replicas are clean
      // by construction, so nothing is lost).
      flush_page_at_node(s, page, MissClass::kCoherence);
      if (pi.mode[s] == PageMode::kReplica) pi.mode[s] = PageMode::kCcNuma;
      return;
    }
    const Message ack = Message::control(MsgKind::kAck, s, home, page);
    wire_bytes += inv.total_bytes() + ack.total_bytes();
    Cycle ts = so.at;
    flush_page_at_node(s, page, MissClass::kCoherence);
    ts += cfg_.timing.tlb_shootdown;
    stats_->node[s].tlb_shootdowns++;
    if (pi.mode[s] == PageMode::kReplica)
      pi.mode[s] = PageMode::kCcNuma;  // remap as an ordinary remote page
    done = std::max(done, reply_reliable(ack, inv, ts));
  });
  pi.replicated = false;
  pi.replicas.clear();
  pi.op_pending_until = done;
  stats_->node[writer_node].replica_collapses++;
  Cycle back = done;
  if (writer_node != home) {
    const Message grant =
        Message::control(MsgKind::kAck, home, writer_node, page);
    wire_bytes += grant.total_bytes();
    back = reply_reliable(grant, up, done);
  }

  PolicyEvent ev;
  ev.kind = PolicyEventKind::kReplicaCollapse;
  ev.page = page;
  ev.node = writer_node;
  ev.peer = home;
  ev.is_write = true;
  ev.bytes = wire_bytes;
  ev.now = back;
  engine_->dispatch(ev, &pi);
  return back;
}

// Survivable homes: emergency re-homing after the page's home node
// crashed (net/fault.hpp node-crash windows). The requester-side
// timeout escalation (send_demand reporting dst_dead) lands here. The
// protocol is the paper's migration teardown re-purposed as recovery:
//
//   1. Successor election — the next live node after the dead home in
//      node order. Deterministic, so every requester elects the same
//      successor without coordination.
//   2. Directory reconstruction — the successor queries every live node
//      for its copies of the page (kRebuild census, recovery-class
//      traffic riding the sequence-numbered transaction machinery);
//      dirty survivor copies ship recovery-flagged writebacks so the
//      successor's memory is current before the teardown discards them.
//   3. Re-home — migrate-style teardown: every cached copy flushed,
//      directory entries erased (they start clean at the successor),
//      S-COMA frames released, all mappings torn down, pi.home moved.
//      Survivors refault the page against the new home on demand.
//
// The dead home's own cached copies die with it: a dirty one means the
// last write survives nowhere — counted as a distinct data loss, the
// one irrecoverable crash outcome.
Cycle DsmSystem::emergency_rehome(Addr page, NodeId dead_home,
                                  NodeId requester, Cycle t) {
  PageInfo& pi = pt_.info(page);
  // Another requester may already have re-homed the page while this one
  // sat in its timeout storm; the new mapping is simply usable.
  if (pi.home != dead_home) return std::max(t, pi.op_pending_until);
  const FaultPlan* plan = net_.fault_plan();
  DSM_ASSERT(plan != nullptr, "re-homing without a fault plan");

  NodeId succ = kNoNode;
  for (std::uint32_t i = 1; i < cfg_.nodes; ++i) {
    const NodeId cand = NodeId((dead_home + i) % cfg_.nodes);
    if (!plan->node_down(cand, t)) {
      succ = cand;
      break;
    }
  }
  DSM_ASSERT(succ != kNoNode, "no live node left to re-home onto");
  stats_->faults.rehomes++;
  stats_->node[succ].soft_traps++;
  Cycle ready = std::max(t, pi.op_pending_until) + cfg_.timing.soft_trap;

  const Addr first_blk = page << (kPageBits - kBlockBits);
  // Count the directory entries the census reconstructs, and the dead
  // home's dirty blocks — those die with it (see above).
  std::uint64_t rebuilt = 0;
  for (unsigned i = 0; i < kBlocksPerPage; ++i)
    if (const DirEntry* e = dir_.find(first_blk + i))
      if (e->state != DirState::kUncached) rebuilt++;
  stats_->faults.dir_rebuilds += rebuilt;

  // Non-destructive block probe at a node: present anywhere / dirty.
  auto probe_block = [&](NodeId n, Addr blk, bool* dirty) {
    bool has = false;
    *dirty = false;
    const CpuId first_cpu = n * cfg_.cpus_per_node;
    for (CpuId c = first_cpu; c < first_cpu + cfg_.cpus_per_node; ++c)
      if (const L1Cache::Line* ln = l1_[c]->probe(blk)) {
        has = true;
        if (l1_dirty(ln->state)) *dirty = true;
      }
    if (const BlockCache::Entry* be = bc_[n]->probe(blk)) {
      has = true;
      if (be->state == NodeState::kModified) *dirty = true;
    }
    if (const PageCache::Frame* f = pc_[n]->find(page)) {
      const unsigned bix = unsigned(blk - first_blk);
      if (f->has(bix)) {
        has = true;
        if (f->tag[bix] == NodeState::kModified) *dirty = true;
      }
    }
    return has;
  };

  for (unsigned i = 0; i < kBlocksPerPage; ++i) {
    bool dirty = false;
    if (probe_block(dead_home, first_blk + i, &dirty) && dirty)
      stats_->faults.data_losses++;
  }

  // Survivor census (parallel round trips from the successor).
  Cycle census_done = ready;
  for (NodeId s = 0; s < cfg_.nodes; ++s) {
    if (s == succ || s == dead_home) continue;
    const Message q = Message::rebuild(succ, s, page);
    const DemandOutcome qo = send_demand(q, ready, /*nack_dup=*/false);
    if (qo.dst_dead) continue;  // also dead: nothing to learn, or save
    const Cycle occ = cfg_.timing.bc_lookup + cfg_.timing.protocol_fsm;
    Cycle ts = device_[s].reserve(qo.at, occ) + occ;
    // Dirty survivor copies ship home-of-record updates so the
    // successor's memory is current before the teardown discards them.
    for (unsigned i = 0; i < kBlocksPerPage; ++i) {
      bool dirty = false;
      if (probe_block(s, first_blk + i, &dirty) && dirty) {
        Message wb = Message::writeback(s, succ, first_blk + i);
        wb.recovery = true;
        net_.post(wb, ts);
      }
    }
    Message rep = Message::control(MsgKind::kAck, s, succ, page);
    rep.recovery = true;
    census_done = std::max(census_done, reply_reliable(rep, q, ts));
  }

  // Migrate-style teardown: flush every cached copy, erase the page's
  // directory entries, release S-COMA frames, tear down every mapping.
  unsigned flushed = 0;
  for (NodeId s = 0; s < cfg_.nodes; ++s)
    flushed += flush_page_at_node(s, page, MissClass::kCoherence);
  const Cycle rebuild_occ = cfg_.timing.page_op_cost(flushed);
  ready = device_[succ].reserve(census_done, rebuild_occ) + rebuild_occ;
  ready += cfg_.timing.tlb_shootdown;
  stats_->node[succ].tlb_shootdowns++;
  for (unsigned i = 0; i < kBlocksPerPage; ++i) dir_.erase(first_blk + i);
  for (NodeId s = 0; s < cfg_.nodes; ++s) {
    if (PageCache::Frame* f = pc_[s]->find(page)) {
      DSM_DEBUG_ASSERT(f->valid_blocks == 0, "teardown left blocks in frame");
      pc_[s]->release(page);
    }
  }
  pi.home = succ;
  pi.replicated = false;
  pi.replicas.clear();
  for (NodeId s = 0; s < cfg_.nodes; ++s)
    pi.mode[s] = (s == succ) ? PageMode::kCcNuma : PageMode::kUnmapped;
  pi.op_pending_until = ready;

  // Completion event: like a migration, the new home's monitoring
  // counters start fresh (the old home's died with it).
  PolicyEvent ev;
  ev.kind = PolicyEventKind::kPageOpComplete;
  ev.op = PageOpKind::kRehome;
  ev.page = page;
  ev.node = succ;
  ev.peer = dead_home;
  ev.now = ready;
  engine_->dispatch(ev, &pi);
  (void)requester;
  return ready;
}

Cycle DsmSystem::relocate_to_scoma(NodeId node, Addr page, Cycle now) {
  PageInfo& pi = pt_.info(page);
  DSM_ASSERT(pi.mode[node] == PageMode::kCcNuma && pi.home != node);
  PageCache& pc = *pc_[node];
  Cycle t = now;

  // Make room: evict the LRU frame if the page cache is full.
  if (!pc.has_free_frame()) {
    const Addr victim = pc.pick_victim();
    PageInfo& vpi = pt_.info(victim);
    const unsigned vflushed =
        flush_page_at_node(node, victim, MissClass::kCapacity);
    pc.release(victim);
    vpi.mode[node] = PageMode::kUnmapped;  // deallocation: refault later
    const Cycle evict_occ =
        cfg_.timing.page_op_cost(vflushed) + cfg_.timing.tlb_shootdown;
    t = device_[node].reserve(t, evict_occ) + evict_occ;
    stats_->node[node].page_cache_evictions++;
    stats_->node[node].tlb_shootdowns++;
    stats_->node[node].soft_traps++;
  }

  // Flush the page's CC-NUMA copies at this node (they will be
  // refetched on demand into the frame) and remap.
  const unsigned flushed = flush_page_at_node(node, page, MissClass::kCapacity);
  const Cycle reloc_occ =
      cfg_.timing.page_op_cost(flushed) + cfg_.timing.tlb_shootdown;
  t = device_[node].reserve(t, reloc_occ) + reloc_occ;
  stats_->node[node].soft_traps++;
  stats_->node[node].tlb_shootdowns++;

  pc.allocate(page);
  pi.mode[node] = PageMode::kScoma;
  stats_->node[node].page_relocations++;

  PolicyEvent ev;
  ev.kind = PolicyEventKind::kPageOpComplete;
  ev.op = PageOpKind::kRelocate;
  ev.page = page;
  ev.node = node;
  ev.peer = pi.home;
  ev.bytes = 0;  // no bulk copy: the frame fills by demand fetches
  ev.now = t;
  engine_->dispatch(ev, &pi);
  return t;
}

}  // namespace dsm
