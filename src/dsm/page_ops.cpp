// Page-operation mechanisms: replicate, migrate, collapse, relocate.
//
// These are the timed mechanisms the policy engine's rules
// (src/protocols) invoke. Bulk page copies travel as kPageBulk
// messages, charged to the page-op traffic class; the control
// choreography (collapse requests, replica invalidations, acks) travels
// as typed control messages. Block flushes during a gather are charged
// as page-op *device* occupancy (page_op_per_block), not as
// interconnect messages — see ROADMAP.md "Architecture" for the
// accounting model.
#include <algorithm>

#include "dsm/cluster.hpp"
#include "net/fault.hpp"

namespace dsm {

// ---------------------------------------------------------------------------
// Steps the page ops share
// ---------------------------------------------------------------------------

Cycle DsmSystem::gather_page(Addr page, NodeId at, Cycle t) {
  unsigned flushed = 0;
  for (NodeId s = 0; s < cfg_.nodes; ++s)
    flushed += flush_page_at_node(s, page, MissClass::kCoherence);
  const Cycle occ = cfg_.timing.page_op_cost(flushed);
  return device_[at].reserve(t, occ) + occ;
}

DsmSystem::SendOutcome DsmSystem::ship_page(const Message& bulk,
                                            PageOpKind op, PageInfo& pi,
                                            Cycle t) {
  const SendOutcome sent = send_reliable(bulk, t, /*nack_dup=*/false);
  if (!sent.ok) {
    stats_->faults.aborted_page_ops++;
    open_op_window(pi, sent.at);
    emit_page_op(op, bulk.addr, pi, bulk.dst, /*bytes=*/0, sent.at,
                 /*failed=*/true);
    return sent;
  }
  const Cycle occ = cfg_.timing.page_copy_cost(kBlocksPerPage);
  return {device_[bulk.dst].reserve(sent.at, occ) + occ, true};
}

void DsmSystem::remap_page(PageInfo& pi, Addr page, NodeId home,
                           Cycle until) {
  dir_.erase_page(page);
  // Dead frames go back to the mapper, or a later relocation would find
  // a ghost frame already allocated.
  for (NodeId s = 0; s < cfg_.nodes; ++s) {
    if (PageCache::Frame* f = pc_[s]->find(page)) {
      DSM_DEBUG_ASSERT(f->valid_blocks == 0, "gather left blocks in frame");
      pc_[s]->release(page);
    }
  }
  pi.home = home;
  pi.replicated = false;
  pi.replicas.clear();
  for (NodeId s = 0; s < cfg_.nodes; ++s)
    pi.mode[s] = (s == home) ? PageMode::kCcNuma : PageMode::kUnmapped;
  open_op_window(pi, until);
}

void DsmSystem::emit_page_op(PageOpKind op, Addr page, PageInfo& pi,
                             NodeId node, std::uint64_t bytes, Cycle now,
                             bool failed) {
  PolicyEvent ev;
  ev.kind = PolicyEventKind::kPageOpComplete;
  ev.op = op;
  ev.page = page;
  ev.node = node;
  ev.failed = failed;
  ev.bytes = bytes;
  ev.now = now;
  engine_.dispatch(ev, pi);
}

// ---------------------------------------------------------------------------
// Page ops
// ---------------------------------------------------------------------------

Cycle DsmSystem::replicate_page(Addr page, NodeId node, Cycle now) {
  PageInfo& pi = pt_.info(page);
  const NodeId home = pi.home;
  DSM_ASSERT(node != home && pi.mode[node] != PageMode::kReplica);

  // Gather: make the home copy current. Dirty copies anywhere are
  // written back; every cacher's copy of the page is flushed (poison
  // bits allow lazy TLB invalidation, so only the home takes a trap).
  stats_->node[home].soft_traps++;
  Cycle t = gather_page(page, home, std::max(now, pi.op_pending_until));

  // After the gather no node caches any block of the page; entries that
  // still read kExclusive are stale left-overs of silent clean-exclusive
  // L1 drops. Normalize them so replica reads see a consistent state.
  dir_.erase_page(page);

  // Copy the page to the replica node; an aborted copy leaves it
  // unreplicated.
  const Message bulk = Message::page_bulk(home, node, page, kBlocksPerPage);
  const SendOutcome copied = ship_page(bulk, PageOpKind::kReplicate, pi, t);
  if (!copied.ok) return copied.at;
  t = copied.at + cfg_.timing.tlb_shootdown;  // map it read-only at `node`
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
  open_op_window(pi, t);
  stats_->node[node].page_replications++;
  stats_->node[node].blocks_copied += kBlocksPerPage;
  emit_page_op(PageOpKind::kReplicate, page, pi, node, bulk.total_bytes(), t);
  return t;
}

Cycle DsmSystem::migrate_page(Addr page, NodeId node, Cycle now) {
  PageInfo& pi = pt_.info(page);
  const NodeId old_home = pi.home;
  DSM_ASSERT(node != old_home);
  DSM_ASSERT(!pi.replicated, "migrating a replicated page");

  // Gather and poison: flush every cached copy cluster-wide, set poison
  // bits for lazy TLB invalidation, lock the mapper.
  stats_->node[old_home].soft_traps++;
  Cycle t = gather_page(page, old_home, std::max(now, pi.op_pending_until));
  t += cfg_.timing.tlb_shootdown;  // home shootdown (others are lazy)
  stats_->node[old_home].tlb_shootdowns++;

  // Move the page to the new home; an aborted move leaves the directory
  // and every mapping naming the old home.
  const Message bulk =
      Message::page_bulk(old_home, node, page, kBlocksPerPage);
  const SendOutcome moved = ship_page(bulk, PageOpKind::kMigrate, pi, t);
  if (!moved.ok) return moved.at;
  t = moved.at;
  remap_page(pi, page, node, t);
  stats_->node[node].page_migrations++;
  stats_->node[node].blocks_copied += kBlocksPerPage;

  // The completion event also resets the page's observation counters
  // (the engine clears the miss history a migration invalidates).
  emit_page_op(PageOpKind::kMigrate, page, pi, node, bulk.total_bytes(), t);
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
      return emergency_rehome(page, home, ho.at);
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
  open_op_window(pi, done);
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
  ev.bytes = wire_bytes;
  ev.now = back;
  engine_.dispatch(ev, pi);
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
//      traffic on the reliable-transaction layer, dsm/recovery.cpp);
//      dirty survivor copies ship recovery-flagged writebacks so the
//      successor's memory is current before the teardown discards them.
//   3. Re-home — migration's teardown: the gather flushes every cached
//      copy, and the re-map erases the directory entries (they start
//      clean at the successor), releases S-COMA frames, tears down every
//      mapping and moves pi.home. Survivors refault the page against
//      the new home on demand.
//
// The dead home's own cached copies die with it: a dirty one means the
// last write survives nowhere — counted as a distinct data loss, the
// one irrecoverable crash outcome.
Cycle DsmSystem::emergency_rehome(Addr page, NodeId dead_home, Cycle t) {
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

  for (Addr blk = first_blk; blk < first_blk + kBlocksPerPage; ++blk)
    if (walk_copies(dead_home, blk).dirty()) stats_->faults.data_losses++;

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
    for (Addr blk = first_blk; blk < first_blk + kBlocksPerPage; ++blk) {
      if (!walk_copies(s, blk).dirty()) continue;
      Message wb = Message::writeback(s, succ, blk);
      wb.recovery = true;
      net_.post(wb, ts);
    }
    Message rep = Message::control(MsgKind::kAck, s, succ, page);
    rep.recovery = true;
    census_done = std::max(census_done, reply_reliable(rep, q, ts));
  }

  // Migration's teardown, with the successor as the new home.
  ready = gather_page(page, succ, census_done) + cfg_.timing.tlb_shootdown;
  stats_->node[succ].tlb_shootdowns++;
  remap_page(pi, page, succ, ready);

  // Completion event: like a migration, the new home's monitoring
  // counters start fresh (the old home's died with it).
  emit_page_op(PageOpKind::kRehome, page, pi, succ, /*bytes=*/0, ready);
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

  // No bulk copy: the frame fills by demand fetches.
  emit_page_op(PageOpKind::kRelocate, page, pi, node, /*bytes=*/0, t);
  return t;
}

}  // namespace dsm
