// Home agent: cluster-level directory transactions.
//
// Every transaction here is a sequence of typed interconnect messages
// (net/message.hpp) between the requesting node and the block's home:
//
//   remote_fetch    GETS/GETX -> home, DATA reply (possibly after an
//                   INVAL/recall round to sharers or the owner)
//   remote_upgrade  UPGRADE -> home, INVAL round, ACK reply
//   recalls         INVAL -> owner, WB (dirty data) or ACK back home
//
// The fabric charges each message's bytes to its traffic class at the
// sender, so Table-4 style per-node traffic falls out of these paths
// without any extra bookkeeping here.
#include <algorithm>

#include "dsm/cluster.hpp"

namespace dsm {

Cycle DsmSystem::remote_fetch(NodeId requester, Addr page, Addr blk,
                              bool write, Cycle t, NodeState* granted) {
  PageInfo& pi = pt_.info(page);
  const NodeId home = pi.home;
  DSM_ASSERT(home != kNoNode);
  const PageMode entry_mode = pi.mode[requester];

  // Request message to home + directory lookup.
  const Message req = Message::control(
      write ? MsgKind::kGetX : MsgKind::kGetS, requester, home, blk);
  const DemandOutcome ho = send_demand(req, t, /*nack_dup=*/true);
  if (ho.dst_dead) {
    // The home is inside a crash window and stopped answering: elect a
    // successor, rebuild the directory from the survivors, and restart
    // the access against the new mapping (kInvalid is the restart
    // signal, exactly like the page-op race below).
    const Cycle ready = emergency_rehome(page, home, ho.at);
    *granted = NodeState::kInvalid;
    return ready;
  }
  Cycle th = ho.at;
  const Cycle dir_occ = cfg_.timing.dir_lookup + cfg_.timing.protocol_fsm;
  th = device_[home].reserve(th, dir_occ) + dir_occ;

  // Counted miss at the home: the event carries the transaction's
  // request + data-reply byte charge (recall/invalidation rounds are
  // reported as their own kInvalidation events).
  const Message reply = Message::data(home, requester, blk);
  emit_counted(/*upgrade=*/false, page, pi, requester, write,
               req.total_bytes() + reply.total_bytes(), th);

  // A policy page op fired off that event may have moved the page — a
  // migration re-homing it or a relocation/replication remapping it at
  // the requester. Completing the in-flight fetch against the stale
  // pre-op mapping would supply data from the wrong home, so abort and
  // let the caller restart against the post-op mapping (the op window
  // stalls the retry; kInvalid is the restart signal).
  if (pi.home != home || pi.mode[requester] != entry_mode) {
    *granted = NodeState::kInvalid;
    return th;
  }

  DirEntry& e = dir_.entry(blk);
  Cycle data_ready;
  if (write) {
    data_ready = home_service_exclusive(home, requester, blk, th);
    data_ready += cfg_.timing.mem_access;
    e.grant_exclusive(requester);
    *granted = NodeState::kModified;
  } else {
    if (e.state == DirState::kExclusive && e.owner != requester) {
      data_ready = home_recall_shared(home, requester, blk, th);
      data_ready += cfg_.timing.mem_access;
      e.sharers.reset_to_pair(e.owner, requester, nsl_);
      e.state = DirState::kShared;
      e.owner = kNoNode;
      *granted = NodeState::kShared;
    } else if (e.state == DirState::kUncached && !pi.replicated) {
      data_ready = th + cfg_.timing.mem_access;
      // Exclusive-clean grant: no other cached copies exist. Never
      // granted on a replicated page — those are read-only everywhere.
      e.grant_exclusive(requester);
      *granted = NodeState::kModified;
    } else {
      DSM_ASSERT(e.state == DirState::kShared ||
                 e.state == DirState::kUncached ||
                 (e.state == DirState::kExclusive && e.owner == requester));
      data_ready = th + cfg_.timing.mem_access;
      if (e.state == DirState::kExclusive) {
        // The directory thought we owned it (e.g. stale after a local L1
        // drop); degrade to shared.
        e.sharers.reset_to(requester, nsl_);
        e.owner = kNoNode;
      }
      e.state = DirState::kShared;
      e.add_sharer(requester, nsl_);
      *granted = NodeState::kShared;
    }
  }

  // Reply with data (a lost reply is recovered by a request
  // retransmission hitting the home's duplicate table).
  return reply_reliable(reply, req, data_ready);
}

Cycle DsmSystem::remote_upgrade(NodeId requester, Addr page, Addr blk,
                                Cycle t) {
  PageInfo& pi = pt_.info(page);
  const NodeId home = pi.home;
  DirEntry& e = dir_.entry(blk);

  if (home == requester) {
    // Upgrade of a local block: invalidate remote sharers from home.
    const Cycle done = home_service_exclusive(home, requester, blk, t);
    e.grant_exclusive(requester);
    return done;
  }

  const Message up =
      Message::control(MsgKind::kUpgrade, requester, home, blk);
  const DemandOutcome ho = send_demand(up, t, /*nack_dup=*/true);
  if (ho.dst_dead) {
    // Dead home: re-home the page and return without the grant. The
    // requester's L1 line was not upgraded, so the access path's
    // re-probe restarts the transaction against the new home.
    return emergency_rehome(page, home, ho.at);
  }
  Cycle th = ho.at;
  const Cycle dir_occ = cfg_.timing.dir_lookup + cfg_.timing.protocol_fsm;
  th = device_[home].reserve(th, dir_occ) + dir_occ;
  const Cycle done = home_service_exclusive(home, requester, blk, th);
  e.grant_exclusive(requester);
  return reply_reliable(Message::control(MsgKind::kAck, home, requester, blk),
                        up, done);
}

Cycle DsmSystem::home_service_exclusive(NodeId home, NodeId requester,
                                        Addr blk, Cycle t) {
  DirEntry& e = dir_.entry(blk);
  Cycle done = t;
  if (e.state == DirState::kShared) {
    // Invalidate every member of the sharer set except the requester, in
    // parallel. Under an inexact scheme (coarse vector) the set is a
    // conservative superset of the real holders: covered non-holders
    // still get the inval order and ack it, and those wire bytes are
    // charged for real — the coarse-vector overshoot is measured
    // traffic, not modeled away. No policy fires page ops on
    // kInvalidation, so iterating the live set is safe.
    e.sharers.for_each(nsl_, [&](NodeId s) {
      if (s == requester) return;
      const Message inv = Message::control(MsgKind::kInval, home, s, blk);
      DemandOutcome so{t, false};
      if (s != home) so = send_demand(inv, t, /*nack_dup=*/false);
      if (so.dst_dead) {
        // Dead sharer: its copy dies with the node. Flush the local
        // bookkeeping without wire traffic so directory and caches stay
        // consistent; a shared copy is clean, so nothing is lost.
        flush_block_at_node(s, blk, /*invalidate=*/true,
                            MissClass::kCoherence);
        return;
      }
      Cycle ts = so.at;
      const Cycle occ = cfg_.timing.bc_lookup + cfg_.timing.protocol_fsm;
      ts = device_[s].reserve(ts, occ) + occ;
      flush_block_at_node(s, blk, /*invalidate=*/true, MissClass::kCoherence);
      done = std::max(
          done,
          recall_reply(inv, Message::control(MsgKind::kAck, s, home, blk), ts));
    });
  } else if (e.state == DirState::kExclusive && e.owner != requester) {
    done = recall_from_owner(home, e.owner, blk, /*invalidate=*/true, t);
  }
  return done;
}

Cycle DsmSystem::home_recall_shared(NodeId home, NodeId requester, Addr blk,
                                    Cycle t) {
  DirEntry& e = dir_.entry(blk);
  DSM_ASSERT(e.state == DirState::kExclusive && e.owner != requester);
  // Owner keeps a clean shared copy (downgrade, not invalidate).
  return recall_from_owner(home, e.owner, blk, /*invalidate=*/false, t);
}

Cycle DsmSystem::recall_from_owner(NodeId home, NodeId owner, Addr blk,
                                   bool invalidate, Cycle t) {
  const Message inv = Message::control(MsgKind::kInval, home, owner, blk);
  DemandOutcome so{t, false};
  if (owner != home) so = send_demand(inv, t, /*nack_dup=*/false);
  if (so.dst_dead) {
    // The exclusive owner is dead: recall its copy without wire
    // traffic. A modified copy dies with the node — home memory serves
    // the last written-back version, and the loss is counted
    // distinctly (this is the one irrecoverable crash outcome).
    const bool lost_dirty =
        flush_block_at_node(owner, blk, invalidate, MissClass::kCoherence);
    if (lost_dirty) stats_->faults.data_losses++;
    return so.at;
  }
  Cycle ts = so.at;
  const Cycle occ = cfg_.timing.bc_lookup + cfg_.timing.protocol_fsm;
  ts = device_[owner].reserve(ts, occ) + occ;
  // Grab the (possibly dirty) data off the owner's bus.
  ts = bus_[owner].reserve(ts, cfg_.timing.bus_arb + cfg_.timing.bus_data) +
       cfg_.timing.bus_arb + cfg_.timing.bus_data;
  // Only dirty data travels home; a clean owner just acknowledges the
  // invalidation/downgrade. The flush walk itself reports dirtiness.
  const bool dirty =
      flush_block_at_node(owner, blk, invalidate, MissClass::kCoherence);
  return recall_reply(inv,
                      dirty ? Message::writeback(owner, home, blk)
                            : Message::control(MsgKind::kAck, owner, home, blk),
                      ts);
}

Cycle DsmSystem::recall_reply(const Message& inv, const Message& reply,
                              Cycle ready) {
  // Event: the recalled node's copy was invalidated or downgraded,
  // charged the order and the reply (zero when the home recalled its own
  // copy — no wire messages exist).
  PolicyEvent ev;
  ev.kind = PolicyEventKind::kInvalidation;
  ev.page = page_of(inv.addr << kBlockBits);
  ev.node = inv.dst;
  ev.now = ready;
  if (inv.dst != inv.src) {
    ev.now = reply_reliable(reply, inv, ready);
    ev.bytes = inv.total_bytes() + reply.total_bytes();
  }
  engine_.dispatch(ev, pt_.info(ev.page));
  return ev.now;
}

void DsmSystem::emit_counted(bool upgrade, Addr page, PageInfo& pi,
                             NodeId requester, bool is_write,
                             std::uint64_t bytes, Cycle now) {
  PolicyEvent ev;
  ev.kind = upgrade ? PolicyEventKind::kUpgrade : PolicyEventKind::kMiss;
  ev.page = page;
  ev.node = requester;
  ev.is_write = is_write;
  ev.bytes = bytes;
  ev.now = now;
  // Home-side decisions never delay the triggering access (page-op
  // stalls surface through PageInfo::op_pending_until instead).
  engine_.dispatch(ev, pi);
}

}  // namespace dsm
