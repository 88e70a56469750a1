// Reliable-transaction layer: protocol recovery over the fabric's
// injectable channel (Fabric::send_ex, net/fault.hpp).
//
// The simulator delivers messages as synchronous timed calls, so loss
// is modeled at transaction granularity: an injectable send returns a
// Delivery outcome, and a lost message costs the requester a timeout
// (exponential backoff from TimingConfig::fault_retry_base) before the
// retransmission departs. The receiver's duplicate table is modeled by
// its cost and its counters, not by per-transaction state: a wire-
// duplicated request costs one directory lookup and a NACK, and a
// retransmitted request whose original reply was lost costs one
// directory lookup before the reply is re-issued. Retransmissions and
// NACKs carry the `recovery` traffic marker, so fault storms are
// visible as a class of their own in the per-class byte accounting.
//
// Degradation after fault_retry_max_attempts is policy-specific:
// demand transactions (fetches, upgrades, invalidation rounds) force
// through on the reliable channel and count a hard error; bulk page
// ops abort cleanly instead (dsm/page_ops.cpp rolls state back and
// emits kPageOpComplete with failed=true).
//
// Node crashes add a third outcome: when retry exhaustion is explained
// by an endpoint inside a crash window (FaultPlan::node_down), the
// failure detector records the window end — the first detection pays
// the full timeout storm, every later interaction short-circuits via
// suspect(). A demand send toward a dead node reports dst_dead so the
// caller can trigger emergency re-homing (dsm/page_ops.cpp); a reply
// toward a dead requester is abandoned.
//
// With the fault layer off (no Fabric::fault_plan) every entry point
// collapses to a plain net_.send: no retries, no duplicate handling,
// bit-identical byte and cycle accounting.
#include <algorithm>

#include "dsm/cluster.hpp"
#include "net/fault.hpp"

namespace dsm {

void DsmSystem::note_crash(NodeId n, Cycle t) {
  crash_detected_until_[n] = std::max(
      crash_detected_until_[n], net_.fault_plan()->node_down_until(n, t));
}

DsmSystem::SendOutcome DsmSystem::send_reliable(Message m, Cycle t,
                                                bool nack_dup) {
  if (net_.fault_plan() == nullptr) return {net_.send(m, t), true};
  const TimingConfig& tc = cfg_.timing;
  Cycle at = t;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const Delivery d = net_.send_ex(m, at);
    if (d.delivered) {
      if (d.duplicated && nack_dup) {
        // The wire-duplicated copy trails the original into the
        // receiver: the duplicate table rejects it after one directory
        // lookup, and the NACK's round trip back to the sender is paid
        // on the critical path — the transaction does not continue
        // until the sender has seen the rejection.
        stats_->faults.nacks++;
        device_[m.dst].occupy(d.at, tc.dir_lookup);
        const Cycle nack_at = net_.send(Message::nack(m.dst, m.src, m.addr),
                                        d.at + tc.dir_lookup);
        return {std::max(d.at, nack_at), true};
      }
      return {d.at, true};
    }
    if (attempt + 1 >= tc.fault_retry_max_attempts) return {d.at, false};
    stats_->faults.retries++;
    m.recovery = true;  // retransmissions account as recovery traffic
    const Cycle backoff = tc.fault_retry_base
                          << std::min<std::uint32_t>(attempt, 16);
    at = std::max(d.at, t + backoff);
  }
}

DsmSystem::DemandOutcome DsmSystem::send_demand(const Message& m, Cycle t,
                                                bool nack_dup) {
  const FaultPlan* plan = net_.fault_plan();
  if (plan == nullptr) return {net_.send(m, t), false};
  // Destination already known dead: skip the wire and the storm; the
  // caller recovers (re-homes, or drops the dead node from a round).
  if (suspect(m.dst, t)) return {t, true};
  // A crashed requester's own accesses force through on the reliable
  // channel (its CPUs keep executing; only its network is dead), so
  // the directory stays consistent with what its caches install. The
  // detection storm below is paid once; afterwards this is the path.
  if (suspect(m.src, t)) {
    stats_->faults.hard_errors++;
    return {net_.send(m, t), false};
  }
  const SendOutcome o = send_reliable(m, t, nack_dup);
  if (o.ok) return {o.at, false};
  if (plan->node_down(m.dst, o.at)) {
    note_crash(m.dst, o.at);
    return {o.at, true};
  }
  if (plan->node_down(m.src, o.at)) note_crash(m.src, o.at);
  stats_->faults.hard_errors++;
  return {net_.send(m, o.at), false};
}

Cycle DsmSystem::reply_reliable(const Message& reply, const Message& request,
                                Cycle ready) {
  const FaultPlan* plan = net_.fault_plan();
  if (plan == nullptr) return net_.send(reply, ready);
  // A reply toward a node known dead is abandoned — nobody is waiting.
  if (suspect(reply.dst, ready)) return ready;
  const TimingConfig& tc = cfg_.timing;
  Cycle at = ready;
  Message rep = reply;
  Message req = request;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const Delivery d = net_.send_ex(rep, at);
    if (d.delivered) return d.at;
    if (attempt + 1 >= tc.fault_retry_max_attempts) {
      if (plan->node_down(rep.dst, at)) {
        note_crash(rep.dst, at);
        return at;
      }
      stats_->faults.hard_errors++;
      return net_.send(rep, at);
    }
    // Lost reply: the requester's timeout retransmits the request; the
    // responder's duplicate table recognizes it and re-issues the reply
    // after one directory lookup. The retransmitted request can itself
    // be lost, costing another backoff round.
    stats_->faults.retries++;
    rep.recovery = true;
    req.recovery = true;
    const Cycle backoff = tc.fault_retry_base
                          << std::min<std::uint32_t>(attempt, 16);
    const Cycle resend = std::max(d.at, ready + backoff);
    const Delivery rq = net_.send_ex(req, resend);
    if (rq.delivered) {
      device_[rep.src].occupy(rq.at, tc.dir_lookup);
      at = rq.at + tc.dir_lookup;
    } else {
      at = std::max(rq.at, resend + backoff);
    }
  }
}

}  // namespace dsm
