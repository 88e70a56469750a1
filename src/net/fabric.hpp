// Cluster interconnect fabric: pluggable topology behind a typed
// message API.
//
// Fabric owns the per-node network interfaces (send + receive, each a
// FIFO busy-until resource with per-message occupancy) and the byte
// accounting: every message handed to send()/post() is charged, whole,
// to its traffic class at the *sending* node's Stats. Backends differ
// in the wire-traversal function:
//
//   NiFabric     the paper's model — "a point-to-point network with a
//                constant latency of 80 cycles but model contention at
//                the network interfaces accurately".
//   MeshFabric   a 2D mesh with X-Y (dimension-order) routing. Wire
//                latency = Manhattan hop count x per-hop latency, and —
//                when mesh_link_bytes_per_cycle > 0 — every directed
//                link along the route is a FIFO busy-until resource the
//                message serializes through, so dense traffic queues
//                *inside* the network, not just at the edge NIs.
//   TorusFabric  the same router core with wraparound links; each
//                dimension routes in whichever direction is shorter.
//
// Timing contract (identical to the original Network for NiFabric):
//   depart = reserve(send NI of src, ready, occ) + occ
//   arrive = reserve(recv NI of dst, traverse(depart), occ') + occ'
// where occ scales with the payload (bulk page copies occupy the NIs
// proportionally: ni_send x max(1, blocks/4)).
//
// Link-resource model (mesh/torus with link contention enabled): a
// message crossing a link reserves it FIFO for its serialization time,
//   link_occ = ceil(total_bytes / mesh_link_bytes_per_cycle),
// while the message *head* advances one mesh_hop_latency per hop (a
// wormhole-style approximation: the head's unloaded latency equals the
// pure hop-latency model; the tail's occupancy is what later messages
// queue behind). Per-link byte totals therefore count each traversal —
// a message crossing h links adds h x total_bytes of link occupancy —
// whereas the per-class TrafficBreakdown charges each message exactly
// once at its sender. Contention changes latency, never bytes.
//
// A route walk resolves both endpoints' grid coordinates once and
// steps them hop by hop, so no hop divides. It takes one of two forms:
//
//   straight  no plan with link outages, the plan suspended (the
//             reliable send/post channel), or departure at or after the
//             plan's horizon, the latest end of any outage. No outage
//             can fire: time only grows along a walk, and an outage is
//             in force only before its end. The walk crosses the X run,
//             then the Y run, which is exactly the route the gated walk
//             takes when every link is up. With link contention off it
//             is depart + latency().
//   gated     any other departure. Each hop takes the dimension-order
//             step when it does not undo the previous hop and its link
//             is up: that step is the first candidate pick_step would
//             try, and it always has a link because it heads toward the
//             destination. Only a blocked step builds the full
//             candidate list.
//
// A link remembers the finish times of the messages in flight on it to
// report max_queue_depth. The newest is always res.busy_until(), since
// every reservation ends there, so only the older ones are stored. An
// arrival at t >= busy_until finds every earlier message gone: depth
// 1, nothing stored. An arrival before it retires the stored times at
// or before t (busy_until itself is later), then stores busy_until as
// the youngest older time; the depth it reports is the stored count
// plus one, the same count a queue of every finish time would hold.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/resource.hpp"
#include "net/message.hpp"

namespace dsm {

class FaultPlan;

// Outcome of an injectable send (send_ex). On a perfect fabric every
// message arrives: delivered is true and `at` is the payload-available
// time at the destination. The fault layer (net/fault.hpp) can return
// delivered = false (message lost in flight or routed into a dead end;
// `at` is then the depart time a timeout clock starts from) or
// duplicated = true (a second copy also crossed the wire).
struct Delivery {
  Cycle at = 0;
  bool delivered = true;
  bool duplicated = false;
};

class Fabric {
 public:
  Fabric(std::uint32_t nodes, const TimingConfig& t, Stats* stats)
      : timing_(&t), stats_(stats), send_(nodes), recv_(nodes) {}
  virtual ~Fabric() = default;

  // Deliver one critical-path message; returns the time the payload is
  // available at the destination device. The caller waits. This is the
  // *reliable* channel: the fault layer never perturbs it (retry
  // escalation and lazy writebacks ride on it).
  virtual Cycle send(const Message& m, Cycle ready);

  // Off-critical-path traffic (writebacks, replacement hints): occupies
  // the NIs (and any links en route) and is accounted, but the caller
  // does not wait. Reliable, like send().
  virtual void post(const Message& m, Cycle ready);

  // Injectable send: identical timing to send() on a perfect fabric,
  // but the fault layer may drop, duplicate, or delay the message. The
  // reliable-transaction layer (dsm/recovery.cpp) is the only caller
  // that inspects the Delivery outcome.
  virtual Delivery send_ex(const Message& m, Cycle ready);

  // True when a fault-injecting decorator wraps this fabric; the
  // protocol's recovery machinery short-circuits to plain send() when
  // false, keeping the fault layer zero-cost-when-off.
  virtual bool fault_injection() const { return false; }

  // The underlying topology backend (unwraps fault decorators).
  virtual Fabric* backend() { return this; }

  // The installed fault schedule, when a fault decorator wraps this
  // fabric; null on a perfect fabric. The recovery layer consults it
  // for node-crash windows (failure detection, successor election).
  virtual const FaultPlan* fault_plan() const { return nullptr; }

  // Fault-layer hook: charge and occupy the send half of `m` as if it
  // departed normally, but never deliver it — the wire eats the
  // message. Returns the depart time.
  Cycle drop_after_send(const Message& m, Cycle ready);

  virtual const char* name() const = 0;

  // Unloaded wire latency between two distinct nodes, excluding NI
  // occupancies and any link queueing.
  virtual Cycle latency(NodeId from, NodeId to) const = 0;

  // --- introspection (virtual so fault decorators can delegate to the
  // wrapped backend, whose counters are the real ones) ---------------------
  std::uint32_t nodes() const { return std::uint32_t(send_.size()); }
  virtual std::uint64_t messages() const { return messages_; }
  virtual std::uint64_t messages(MsgKind k) const {
    return msgs_by_kind_[std::size_t(k)];
  }
  virtual std::uint64_t bytes() const { return bytes_; }
  virtual const Resource& send_ni(NodeId n) const { return send_[n]; }
  virtual const Resource& recv_ni(NodeId n) const { return recv_[n]; }
  const TimingConfig& timing() const { return *timing_; }

 protected:
  // Wire traversal: time the message head reaches the destination NI,
  // given it left the source NI at `depart`. The base implementation is
  // the unloaded latency; topology backends may queue on internal links.
  virtual Cycle traverse(const Message& m, Cycle depart) {
    return depart + latency(m.src, m.dst);
  }

  Stats* stats() const { return stats_; }

 private:
  // NI occupancy for a message: one slot for anything up to a block,
  // proportional for bulk payloads.
  Cycle occupancy(const Message& m, Cycle per_message) const {
    return per_message * std::max(1u, m.payload_blocks / 4);
  }
  void account(const Message& m);

  const TimingConfig* timing_;
  Stats* stats_;  // may be null (unit tests); accounting then stays local
  std::vector<Resource> send_;
  std::vector<Resource> recv_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t msgs_by_kind_[std::size_t(MsgKind::kCount)] = {};
};

// Constant-latency point-to-point network (the paper's base model).
class NiFabric final : public Fabric {
 public:
  using Fabric::Fabric;
  const char* name() const override { return "ni-constant"; }
  Cycle latency(NodeId, NodeId) const override {
    return timing().net_latency;
  }
};

// Outgoing-link direction at a router.
enum class LinkDir : std::uint8_t { kEast = 0, kWest, kSouth, kNorth, kCount };

const char* to_string(LinkDir d);

// One directed mesh/torus link: a FIFO busy-until channel plus the
// occupancy statistics the contention study reports.
struct MeshLink {
  Resource res;
  // Finish times of the messages holding or awaiting the link, minus
  // the newest, which is always res.busy_until(); oldest first from
  // `head`. Empty whenever the last arrival found the link idle.
  std::vector<Cycle> older;
  std::uint32_t head = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;          // sum of total_bytes per traversal
  std::uint32_t max_queue_depth = 0;  // peak in-flight count, self included
};

// 2D mesh with X-Y (dimension-order) routing. Wire latency is the
// Manhattan distance between the endpoints' grid positions times the
// per-hop latency; with mesh_link_bytes_per_cycle > 0 each directed
// link along the route is additionally a contended channel (see the
// link-resource model above).
class MeshFabric : public Fabric {
 public:
  static constexpr std::uint32_t kNoRouter = ~std::uint32_t(0);

  // width = 0 picks the most square factorization of `nodes`; an
  // explicit width must divide `nodes` (full grid, no ragged last row).
  MeshFabric(std::uint32_t nodes, const TimingConfig& t, Stats* stats,
             std::uint32_t width = 0);

  const char* name() const override { return "mesh-2d"; }
  Cycle latency(NodeId from, NodeId to) const override {
    return Cycle(hops(from, to)) * timing().mesh_hop_latency;
  }

  unsigned hops(NodeId from, NodeId to) const {
    return dim_hops(from % width_, to % width_, width_) +
           dim_hops(from / width_, to / width_, height_);
  }
  std::uint32_t width() const { return width_; }
  std::uint32_t height() const { return height_; }

  bool link_contention_enabled() const {
    return timing().mesh_link_bytes_per_cycle > 0;
  }

  // --- link introspection (routers = grid positions; router id ==
  // node id wherever a node exists) ---------------------------------------
  std::uint32_t routers() const { return width_ * height_; }
  const MeshLink& out_link(std::uint32_t router, LinkDir d) const {
    return links_[router * std::uint32_t(LinkDir::kCount) +
                  std::uint32_t(d)];
  }
  // Neighbor router in direction `d`, kNoRouter past a mesh edge
  // (torus wraps).
  std::uint32_t neighbor(std::uint32_t router, LinkDir d) const;

  std::uint64_t link_bytes_total() const;
  std::uint32_t max_link_queue_depth() const;
  // Peak queue depth over the fan-in links delivering *into* `router`
  // (the congestion the hot-home sweep measures).
  std::uint32_t max_queue_depth_into(std::uint32_t router) const;

  // Fault-aware routing: while an outage of the installed plan can
  // still be in force, traverse() walks hop by hop and detours around
  // dead links (minimal adaptive routing: the dimension-order step is
  // preferred, the other productive dimension next, then any live
  // detour; immediate backtracking only as a last resort). With no
  // plan, while the plan is suspended, or past its outage horizon, the
  // walk is the X-Y route.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }

 protected:
  MeshFabric(std::uint32_t nodes, const TimingConfig& t, Stats* stats,
             std::uint32_t width, bool wrap);

  Cycle traverse(const Message& m, Cycle depart) override;

 private:
  // A router and its grid coordinates. A route walk resolves both
  // endpoints once and steps the coordinates, so no hop divides.
  struct GridPos {
    std::uint32_t router;
    std::uint32_t x;
    std::uint32_t y;
  };
  GridPos grid_pos(std::uint32_t router) const {
    return GridPos{router, router % width_, router / width_};
  }
  // Whether `p` has an outgoing link toward `d` (always, on a torus).
  bool has_link(const GridPos& p, LinkDir d) const;
  // Move `p` across its link toward `d`, which must exist.
  void advance(GridPos& p, LinkDir d) const;

  // Serialization occupancy of one link for this message.
  Cycle link_occupancy(const Message& m) const;
  // Reserve the outgoing link of `router` toward `d` no earlier than
  // `t`; returns the time the message head reaches the next router.
  Cycle cross(std::uint32_t router, LinkDir d, const Message& m, Cycle occ,
              Cycle t);
  // The X-Y route with link contention, when no outage can fire: the X
  // run, then the Y run.
  Cycle walk_straight(const Message& m, Cycle t);
  // The fault-gated walk: one pick_step per hop.
  Cycle walk_gated(const Message& m, Cycle t);
  unsigned dim_hops(std::uint32_t a, std::uint32_t b,
                    std::uint32_t size) const {
    const unsigned d = unsigned(a > b ? a - b : b - a);
    return wrap_ ? std::min(d, unsigned(size) - d) : d;
  }
  // Next-step direction along dimension-order routing (X fully first).
  LinkDir step_dir(std::uint32_t cur, std::uint32_t dst,
                   std::uint32_t size, bool x_dim) const;
  // Choose the next hop out of `p` toward `dst`, avoiding links the
  // fault plan has down at time `t`. `back` is the direction that would
  // undo the previous hop (kCount on the first hop); it is only taken
  // when every other live candidate is exhausted. Returns kCount when
  // the router is fully walled in. Bumps the reroute counter when the
  // choice deviates from the dimension-order step.
  LinkDir pick_step(const GridPos& p, const GridPos& dst, LinkDir back,
                    Cycle t);

  std::uint32_t width_;
  std::uint32_t height_;
  bool wrap_;
  std::vector<MeshLink> links_;  // routers() x 4, indexed router*4 + dir
  const FaultPlan* fault_plan_ = nullptr;
};

// 2D torus: the mesh router core with wraparound links; each dimension
// routes in whichever direction is shorter (ties go east/south).
class TorusFabric final : public MeshFabric {
 public:
  TorusFabric(std::uint32_t nodes, const TimingConfig& t, Stats* stats,
              std::uint32_t width = 0)
      : MeshFabric(nodes, t, stats, width, /*wrap=*/true) {}
  const char* name() const override { return "torus-2d"; }
};

// Build the fabric selected by cfg.fabric.
std::unique_ptr<Fabric> make_fabric(const SystemConfig& cfg, Stats* stats);

}  // namespace dsm
