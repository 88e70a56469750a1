// Cluster interconnect fabric: one concrete class behind a typed
// message API.
//
// Fabric owns the per-node network interfaces (send + receive, each a
// FIFO busy-until resource with per-message occupancy), the byte
// accounting, the router grid and its links when the fabric is routed,
// and the fault plan when FaultConfig::enabled(). Every message handed
// to send()/post()/send_ex() is charged, whole, to its traffic class at
// the *sending* node's Stats. SystemConfig::fabric selects the wire:
//
//   ni-constant  the paper's model — "a point-to-point network with a
//                constant latency of 80 cycles but model contention at
//                the network interfaces accurately". No grid, no links.
//   mesh-2d      a 2D mesh with X-Y (dimension-order) routing. Wire
//                latency = Manhattan hop count x per-hop latency, and —
//                when mesh_link_bytes_per_cycle > 0 — every directed
//                link along the route is a FIFO busy-until resource the
//                message serializes through, so dense traffic queues
//                *inside* the network, not just at the edge NIs.
//   torus-2d     the same grid with wraparound links; each dimension
//                routes in whichever direction is shorter.
//
// Timing contract (identical to the original Network on ni-constant):
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
// Faults (net/fault.hpp). send_ex() is the injectable channel: with a
// plan it applies crash drops and the seeded drop/dup/delay draw around
// the wire, and its route walks are gated by the plan's link outages.
// send() and post() are the reliable channel (retry escalation, lazy
// writebacks): never perturbed, always routed as if every link were up;
// only post() traffic to or from a crashed node is swallowed.
//
// A route walk resolves both endpoints' grid coordinates once and
// steps them hop by hop, so no hop divides. It also computes the
// message's bytes and link occupancy once; each hop is then one inline
// MeshLink::take on the link it crosses plus mesh_hop_latency for the
// head to reach the next router. It takes one of two forms:
//
//   straight  the reliable channel, no plan, or departure at or after
//             the plan's horizon, the latest end of any outage. No
//             outage can fire: time only grows along a walk, and an
//             outage is in force only before its end. The walk crosses
//             the X run, then the Y run, which is exactly the route the
//             gated walk takes when every link is up. With link
//             contention off it is depart + hops x mesh_hop_latency.
//   gated     any other injectable departure. Each hop takes the
//             dimension-order step when it does not undo the previous
//             hop and its link is up: that step is the first candidate
//             pick_step would try, and it always has a link because it
//             heads toward the destination. Only a blocked step builds
//             the full candidate list.
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
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/resource.hpp"
#include "net/message.hpp"

namespace dsm {

class FaultPlan;

// Outcome of an injectable send (send_ex). On a perfect fabric every
// message arrives: delivered is true and `at` is the payload-available
// time at the destination. A fault plan can make delivered false (lost
// in flight, swallowed by a crashed node, or routed into a dead end;
// `at` is then the depart time a timeout clock starts from) or
// duplicated true (a second copy also crossed the wire).
struct Delivery {
  Cycle at = 0;
  bool delivered = true;
  bool duplicated = false;
};

// Outgoing-link direction at a router.
enum class LinkDir : std::uint8_t { kEast = 0, kWest, kSouth, kNorth, kCount };

const char* to_string(LinkDir d);

// The router grid of a mesh or torus: `width` x `height` routers, one
// per node, router id = y * width + x. Empty (0 x 0) on ni-constant.
struct Grid {
  static constexpr std::uint32_t kNoRouter = ~std::uint32_t(0);

  // A router and its coordinates. A route walk resolves both endpoints
  // once and steps the coordinates, so no hop divides.
  struct Pos {
    std::uint32_t router;
    std::uint32_t x;
    std::uint32_t y;
  };

  // cfg.mesh_width columns, or with 0 the most square factorization of
  // cfg.nodes (a 1 x N chain for primes). The width must divide the
  // node count: a ragged last row would give torus wrap links endpoints
  // no node owns.
  explicit Grid(const SystemConfig& cfg);

  std::uint32_t routers() const { return width * height; }
  Pos pos(std::uint32_t router) const {
    return Pos{router, router % width, router / width};
  }
  unsigned hops(NodeId from, NodeId to) const {
    return dim_hops(from % width, to % width, width) +
           dim_hops(from / width, to / width, height);
  }
  // The dimension-order step from `p` toward `dst` != p (X fully
  // first); a torus dimension goes the shorter way, ties east/south.
  LinkDir step(const Pos& p, const Pos& dst) const {
    return p.x != dst.x ? step_dir(p.x, dst.x, width, /*x_dim=*/true)
                        : step_dir(p.y, dst.y, height, /*x_dim=*/false);
  }
  LinkDir step_dir(std::uint32_t cur, std::uint32_t dst, std::uint32_t size,
                   bool x_dim) const;
  // Whether `p` has an outgoing link toward `d` (always, on a torus).
  bool has_link(const Pos& p, LinkDir d) const;
  // Move `p` across its link toward `d`, which must exist.
  void advance(Pos& p, LinkDir d) const;
  // Neighbor router in direction `d`, kNoRouter past a mesh edge.
  std::uint32_t neighbor(std::uint32_t router, LinkDir d) const;

  std::uint32_t width = 0;
  std::uint32_t height = 0;
  bool wrap = false;

 private:
  unsigned dim_hops(std::uint32_t a, std::uint32_t b,
                    std::uint32_t size) const {
    const unsigned d = unsigned(a > b ? a - b : b - a);
    return wrap ? std::min(d, unsigned(size) - d) : d;
  }
};

// One directed mesh/torus link: a FIFO busy-until channel plus the
// occupancy statistics the contention study reports.
struct MeshLink {
  // Reserve the link for `occ` cycles no earlier than `t` for one
  // message of `msg_bytes`; returns the time the reservation starts.
  // Both route walks call it once per hop with the occupancy and bytes
  // they computed once per message.
  Cycle take(Cycle t, Cycle occ, std::uint32_t msg_bytes) {
    std::uint32_t depth = 1;  // this message
    if (t < res.busy_until()) {
      // Queued: retire the older finish times already past, then the
      // previous newest (busy_until) becomes the youngest older one.
      while (head < older.size() && older[head] <= t) ++head;
      if (head > 0 && 2 * head >= older.size()) {
        older.erase(older.begin(), older.begin() + head);
        head = 0;
      }
      older.push_back(res.busy_until());
      depth += std::uint32_t(older.size() - head);
    } else {
      // Idle: everything in flight finished by t.
      older.clear();
      head = 0;
    }
    const Cycle start = res.reserve(t, occ);
    max_queue_depth = std::max(max_queue_depth, depth);
    msgs++;
    bytes += msg_bytes;
    return start;
  }

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

class Fabric {
 public:
  // `stats` is required: every message is charged to it. Builds the
  // grid on mesh/torus and, when cfg.faults.enabled(), the fault plan,
  // with each a:b node-pair outage resolved to the first link of the
  // route from a to b and each node crash folded into the links around
  // the dead router.
  Fabric(const SystemConfig& cfg, Stats* stats);
  ~Fabric();

  // Deliver one critical-path message; returns the time the payload is
  // available at the destination device. The caller waits. The
  // reliable channel: never perturbed, never rerouted.
  Cycle send(const Message& m, Cycle ready);

  // Off-critical-path traffic (writebacks, replacement hints): occupies
  // the NIs (and any links en route) and is accounted, but the caller
  // does not wait. Reliable, like send(), except that a message from or
  // toward a crashed node is swallowed.
  void post(const Message& m, Cycle ready);

  // Injectable send: identical timing to send() without a fault plan;
  // with one, the message may be dropped, duplicated, delayed, lost to
  // a crashed node or rerouted around dead links. The reliable-
  // transaction layer (dsm/recovery.cpp) is the only caller.
  Delivery send_ex(const Message& m, Cycle ready);

  // The fault schedule, null when the fault layer is off. The recovery
  // layer consults it for node-crash windows (failure detection,
  // successor election) and short-circuits to send() without it.
  const FaultPlan* fault_plan() const { return plan_.get(); }

  const char* name() const { return to_string(kind_); }
  std::uint32_t nodes() const { return std::uint32_t(send_.size()); }
  const Resource& send_ni(NodeId n) const { return send_[n]; }
  const Resource& recv_ni(NodeId n) const { return recv_[n]; }

  // The router grid (empty on ni-constant) and its directed links.
  const Grid& grid() const { return grid_; }
  const MeshLink& out_link(std::uint32_t router, LinkDir d) const {
    return links_[link_index(router, d)];
  }
  // Totals over every link; DsmSystem::parallel_end stores them in
  // Stats::links.
  LinkUsage link_usage() const;

 private:
  // NI occupancy for a message: one slot for anything up to a block,
  // proportional for bulk payloads.
  Cycle occupancy(const Message& m, Cycle per_message) const {
    return per_message * std::max(1u, m.payload_blocks / 4);
  }
  // Charge `m` to its sender's traffic class.
  void account(const Message& m);
  // Charge `m` and occupy the send half; returns the depart time.
  Cycle send_half(const Message& m, Cycle ready);
  // Send half, wire, receive half. `gated` lets the plan's link outages
  // reroute or lose the message.
  Delivery wire(const Message& m, Cycle ready, bool gated);
  // Time the message head reaches the destination NI, given it left the
  // source NI at `depart`; kNeverCycle when a gated walk dead-ends.
  Cycle traverse(const Message& m, Cycle depart, bool gated);

  static std::uint32_t link_index(std::uint32_t router, LinkDir d) {
    return router * std::uint32_t(LinkDir::kCount) + std::uint32_t(d);
  }
  // The cycles a message of `bytes` holds each link it crosses; needs
  // link contention on (mesh_link_bytes_per_cycle > 0).
  Cycle link_occupancy(std::uint32_t bytes) const {
    const std::uint32_t bw = timing_.mesh_link_bytes_per_cycle;
    return std::max<Cycle>(1, (bytes + bw - 1) / bw);
  }
  // The X-Y route with link contention, when no outage can fire: the X
  // run, then the Y run.
  Cycle walk_straight(const Message& m, Cycle t);
  // The fault-gated walk: one pick_step per hop.
  Cycle walk_gated(const Message& m, Cycle t);
  // Choose the next hop out of `p` toward `dst`, avoiding links the
  // fault plan has down at time `t` (minimal adaptive routing: the
  // dimension-order step, the other productive dimension, then any live
  // detour). `back` is the direction that would undo the previous hop
  // (kCount on the first hop); it is only taken when every other live
  // candidate is exhausted. Returns kCount when the router is fully
  // walled in. Counts a reroute when the choice deviates from the
  // dimension-order step.
  LinkDir pick_step(const Grid::Pos& p, const Grid::Pos& dst, LinkDir back,
                    Cycle t);

  FabricKind kind_;
  TimingConfig timing_;
  Stats* stats_;
  std::vector<Resource> send_;
  std::vector<Resource> recv_;
  Grid grid_;
  std::vector<MeshLink> links_;  // routers() x 4, indexed router*4 + dir
  std::unique_ptr<FaultPlan> plan_;
};

}  // namespace dsm
