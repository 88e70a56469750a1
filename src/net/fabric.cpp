#include "net/fabric.hpp"

#include <cmath>

#include "common/log.hpp"
#include "net/fault.hpp"

namespace dsm {

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kGetS: return "GETS";
    case MsgKind::kGetX: return "GETX";
    case MsgKind::kUpgrade: return "UPGRADE";
    case MsgKind::kInval: return "INVAL";
    case MsgKind::kAck: return "ACK";
    case MsgKind::kData: return "DATA";
    case MsgKind::kWriteback: return "WB";
    case MsgKind::kHint: return "HINT";
    case MsgKind::kPageBulk: return "PAGE";
    case MsgKind::kNack: return "NACK";
    case MsgKind::kRebuild: return "REBUILD";
    case MsgKind::kCount: break;
  }
  return "?";
}

const char* to_string(LinkDir d) {
  switch (d) {
    case LinkDir::kEast: return "E";
    case LinkDir::kWest: return "W";
    case LinkDir::kSouth: return "S";
    case LinkDir::kNorth: return "N";
    case LinkDir::kCount: break;
  }
  return "?";
}

void Fabric::account(const Message& m) {
  DSM_DEBUG_ASSERT(m.src != m.dst, "fabric message to self");
  DSM_DEBUG_ASSERT(m.src < nodes() && m.dst < nodes());
  messages_++;
  bytes_ += m.total_bytes();
  msgs_by_kind_[std::size_t(m.kind)]++;
  if (stats_ && m.src < stats_->node.size())
    stats_->node[m.src].traffic.add(m.cls(), m.total_bytes());
}

Delivery Fabric::send_ex(const Message& m, Cycle ready) {
  account(m);
  const Cycle socc = occupancy(m, timing_->ni_send);
  const Cycle depart = send_[m.src].reserve(ready, socc) + socc;
  const Cycle at_dest = traverse(m, depart);
  // A fault-gated route can dead-end (every detour walled in by link
  // outages): the message is lost on the wire, like a drop.
  if (at_dest == kNeverCycle) return Delivery{depart, false, false};
  const Cycle rocc = occupancy(m, timing_->ni_recv);
  return Delivery{recv_[m.dst].reserve(at_dest, rocc) + rocc, true, false};
}

Cycle Fabric::send(const Message& m, Cycle ready) {
  const Delivery d = Fabric::send_ex(m, ready);
  DSM_ASSERT(d.delivered, "undeliverable message on the reliable channel");
  return d.at;
}

void Fabric::post(const Message& m, Cycle ready) {
  account(m);
  const Cycle socc = occupancy(m, timing_->ni_send);
  send_[m.src].occupy(ready, socc);
  const Cycle at_dest = traverse(m, ready + socc);
  if (at_dest == kNeverCycle) return;  // eaten by a dead route
  recv_[m.dst].occupy(at_dest, occupancy(m, timing_->ni_recv));
}

Cycle Fabric::drop_after_send(const Message& m, Cycle ready) {
  account(m);
  const Cycle socc = occupancy(m, timing_->ni_send);
  return send_[m.src].reserve(ready, socc) + socc;
}

// ---------------------------------------------------------------------------
// MeshFabric / TorusFabric
// ---------------------------------------------------------------------------

MeshFabric::MeshFabric(std::uint32_t nodes, const TimingConfig& t,
                       Stats* stats, std::uint32_t width)
    : MeshFabric(nodes, t, stats, width, /*wrap=*/false) {}

MeshFabric::MeshFabric(std::uint32_t nodes, const TimingConfig& t,
                       Stats* stats, std::uint32_t width, bool wrap)
    : Fabric(nodes, t, stats), width_(width), wrap_(wrap) {
  DSM_ASSERT(nodes > 0);
  if (width_ == 0) {
    // Most square factorization: largest divisor <= sqrt(nodes) gives
    // the height; falls back to a 1xN chain for primes.
    std::uint32_t best = 1;
    for (std::uint32_t d = 1; d * d <= nodes; ++d)
      if (nodes % d == 0) best = d;
    width_ = nodes / best;
  }
  DSM_ASSERT(width_ >= 1 && width_ <= nodes);
  height_ = (nodes + width_ - 1) / width_;
  // A fully populated grid is required: a ragged last row would give
  // the torus wrap links nonexistent endpoints and would route link
  // traffic through phantom routers no NodeStats entry can own,
  // silently breaking the per-node/per-link byte reconciliation. The
  // auto-width factorization always satisfies this; explicit widths
  // must divide the node count.
  DSM_ASSERT(width_ * height_ == nodes,
             "mesh/torus requires nodes == width x height");
  links_.resize(std::size_t(routers()) * std::size_t(LinkDir::kCount));
}

std::uint32_t MeshFabric::neighbor(std::uint32_t router, LinkDir d) const {
  GridPos p = grid_pos(router);
  if (d == LinkDir::kCount || !has_link(p, d)) return kNoRouter;
  advance(p, d);
  return p.router;
}

bool MeshFabric::has_link(const GridPos& p, LinkDir d) const {
  if (wrap_) return true;
  switch (d) {
    case LinkDir::kEast: return p.x + 1 < width_;
    case LinkDir::kWest: return p.x > 0;
    case LinkDir::kSouth: return p.y + 1 < height_;
    case LinkDir::kNorth: return p.y > 0;
    case LinkDir::kCount: break;
  }
  return false;
}

void MeshFabric::advance(GridPos& p, LinkDir d) const {
  DSM_DEBUG_ASSERT(has_link(p, d), "route fell off the mesh");
  switch (d) {
    case LinkDir::kEast:
      if (p.x + 1 < width_) {
        ++p.x;
        ++p.router;
      } else {  // torus wrap to the row's first column
        p.x = 0;
        p.router = p.router + 1 - width_;
      }
      break;
    case LinkDir::kWest:
      if (p.x > 0) {
        --p.x;
        --p.router;
      } else {
        p.x = width_ - 1;
        p.router = p.router + width_ - 1;
      }
      break;
    case LinkDir::kSouth:
      if (p.y + 1 < height_) {
        ++p.y;
        p.router += width_;
      } else {
        p.y = 0;
        p.router = p.x;
      }
      break;
    case LinkDir::kNorth:
      if (p.y > 0) {
        --p.y;
        p.router -= width_;
      } else {
        p.y = height_ - 1;
        p.router = p.y * width_ + p.x;
      }
      break;
    case LinkDir::kCount: break;
  }
}

LinkDir MeshFabric::step_dir(std::uint32_t cur, std::uint32_t dst,
                             std::uint32_t size, bool x_dim) const {
  bool forward;  // east / south
  if (!wrap_) {
    forward = dst > cur;
  } else {
    const std::uint32_t fwd = dst >= cur ? dst - cur : dst + size - cur;
    forward = fwd <= size - fwd;  // ties go east/south
  }
  if (x_dim) return forward ? LinkDir::kEast : LinkDir::kWest;
  return forward ? LinkDir::kSouth : LinkDir::kNorth;
}

Cycle MeshFabric::link_occupancy(const Message& m) const {
  const std::uint32_t bw = timing().mesh_link_bytes_per_cycle;
  return std::max<Cycle>(1, (m.total_bytes() + bw - 1) / bw);
}

Cycle MeshFabric::cross(std::uint32_t router, LinkDir d, const Message& m,
                        Cycle occ, Cycle t) {
  MeshLink& l = links_[router * std::uint32_t(LinkDir::kCount) +
                       std::uint32_t(d)];
  std::uint32_t depth = 1;  // this message
  if (t < l.res.busy_until()) {
    // Queued: retire the older finish times already past, then the
    // previous newest (busy_until) becomes the youngest older one.
    while (l.head < l.older.size() && l.older[l.head] <= t) ++l.head;
    if (l.head > 0 && 2 * l.head >= l.older.size()) {
      l.older.erase(l.older.begin(), l.older.begin() + l.head);
      l.head = 0;
    }
    l.older.push_back(l.res.busy_until());
    depth += std::uint32_t(l.older.size() - l.head);
  } else {
    // Idle: everything in flight finished by t.
    l.older.clear();
    l.head = 0;
  }
  const Cycle start = l.res.reserve(t, occ);
  l.max_queue_depth = std::max(l.max_queue_depth, depth);
  l.msgs++;
  l.bytes += m.total_bytes();
  if (stats() && router < stats()->node.size()) {
    NodeStats& ns = stats()->node[router];
    ns.link_bytes += m.total_bytes();
    ns.link_busy += occ;
    ns.link_max_queue_depth =
        std::max(ns.link_max_queue_depth, l.max_queue_depth);
  }
  return start + timing().mesh_hop_latency;
}

namespace {
LinkDir reverse_dir(LinkDir d) {
  switch (d) {
    case LinkDir::kEast: return LinkDir::kWest;
    case LinkDir::kWest: return LinkDir::kEast;
    case LinkDir::kSouth: return LinkDir::kNorth;
    case LinkDir::kNorth: return LinkDir::kSouth;
    case LinkDir::kCount: break;
  }
  return LinkDir::kCount;
}
}  // namespace

LinkDir MeshFabric::pick_step(const GridPos& p, const GridPos& dst,
                              LinkDir back, Cycle t) {
  const LinkDir preferred =
      (p.x != dst.x) ? step_dir(p.x, dst.x, width_, /*x_dim=*/true)
                     : step_dir(p.y, dst.y, height_, /*x_dim=*/false);
  // The dimension-order step always has a link (it heads toward dst).
  // When it is live and does not backtrack, it is what pass 0 below
  // would return first.
  if (preferred != back && !fault_plan_->link_down(p.router, preferred, t))
    return preferred;
  // Candidate order: dimension-order step, the other productive
  // dimension, then any detour direction.
  LinkDir order[4];
  int n = 0;
  const auto push = [&](LinkDir d) {
    for (int i = 0; i < n; ++i)
      if (order[i] == d) return;
    order[n++] = d;
  };
  push(preferred);
  if (p.x != dst.x && p.y != dst.y)
    push(step_dir(p.y, dst.y, height_, /*x_dim=*/false));
  push(LinkDir::kEast);
  push(LinkDir::kWest);
  push(LinkDir::kSouth);
  push(LinkDir::kNorth);
  // Pass 0 refuses to undo the previous hop; pass 1 backtracks out of
  // dead ends.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < n; ++i) {
      const LinkDir d = order[i];
      if (pass == 0 && d == back) continue;
      if (pass == 1 && d != back) continue;
      if (!has_link(p, d)) continue;
      if (fault_plan_->link_down(p.router, d, t)) continue;
      if (d != preferred && stats()) stats()->faults.reroutes++;
      return d;
    }
  }
  return LinkDir::kCount;  // walled in: the message dies here
}

Cycle MeshFabric::walk_straight(const Message& m, Cycle t) {
  const Cycle occ = link_occupancy(m);
  GridPos p = grid_pos(m.src);
  const GridPos dst = grid_pos(m.dst);
  const LinkDir dx = step_dir(p.x, dst.x, width_, /*x_dim=*/true);
  while (p.x != dst.x) {
    t = cross(p.router, dx, m, occ, t);
    advance(p, dx);
  }
  const LinkDir dy = step_dir(p.y, dst.y, height_, /*x_dim=*/false);
  while (p.y != dst.y) {
    t = cross(p.router, dy, m, occ, t);
    advance(p, dy);
  }
  return t;
}

Cycle MeshFabric::walk_gated(const Message& m, Cycle t) {
  const bool contention = link_contention_enabled();
  const Cycle occ = contention ? link_occupancy(m) : 0;
  GridPos p = grid_pos(m.src);
  const GridPos dst = grid_pos(m.dst);
  // Detours cannot exceed a perimeter walk of the grid; past this the
  // route is livelocked around moving outages — treat it as lost.
  const unsigned budget = 4 * (width_ + height_) + 8;
  unsigned taken = 0;
  LinkDir back = LinkDir::kCount;
  while (p.router != dst.router) {
    if (++taken > budget) return kNeverCycle;
    const LinkDir d = pick_step(p, dst, back, t);
    if (d == LinkDir::kCount) return kNeverCycle;
    if (contention)
      t = cross(p.router, d, m, occ, t);
    else
      t += timing().mesh_hop_latency;
    back = reverse_dir(d);
    advance(p, d);
  }
  return t;
}

Cycle MeshFabric::traverse(const Message& m, Cycle depart) {
  // Time only grows along a walk, so an outage can fire on it only
  // when one can be in force at departure.
  if (fault_plan_ != nullptr && !fault_plan_->links_up_from(depart))
    return walk_gated(m, depart);
  if (!link_contention_enabled()) return depart + latency(m.src, m.dst);
  return walk_straight(m, depart);
}

std::uint64_t MeshFabric::link_bytes_total() const {
  std::uint64_t sum = 0;
  for (const MeshLink& l : links_) sum += l.bytes;
  return sum;
}

std::uint32_t MeshFabric::max_link_queue_depth() const {
  std::uint32_t depth = 0;
  for (const MeshLink& l : links_) depth = std::max(depth, l.max_queue_depth);
  return depth;
}

std::uint32_t MeshFabric::max_queue_depth_into(std::uint32_t router) const {
  std::uint32_t depth = 0;
  for (std::uint32_t r = 0; r < routers(); ++r)
    for (std::uint32_t d = 0; d < std::uint32_t(LinkDir::kCount); ++d)
      if (neighbor(r, LinkDir(d)) == router)
        depth = std::max(depth, out_link(r, LinkDir(d)).max_queue_depth);
  return depth;
}

std::unique_ptr<Fabric> make_fabric(const SystemConfig& cfg, Stats* stats) {
  std::unique_ptr<Fabric> f;
  switch (cfg.fabric) {
    case FabricKind::kNiConstant:
      f = std::make_unique<NiFabric>(cfg.nodes, cfg.timing, stats);
      break;
    case FabricKind::kMesh2d:
      f = std::make_unique<MeshFabric>(cfg.nodes, cfg.timing, stats,
                                       cfg.mesh_width);
      break;
    case FabricKind::kTorus2d:
      f = std::make_unique<TorusFabric>(cfg.nodes, cfg.timing, stats,
                                        cfg.mesh_width);
      break;
  }
  DSM_ASSERT(f != nullptr, "unknown fabric kind");
  if (cfg.faults.enabled())
    f = std::make_unique<FaultyFabric>(std::move(f), cfg.faults, stats);
  return f;
}

}  // namespace dsm
