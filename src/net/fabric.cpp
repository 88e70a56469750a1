#include "net/fabric.hpp"

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

// ---------------------------------------------------------------------------
// Grid
// ---------------------------------------------------------------------------

Grid::Grid(const SystemConfig& cfg) {
  if (cfg.fabric == FabricKind::kNiConstant) return;
  DSM_ASSERT(cfg.nodes > 0);
  wrap = cfg.fabric == FabricKind::kTorus2d;
  width = cfg.mesh_width;
  if (width == 0) {
    // Most square factorization: the largest divisor <= sqrt(nodes) is
    // the height.
    std::uint32_t best = 1;
    for (std::uint32_t d = 1; d * d <= cfg.nodes; ++d)
      if (cfg.nodes % d == 0) best = d;
    width = cfg.nodes / best;
  }
  DSM_ASSERT(cfg.nodes % width == 0,
             "mesh/torus requires nodes == width x height");
  height = cfg.nodes / width;
}

LinkDir Grid::step_dir(std::uint32_t cur, std::uint32_t dst,
                       std::uint32_t size, bool x_dim) const {
  bool forward;  // east / south
  if (!wrap) {
    forward = dst > cur;
  } else {
    const std::uint32_t fwd = dst >= cur ? dst - cur : dst + size - cur;
    forward = fwd <= size - fwd;  // ties go east/south
  }
  if (x_dim) return forward ? LinkDir::kEast : LinkDir::kWest;
  return forward ? LinkDir::kSouth : LinkDir::kNorth;
}

bool Grid::has_link(const Pos& p, LinkDir d) const {
  if (wrap) return true;
  switch (d) {
    case LinkDir::kEast: return p.x + 1 < width;
    case LinkDir::kWest: return p.x > 0;
    case LinkDir::kSouth: return p.y + 1 < height;
    case LinkDir::kNorth: return p.y > 0;
    case LinkDir::kCount: break;
  }
  return false;
}

void Grid::advance(Pos& p, LinkDir d) const {
  DSM_DEBUG_ASSERT(has_link(p, d), "route fell off the mesh");
  switch (d) {
    case LinkDir::kEast:
      if (p.x + 1 < width) {
        ++p.x;
        ++p.router;
      } else {  // torus wrap to the row's first column
        p.x = 0;
        p.router = p.router + 1 - width;
      }
      break;
    case LinkDir::kWest:
      if (p.x > 0) {
        --p.x;
        --p.router;
      } else {
        p.x = width - 1;
        p.router = p.router + width - 1;
      }
      break;
    case LinkDir::kSouth:
      if (p.y + 1 < height) {
        ++p.y;
        p.router += width;
      } else {
        p.y = 0;
        p.router = p.x;
      }
      break;
    case LinkDir::kNorth:
      if (p.y > 0) {
        --p.y;
        p.router -= width;
      } else {
        p.y = height - 1;
        p.router = p.y * width + p.x;
      }
      break;
    case LinkDir::kCount: break;
  }
}

std::uint32_t Grid::neighbor(std::uint32_t router, LinkDir d) const {
  Pos p = pos(router);
  if (d == LinkDir::kCount || !has_link(p, d)) return kNoRouter;
  advance(p, d);
  return p.router;
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

Fabric::Fabric(const SystemConfig& cfg, Stats* stats)
    : kind_(cfg.fabric),
      timing_(cfg.timing),
      stats_(stats),
      send_(cfg.nodes),
      recv_(cfg.nodes),
      grid_(cfg),
      links_(std::size_t(grid_.routers()) * std::size_t(LinkDir::kCount)) {
  DSM_ASSERT(stats_ != nullptr && stats_->node.size() >= cfg.nodes,
             "the fabric charges a Stats sized for the node count");
  if (!cfg.faults.enabled()) return;
  plan_ = std::make_unique<FaultPlan>(cfg.faults, cfg.nodes, grid_.routers());
  // A node-pair outage downs the link the route from a to b takes first.
  for (const FaultConfig::NodeLinkDown& nd : cfg.faults.node_link_downs) {
    DSM_ASSERT(nd.a < nodes() && nd.b < nodes() && grid_.hops(nd.a, nd.b) == 1,
               "fault-link-down nodes are not mesh/torus neighbors");
    plan_->add_link_outage(nd.a, grid_.step(grid_.pos(nd.a), grid_.pos(nd.b)),
                           nd.down, nd.down + nd.len);
  }
  // A crash downs the dead router's four outgoing links and every
  // neighbor's link toward it for the window, so adaptive routing
  // (pick_step) detours around the dead router exactly as it does around
  // scheduled link outages.
  if (grid_.routers() == 0) return;
  for (const FaultConfig::NodeDown& nd : plan_->node_downs()) {
    for (std::uint8_t i = 0; i < std::uint8_t(LinkDir::kCount); ++i) {
      const LinkDir d = LinkDir(i);
      plan_->add_link_outage(nd.node, d, nd.down, nd.up);
      const std::uint32_t nb = grid_.neighbor(nd.node, d);
      if (nb != Grid::kNoRouter)
        plan_->add_link_outage(nb, reverse_dir(d), nd.down, nd.up);
    }
  }
}

Fabric::~Fabric() = default;

void Fabric::account(const Message& m) {
  DSM_DEBUG_ASSERT(m.src != m.dst, "fabric message to self");
  DSM_DEBUG_ASSERT(m.src < nodes() && m.dst < nodes());
  stats_->node[m.src].traffic.add(m.cls(), m.total_bytes());
}

Cycle Fabric::send_half(const Message& m, Cycle ready) {
  account(m);
  const Cycle socc = occupancy(m, timing_.ni_send);
  return send_[m.src].reserve(ready, socc) + socc;
}

Delivery Fabric::wire(const Message& m, Cycle ready, bool gated) {
  const Cycle depart = send_half(m, ready);
  const Cycle at_dest = traverse(m, depart, gated);
  // A gated route can dead-end (every detour walled in by link
  // outages): the message is lost on the wire, like a drop.
  if (at_dest == kNeverCycle) return Delivery{depart, false, false};
  const Cycle rocc = occupancy(m, timing_.ni_recv);
  return Delivery{recv_[m.dst].reserve(at_dest, rocc) + rocc, true, false};
}

Cycle Fabric::send(const Message& m, Cycle ready) {
  return wire(m, ready, /*gated=*/false).at;
}

void Fabric::post(const Message& m, Cycle ready) {
  // Fire-and-forget traffic to or from a dead node is swallowed on the
  // wire; the caller's synchronous state updates are unaffected.
  if (plan_ && plan_->has_node_faults() &&
      (plan_->node_down(m.src, ready) || plan_->node_down(m.dst, ready))) {
    stats_->faults.crash_drops++;
    return;
  }
  account(m);
  const Cycle socc = occupancy(m, timing_.ni_send);
  send_[m.src].occupy(ready, socc);
  recv_[m.dst].occupy(traverse(m, ready + socc, /*gated=*/false),
                      occupancy(m, timing_.ni_recv));
}

Delivery Fabric::send_ex(const Message& m, Cycle ready) {
  if (!plan_) return wire(m, ready, /*gated=*/false);
  FaultStats& fs = stats_->faults;
  if (plan_->has_node_faults()) {
    // A crashed source never reaches the wire (no NI charge); a message
    // toward a crashed destination is swallowed after the send half.
    // Both are judged at send time, like the perturbation draw.
    if (plan_->node_down(m.src, ready)) {
      fs.crash_drops++;
      return Delivery{ready, false, false};
    }
    if (plan_->node_down(m.dst, ready)) {
      fs.crash_drops++;
      return Delivery{send_half(m, ready), false, false};
    }
  }
  FaultPlan::Perturb p = plan_->draw(m.src);
  if (p != FaultPlan::Perturb::kNone && !plan_->targets(m.kind))
    p = FaultPlan::Perturb::kNone;
  switch (p) {
    case FaultPlan::Perturb::kDrop:
      // The sender's NI and byte accounting see a normal departure; the
      // wire eats the message.
      fs.drops_injected++;
      return Delivery{send_half(m, ready), false, false};
    case FaultPlan::Perturb::kDup: {
      fs.dups_injected++;
      Delivery d = wire(m, ready, /*gated=*/true);
      (void)wire(m, ready, /*gated=*/true);  // the copy, fully charged
      d.duplicated = true;
      return d;
    }
    case FaultPlan::Perturb::kDelay: {
      fs.delays_injected++;
      Delivery d = wire(m, ready, /*gated=*/true);
      if (d.delivered) d.at += plan_->delay_cycles();
      return d;
    }
    case FaultPlan::Perturb::kNone:
      break;
  }
  return wire(m, ready, /*gated=*/true);
}

Cycle Fabric::traverse(const Message& m, Cycle depart, bool gated) {
  if (kind_ == FabricKind::kNiConstant) return depart + timing_.net_latency;
  // Time only grows along a walk, so an outage can fire on it only
  // when one can be in force at departure.
  if (gated && !plan_->links_up_from(depart)) return walk_gated(m, depart);
  if (timing_.mesh_link_bytes_per_cycle == 0)
    return depart + Cycle(grid_.hops(m.src, m.dst)) * timing_.mesh_hop_latency;
  return walk_straight(m, depart);
}

LinkDir Fabric::pick_step(const Grid::Pos& p, const Grid::Pos& dst,
                          LinkDir back, Cycle t) {
  const LinkDir preferred = grid_.step(p, dst);
  // The dimension-order step always has a link (it heads toward dst).
  // When it is live and does not backtrack, it is what pass 0 below
  // would return first.
  if (preferred != back && !plan_->link_down(p.router, preferred, t))
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
    push(grid_.step_dir(p.y, dst.y, grid_.height, /*x_dim=*/false));
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
      if (!grid_.has_link(p, d)) continue;
      if (plan_->link_down(p.router, d, t)) continue;
      if (d != preferred) stats_->faults.reroutes++;
      return d;
    }
  }
  return LinkDir::kCount;  // walled in: the message dies here
}

Cycle Fabric::walk_straight(const Message& m, Cycle t) {
  const std::uint32_t bytes = m.total_bytes();
  const Cycle occ = link_occupancy(bytes);
  const Cycle hop = timing_.mesh_hop_latency;
  Grid::Pos p = grid_.pos(m.src);
  const Grid::Pos dst = grid_.pos(m.dst);
  const LinkDir dx = grid_.step_dir(p.x, dst.x, grid_.width, /*x_dim=*/true);
  while (p.x != dst.x) {
    t = links_[link_index(p.router, dx)].take(t, occ, bytes) + hop;
    grid_.advance(p, dx);
  }
  const LinkDir dy =
      grid_.step_dir(p.y, dst.y, grid_.height, /*x_dim=*/false);
  while (p.y != dst.y) {
    t = links_[link_index(p.router, dy)].take(t, occ, bytes) + hop;
    grid_.advance(p, dy);
  }
  return t;
}

Cycle Fabric::walk_gated(const Message& m, Cycle t) {
  const bool contended = timing_.mesh_link_bytes_per_cycle > 0;
  const std::uint32_t bytes = m.total_bytes();
  const Cycle occ = contended ? link_occupancy(bytes) : 0;
  const Cycle hop = timing_.mesh_hop_latency;
  Grid::Pos p = grid_.pos(m.src);
  const Grid::Pos dst = grid_.pos(m.dst);
  // Detours cannot exceed a perimeter walk of the grid; past this the
  // route is livelocked around moving outages — treat it as lost.
  const unsigned budget = 4 * (grid_.width + grid_.height) + 8;
  unsigned taken = 0;
  LinkDir back = LinkDir::kCount;
  while (p.router != dst.router) {
    if (++taken > budget) return kNeverCycle;
    const LinkDir d = pick_step(p, dst, back, t);
    if (d == LinkDir::kCount) return kNeverCycle;
    if (contended)
      t = links_[link_index(p.router, d)].take(t, occ, bytes) + hop;
    else
      t += hop;
    back = reverse_dir(d);
    grid_.advance(p, d);
  }
  return t;
}

LinkUsage Fabric::link_usage() const {
  LinkUsage u;
  for (const MeshLink& l : links_) {
    u.bytes += l.bytes;
    u.busy += l.res.total_busy();
    u.max_queue_depth = std::max(u.max_queue_depth, l.max_queue_depth);
  }
  return u;
}

}  // namespace dsm
