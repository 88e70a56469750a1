#include "net/fault.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace dsm {

namespace {

// Per-source perturbation streams live at 0x10000 + node; the outage
// generator at 0x20000; the node-crash generator at 0x30000. All far
// from the engine's per-home streams (stream id = node), so fault draws
// never correlate with wakeup scheduling.
constexpr std::uint64_t kSrcStreamBase = 0x10000;
constexpr std::uint64_t kLinkStream = 0x20000;
constexpr std::uint64_t kNodeStream = 0x30000;

// Map a percentage onto a threshold over the 53-bit draw space.
std::uint64_t pct_threshold(double pct) {
  const double clamped = std::min(100.0, std::max(0.0, pct));
  return std::uint64_t(clamped * double(std::uint64_t(1) << 53) / 100.0);
}

// Fold node-pair outage schedules (--fault-link-down a:b@cycle+N) into
// explicit (router, dir) LinkDown entries: the directed link leaving
// node a's router toward adjacent node b. Requires a mesh/torus
// backend, and the two nodes must be neighbors on it.
FaultConfig resolve_node_link_downs(FaultConfig cfg, const Fabric* backend) {
  if (cfg.node_link_downs.empty()) return cfg;
  const auto* mesh = dynamic_cast<const MeshFabric*>(backend);
  DSM_ASSERT(mesh != nullptr,
             "node-pair link outages require a mesh/torus fabric");
  for (const FaultConfig::NodeLinkDown& nd : cfg.node_link_downs) {
    DSM_ASSERT(nd.a < mesh->nodes() && nd.b < mesh->nodes(),
               "fault-link-down node out of range");
    std::uint8_t dir = std::uint8_t(LinkDir::kCount);
    for (std::uint8_t d = 0; d < std::uint8_t(LinkDir::kCount); ++d)
      if (mesh->neighbor(nd.a, LinkDir(d)) == nd.b) dir = d;
    DSM_ASSERT(dir != std::uint8_t(LinkDir::kCount),
               "fault-link-down nodes are not mesh/torus neighbors");
    cfg.link_downs.push_back(
        FaultConfig::LinkDown{nd.a, dir, nd.down, nd.down + nd.len});
  }
  cfg.node_link_downs.clear();
  return cfg;
}

}  // namespace

FaultPlan::FaultPlan(const FaultConfig& cfg, std::uint32_t nodes,
                     std::uint32_t routers)
    : cfg_(cfg) {
  drop_below_ = pct_threshold(cfg_.drop_pct);
  dup_below_ = drop_below_ + pct_threshold(cfg_.dup_pct);
  delay_below_ = dup_below_ + pct_threshold(cfg_.delay_pct);
  DSM_ASSERT(delay_below_ <= (std::uint64_t(1) << 53),
             "fault rates sum past 100%");

  src_rng_.reserve(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n)
    src_rng_.push_back(Rng::for_stream(cfg_.seed, kSrcStreamBase + n));

  const std::size_t nlinks =
      std::size_t(routers) * std::size_t(LinkDir::kCount);
  link_outages_.resize(nlinks);
  for (const FaultConfig::LinkDown& ld : cfg_.link_downs) {
    DSM_ASSERT(ld.router < routers && ld.dir < 4, "link-down out of range");
    add_link_outage(ld.router, LinkDir(ld.dir), ld.down, ld.up);
  }
  Rng gen = Rng::for_stream(cfg_.seed, kLinkStream);
  for (std::uint32_t i = 0; i < cfg_.rand_link_downs; ++i) {
    const std::uint32_t router = std::uint32_t(gen.next_below(routers));
    const std::uint32_t dir = std::uint32_t(gen.next_below(4));
    const Cycle down = gen.next_below(cfg_.rand_link_down_horizon);
    add_link_outage(router, LinkDir(dir), down,
                    down + cfg_.rand_link_down_len);
  }

  node_downs_ = cfg_.node_downs;
  Rng crash = Rng::for_stream(cfg_.seed, kNodeStream);
  for (std::uint32_t i = 0; i < cfg_.rand_node_downs; ++i) {
    const std::uint32_t n = std::uint32_t(crash.next_below(nodes));
    const Cycle down = crash.next_below(cfg_.rand_node_down_horizon);
    node_downs_.push_back(
        FaultConfig::NodeDown{n, down, down + cfg_.rand_node_down_len});
  }
  for (const FaultConfig::NodeDown& nd : node_downs_) {
    DSM_ASSERT(nd.node < nodes, "fault-node-down node out of range");
    DSM_ASSERT(nd.down < nd.up, "fault-node-down empty window");
    has_node_faults_ = true;
  }
}

FaultPlan::Perturb FaultPlan::draw(NodeId src) {
  DSM_DEBUG_ASSERT(src < src_rng_.size());
  const std::uint64_t u = src_rng_[src].next_u64() >> 11;  // 53 bits
  if (u < drop_below_) return Perturb::kDrop;
  if (u < dup_below_) return Perturb::kDup;
  if (u < delay_below_) return Perturb::kDelay;
  return Perturb::kNone;
}

bool FaultPlan::node_down(NodeId n, Cycle t) const {
  return node_down_until(n, t) != 0;
}

Cycle FaultPlan::node_down_until(NodeId n, Cycle t) const {
  if (!has_node_faults_) return 0;
  for (const FaultConfig::NodeDown& nd : node_downs_)
    if (nd.node == n && t >= nd.down && t < nd.up) return nd.up;
  return 0;
}

void FaultPlan::add_link_outage(std::uint32_t router, LinkDir d, Cycle down,
                                Cycle up) {
  const std::size_t idx =
      std::size_t(router) * std::size_t(LinkDir::kCount) + std::size_t(d);
  DSM_ASSERT(idx < link_outages_.size(), "link outage out of range");
  link_outages_[idx].push_back(Outage{down, up});
  link_horizon_ = std::max(link_horizon_, up);
}

// ---------------------------------------------------------------------------
// FaultyFabric
// ---------------------------------------------------------------------------

FaultyFabric::FaultyFabric(std::unique_ptr<Fabric> inner,
                           const FaultConfig& cfg, Stats* stats)
    : Fabric(inner->nodes(), inner->timing(), stats),
      inner_(std::move(inner)),
      plan_(resolve_node_link_downs(cfg, inner_.get()), inner_->nodes(),
            [&]() -> std::uint32_t {
              if (const auto* mesh =
                      dynamic_cast<const MeshFabric*>(inner_.get()))
                return mesh->routers();
              return inner_->nodes();
            }()) {
  if (auto* mesh = dynamic_cast<MeshFabric*>(inner_.get())) {
    mesh->set_fault_plan(&plan_);
    // Fold node crashes into the dead router's links: its four outgoing
    // links and every neighbor's link toward it are down for the crash
    // window, so adaptive routing (pick_step) detours around the dead
    // router exactly as it does around scheduled link outages.
    for (const FaultConfig::NodeDown& nd : plan_.node_downs()) {
      for (std::uint8_t d = 0; d < std::uint8_t(LinkDir::kCount); ++d) {
        plan_.add_link_outage(nd.node, LinkDir(d), nd.down, nd.up);
        const std::uint32_t nb = mesh->neighbor(nd.node, LinkDir(d));
        if (nb == MeshFabric::kNoRouter) continue;
        for (std::uint8_t bd = 0; bd < std::uint8_t(LinkDir::kCount); ++bd)
          if (mesh->neighbor(nb, LinkDir(bd)) == nd.node)
            plan_.add_link_outage(nb, LinkDir(bd), nd.down, nd.up);
      }
    }
  }
}

FaultyFabric::~FaultyFabric() {
  if (auto* mesh = dynamic_cast<MeshFabric*>(inner_.get()))
    mesh->set_fault_plan(nullptr);
}

FaultStats& FaultyFabric::faults() {
  return stats() ? stats()->faults : local_faults_;
}

Cycle FaultyFabric::send(const Message& m, Cycle ready) {
  FaultPlan::SuspendScope reliable(&plan_);
  return inner_->send(m, ready);
}

void FaultyFabric::post(const Message& m, Cycle ready) {
  // Fire-and-forget traffic to or from a dead node is swallowed on the
  // wire; the caller's synchronous state updates are unaffected.
  if (plan_.has_node_faults() &&
      (plan_.node_down(m.src, ready) || plan_.node_down(m.dst, ready))) {
    faults().crash_drops++;
    return;
  }
  FaultPlan::SuspendScope reliable(&plan_);
  inner_->post(m, ready);
}

Delivery FaultyFabric::send_ex(const Message& m, Cycle ready) {
  if (plan_.has_node_faults()) {
    // A crashed source never reaches the wire (no NI charge); a message
    // toward a crashed destination is swallowed after the send half.
    // Both are judged at send time, like the perturbation draw.
    if (plan_.node_down(m.src, ready)) {
      faults().crash_drops++;
      return Delivery{ready, false, false};
    }
    if (plan_.node_down(m.dst, ready)) {
      faults().crash_drops++;
      return Delivery{inner_->drop_after_send(m, ready), false, false};
    }
  }
  FaultPlan::Perturb p = plan_.draw(m.src);
  if (p != FaultPlan::Perturb::kNone && !plan_.targets(m.kind))
    p = FaultPlan::Perturb::kNone;
  switch (p) {
    case FaultPlan::Perturb::kDrop:
      // The sender's NI and byte accounting see a normal departure; the
      // wire eats the message.
      faults().drops_injected++;
      return Delivery{inner_->drop_after_send(m, ready), false, false};
    case FaultPlan::Perturb::kDup: {
      faults().dups_injected++;
      Delivery d = inner_->send_ex(m, ready);
      (void)inner_->send_ex(m, ready);  // the duplicate copy, fully charged
      d.duplicated = true;
      return d;
    }
    case FaultPlan::Perturb::kDelay: {
      faults().delays_injected++;
      Delivery d = inner_->send_ex(m, ready);
      if (d.delivered) d.at += plan_.delay_cycles();
      return d;
    }
    case FaultPlan::Perturb::kNone:
      break;
  }
  return inner_->send_ex(m, ready);
}

}  // namespace dsm
