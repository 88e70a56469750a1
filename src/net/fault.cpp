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

}  // namespace

FaultPlan::FaultPlan(const FaultConfig& cfg, std::uint32_t nodes,
                     std::uint32_t routers)
    : cfg_(cfg) {
  DSM_ASSERT(routers > 0 || !cfg_.has_link_outages(),
             "link outages need a mesh or torus fabric");
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

}  // namespace dsm
