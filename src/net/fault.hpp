// Deterministic fault schedule, owned by the Fabric (net/fabric.hpp)
// when FaultConfig::enabled().
//
// FaultPlan is a seeded, reproducible fault schedule:
//
//   - Per-message perturbations (drop / duplicate / extra delay) are
//     decided by ONE 53-bit draw per injectable message from a
//     per-source-node Rng stream (Rng::for_stream(seed, 0x10000 + src)).
//     The engine is deterministic, so every node's send order — and
//     with it the fault decisions, every downstream retry and byte — is
//     identical run after run at a fixed seed, and one node's draws
//     never shift another's. The three outcome ranges are disjoint
//     slices of [0, 2^53), so changing one rate never shifts another
//     rate's decisions.
//
//   - Directed-link outages (router, direction, [down, up) cycle
//     interval) on a mesh/torus, from an explicit list plus optionally
//     a seeded batch drawn from stream 0x20000; the Fabric adds the
//     resolved a:b node-pair outages and the crash-folded links. The
//     plan keeps a horizon, the latest end of any outage (crash-folded
//     and permanent ones included). An injectable mesh walk departing
//     before it consults the plan per hop and detours around dead links
//     (fabric.cpp pick_step), counting reroutes; one departing at or
//     after it takes the plain X-Y route without asking. The reliable
//     channel never asks.
//
//   - Whole-node crash windows ([down, up) per node), from an explicit
//     list plus optionally a seeded batch drawn from stream 0x30000. A
//     crashed node's sends never reach the wire and messages toward it
//     are swallowed after the send half (Fabric::send_ex); on a
//     mesh/torus its router's links additionally go down for the
//     window, so adaptive routing detours around the dead router. A
//     dead node is dead for the reliable channel's *protocol* too: the
//     recovery layer (dsm/recovery.cpp) consults node_down to decide
//     when retrying is pointless and emergency re-homing must take over.
#pragma once

#include <vector>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"

namespace dsm {

class FaultPlan {
 public:
  enum class Perturb : std::uint8_t { kNone = 0, kDrop, kDup, kDelay };

  // `routers` sizes the link-outage table (Grid::routers(); 0 on
  // ni-constant, which takes no link outages).
  FaultPlan(const FaultConfig& cfg, std::uint32_t nodes,
            std::uint32_t routers);

  // One decision per injectable message, from the per-source stream.
  Perturb draw(NodeId src);
  Cycle delay_cycles() const { return cfg_.delay_cycles; }

  // Per-kind targeting (--fault-kinds): a draw whose message kind is
  // outside the mask is discarded, never re-rolled, so narrowing the
  // mask leaves the surviving kinds' decisions untouched.
  bool targets(MsgKind k) const { return cfg_.targets(std::uint8_t(k)); }

  // Link-outage queries (mesh/torus routing). links_up_from(t) is true
  // when no directed-link outage can be in force at any time >= t: t is
  // at or past the horizon, the latest end of any outage. Time only
  // grows along a route walk, so a walk departing at such a t can skip
  // every per-hop check.
  bool links_up_from(Cycle t) const { return t >= link_horizon_; }
  bool link_down(std::uint32_t router, LinkDir d, Cycle t) const {
    if (links_up_from(t)) return false;
    const std::size_t idx =
        std::size_t(router) * std::size_t(LinkDir::kCount) + std::size_t(d);
    DSM_DEBUG_ASSERT(idx < link_outages_.size(), "link out of range");
    for (const Outage& o : link_outages_[idx])
      if (t >= o.down && t < o.up) return true;
    return false;
  }

  // Node-crash queries.
  bool has_node_faults() const { return has_node_faults_; }
  bool node_down(NodeId n, Cycle t) const;
  // End of the crash window containing `t` (kNeverCycle for a permanent
  // crash); 0 when the node is live at `t`.
  Cycle node_down_until(NodeId n, Cycle t) const;
  // The full materialized crash schedule (explicit + seeded draws).
  const std::vector<FaultConfig::NodeDown>& node_downs() const {
    return node_downs_;
  }

  // Installs a directed-link outage and raises the horizon to its end.
  // The constructor adds the configured (router, dir) outages and the
  // seeded draws through it; the Fabric adds the ones it resolves
  // against its grid.
  void add_link_outage(std::uint32_t router, LinkDir d, Cycle down, Cycle up);

 private:
  struct Outage {
    Cycle down;
    Cycle up;
  };

  FaultConfig cfg_;
  // Disjoint outcome thresholds over the 53-bit draw:
  //   [0, drop_below_)         -> drop
  //   [drop_below_, dup_below_)  -> duplicate
  //   [dup_below_, delay_below_) -> delay
  std::uint64_t drop_below_ = 0;
  std::uint64_t dup_below_ = 0;
  std::uint64_t delay_below_ = 0;
  std::vector<Rng> src_rng_;                       // per source node
  std::vector<std::vector<Outage>> link_outages_;  // router*4 + dir
  std::vector<FaultConfig::NodeDown> node_downs_;  // crash windows
  Cycle link_horizon_ = 0;  // max Outage::up; 0 = no link outages
  bool has_node_faults_ = false;
};

}  // namespace dsm
