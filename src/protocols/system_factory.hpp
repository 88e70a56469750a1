// Construction of the paper's systems: wires the DsmSystem substrate's
// PolicyEngine with the decision engines selected by SystemKind (the
// paper's pairing) or overridden by SystemConfig::policy.
//
//   CC-NUMA            substrate only, finite block cache
//   perfect CC-NUMA    infinite block cache
//   CC-NUMA+Rep/Mig/MigRep   + MigRepPolicy (one or both rules)
//   R-NUMA / R-NUMA-Inf      + RNumaPolicy (finite / infinite page cache)
//   R-NUMA+MigRep            + both policies, delayed relocation
//
// SystemConfig::policy == kAdaptive attaches the traffic-competitive
// adaptive engine instead, on any substrate (it relocates only when the
// substrate has a page cache).
#pragma once

#include <memory>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "dsm/cluster.hpp"

namespace dsm {

std::unique_ptr<DsmSystem> make_system(const SystemConfig& cfg, Stats* stats);

}  // namespace dsm
