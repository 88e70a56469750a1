// Construction of the paper's systems. DsmSystem's constructor builds
// its PolicyEngine, which picks the decision rules from SystemKind (the
// paper's pairing) unless SystemConfig::policy selects the adaptive rule:
//
//   CC-NUMA            substrate only, finite block cache
//   perfect CC-NUMA    infinite block cache
//   CC-NUMA+Rep/Mig/MigRep   + the MigRep rules (one or both)
//   R-NUMA / R-NUMA-Inf      + R-NUMA relocation (finite / infinite
//                              page cache)
//   R-NUMA+MigRep            + both, delayed relocation
//
// SystemConfig::policy == kAdaptive runs the traffic-competitive
// adaptive rule instead, on any substrate (it relocates only when the
// substrate has a page cache).
#pragma once

#include <memory>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "dsm/cluster.hpp"

namespace dsm {

inline std::unique_ptr<DsmSystem> make_system(const SystemConfig& cfg,
                                              Stats* stats) {
  return std::make_unique<DsmSystem>(cfg, stats);
}

}  // namespace dsm
