#include "common/config.hpp"

#include "common/log.hpp"

namespace dsm {

const char* to_string(SystemKind k) {
  switch (k) {
    case SystemKind::kCcNuma: return "CC-NUMA";
    case SystemKind::kPerfectCcNuma: return "perfect-CC-NUMA";
    case SystemKind::kCcNumaRep: return "CC-NUMA+Rep";
    case SystemKind::kCcNumaMig: return "CC-NUMA+Mig";
    case SystemKind::kCcNumaMigRep: return "CC-NUMA+MigRep";
    case SystemKind::kRNuma: return "R-NUMA";
    case SystemKind::kRNumaInf: return "R-NUMA-Inf";
    case SystemKind::kRNumaMigRep: return "R-NUMA+MigRep";
  }
  return "?";
}

bool uses_page_cache(SystemKind k) {
  return k == SystemKind::kRNuma || k == SystemKind::kRNumaInf ||
         k == SystemKind::kRNumaMigRep;
}

const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kDefault: return "default";
    case PolicyKind::kAdaptive: return "adaptive";
  }
  return "?";
}

const char* to_string(FabricKind k) {
  switch (k) {
    case FabricKind::kNiConstant: return "ni-constant";
    case FabricKind::kMesh2d: return "mesh-2d";
    case FabricKind::kTorus2d: return "torus-2d";
  }
  return "?";
}

const char* to_string(DirScheme s) {
  switch (s) {
    case DirScheme::kAuto: return "auto";
    case DirScheme::kFullMap: return "full";
    case DirScheme::kLimitedPtr: return "limited";
    case DirScheme::kCoarse: return "coarse";
  }
  return "?";
}

TimingConfig TimingConfig::fast_page_ops() { return TimingConfig{}; }

TimingConfig TimingConfig::slow_page_ops() {
  // Section 6.2: 50 us soft traps (30000 cycles), 5 us TLB shootdowns
  // (3000 cycles), an extra 10 us (6000 cycles) of page copying, and
  // thresholds raised to 1200 (MigRep) / 64 (R-NUMA) to avoid thrashing.
  TimingConfig t{};
  t.soft_trap = 30000;
  t.tlb_shootdown = 3000;
  t.page_op_fixed = 30000;
  t.page_copy_fixed = t.page_copy_fixed + 6000;
  t.migrep_threshold = 1200;
  t.rnuma_threshold = 64;
  return t;
}

TimingConfig TimingConfig::long_latency() {
  // Section 6.3: remote:local ratio of 16, i.e. remote miss = 1664
  // cycles. Only the wire latency changes; a unit test pins the ratio.
  TimingConfig t{};
  const Cycle target = t.local_miss_total() * 16;
  const Cycle base_remote = t.remote_clean_miss_total();
  DSM_ASSERT(target > base_remote);
  const Cycle base_net = t.net_latency;
  t.net_latency += (target - base_remote) / 2;
  // Scale the mesh per-hop latency by the same factor so the sweep hits
  // the same average remote:local ratio on both fabric backends.
  t.mesh_hop_latency = t.mesh_hop_latency * t.net_latency / base_net;
  return t;
}

SystemConfig SystemConfig::base(SystemKind kind) {
  SystemConfig cfg{};
  cfg.kind = kind;
  if (kind == SystemKind::kRNumaMigRep) {
    // Section 6.4's integration policy: let MigRep observe a page's miss
    // stream for an initial interval before R-NUMA may relocate it.
    cfg.timing.rnuma_relocation_delay_misses = 32000;
  }
  return cfg;
}

}  // namespace dsm
