// System and timing configuration.
//
// TimingConfig encodes the paper's Table 3 cost model as named
// components. The components are calibrated so that an *unloaded* local
// miss costs exactly 104 processor cycles and an unloaded clean remote
// miss costs exactly 418 cycles (618 MHz dual-issue CPUs, 100 MHz bus,
// 80-cycle point-to-point network). tests/common/config_test.cpp pins
// these sums.
//
// SystemConfig selects the protocol variant and the machine shape
// (8 nodes x 4 CPUs in the paper's base system).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dsm {

// Which DSM system to build. Mirrors the systems compared in the paper.
enum class SystemKind {
  kCcNuma,          // base CC-NUMA with a finite SRAM block cache
  kPerfectCcNuma,   // infinite block cache: the normalization baseline
  kCcNumaRep,       // CC-NUMA + page replication only
  kCcNumaMig,       // CC-NUMA + page migration only
  kCcNumaMigRep,    // CC-NUMA + both (the paper's MigRep)
  kRNuma,           // reactive CC-NUMA/S-COMA hybrid with a page cache
  kRNumaInf,        // R-NUMA with an infinite page cache
  kRNumaMigRep,     // R-NUMA + MigRep integration (Section 6.4)
};

const char* to_string(SystemKind k);

// True for systems that include the S-COMA page cache machinery.
bool uses_page_cache(SystemKind k);

// Which decision rules the policy engine runs
// (protocols/policy_engine.hpp). kDefault derives the paper's pairing
// from SystemKind (MigRep rules for the +Rep/+Mig/+MigRep systems,
// reactive relocation for the R-NUMA systems); kAdaptive runs the
// adaptive rule instead, on any substrate (it relocates only where the
// SystemKind has a page cache).
enum class PolicyKind : std::uint8_t {
  kDefault = 0,  // derive from SystemKind (the paper's pairing)
  kAdaptive,     // traffic-competitive adaptive rule (byte-threshold)
};

const char* to_string(PolicyKind k);

// Interconnect fabric backend (net/fabric.hpp).
enum class FabricKind : std::uint8_t {
  kNiConstant = 0,  // constant wire latency, NI contention (the paper)
  kMesh2d,          // 2D mesh: latency = Manhattan hops x per-hop latency
  kTorus2d,         // 2D torus: mesh router core with wraparound links
};

const char* to_string(FabricKind k);

// Sharer-set representation of the home directory (and the replica set).
// The schemes mirror the classic directory-organization trade-off:
//   kFullMap     one presence bit per node — exact, but entry width grows
//                with machine size; only legal when nodes fit the inline
//                bit-vector (<= 64). Decision- and byte-identical to the
//                pre-NodeSet raw-mask behavior, which the parity goldens
//                pin at 8/16 nodes.
//   kLimitedPtr  up to 4 inline node pointers (Dir-4); overflow falls
//                back to the coarse-vector representation below, i.e.
//                the classic Dir_i_CV hybrid.
//   kCoarse      one bit per K-node region; invalidations multicast to
//                every node of a marked region, and the overshoot is
//                charged as real control traffic — that overshoot is the
//                experiment bench_scaleout measures.
//   kAuto        full map when nodes <= 64, limited pointers beyond.
enum class DirScheme : std::uint8_t {
  kAuto = 0,
  kFullMap,
  kLimitedPtr,
  kCoarse,
};

const char* to_string(DirScheme s);

// All costs in 600 MHz processor cycles (1 bus cycle = 6 CPU cycles).
struct TimingConfig {
  // --- block-level components -------------------------------------------
  Cycle l1_hit = 1;            // pipelined; charged against dual-issue IPC
  Cycle l1_miss_detect = 4;    // tag check + miss path to bus interface
  Cycle bus_arb = 6;           // split-transaction bus arbitration (1 bus cyc)
  Cycle bus_addr = 6;          // address phase
  Cycle bus_data = 12;         // data phase occupancy for a 64-byte block
  Cycle mem_access = 66;       // interleaved DRAM access at the node
  Cycle fill = 10;             // critical-word fill into L1 and restart
  // Local miss total: l1_miss_detect + bus_arb + bus_addr + mem_access +
  //                   bus_data + fill = 104.

  // Cluster-device components (remote path).
  Cycle bc_lookup = 12;        // SRAM block-cache / fine-grain tag lookup
  Cycle dir_lookup = 24;       // home directory SRAM lookup + FSM dispatch
  Cycle ni_send = 16;          // network-interface send occupancy per message
  Cycle ni_recv = 16;          // network-interface receive occupancy
  Cycle net_latency = 80;      // point-to-point wire latency (Table 3)
  // Per-hop wire latency of the 2D-mesh fabric. The default makes the
  // average mesh distance on the paper's 8-node (4x2) machine come out
  // near the 80-cycle constant model (~2 hops between distinct nodes).
  Cycle mesh_hop_latency = 40;
  // Link bandwidth of the mesh/torus fabric: a message serializes
  // through every directed link on its route for
  // ceil(total_bytes / mesh_link_bytes_per_cycle) cycles, so dense
  // traffic queues inside the network, not only at the edge NIs.
  // 0 disables link-level contention (hop-latency-only wire model);
  // link contention changes latency, never the per-class byte counts.
  std::uint32_t mesh_link_bytes_per_cycle = 4;
  Cycle protocol_fsm = 48;     // protocol engine occupancy per hop pair
  // Remote clean miss total (request + reply through home memory):
  //   l1_miss_detect + bus_arb + bus_addr + bc_lookup
  // + ni_send + net_latency + ni_recv + dir_lookup + protocol_fsm
  // + mem_access + ni_send + net_latency + ni_recv
  // + bus_arb + bus_data + fill = 418.

  // --- page-level components (Table 3) ------------------------------------
  Cycle soft_trap = 3000;          // page faults, relocation interrupts
  Cycle tlb_shootdown = 300;       // per-node TLB invalidation
  Cycle page_op_fixed = 3000;      // fixed part of alloc/replace/relocate
  Cycle page_op_per_block = 133;   // + per flushed block (64 blocks -> ~11500)
  Cycle page_copy_fixed = 8000;    // fixed part of a page copy (mig/rep)
  Cycle page_copy_per_block = 215; // + per copied block (64 blocks -> ~21800)

  // --- policy thresholds ---------------------------------------------------
  std::uint32_t migrep_threshold = 800;       // misses before mig/rep fires
  std::uint64_t migrep_reset_interval = 32000; // counted misses between resets
  std::uint32_t rnuma_threshold = 32;         // refetches before relocation
  // R-NUMA+MigRep integration: relocation allowed only after this many
  // misses to a page (Section 6.4's "initial preset interval").
  std::uint64_t rnuma_relocation_delay_misses = 0;

  // Traffic-competitive adaptive rule (protocols/policy_engine.hpp): a
  // page op fires once a page's accumulated remote bytes exceed
  // adaptive_k x the modeled page-move byte cost (the classic
  // competitive threshold; k = 1 is break-even against a single move,
  // larger k demands more evidence).
  std::uint32_t adaptive_k = 4;

  // --- fault recovery (net/fault.hpp) --------------------------------------
  // First retransmission backoff after a lost transaction; attempt n
  // waits fault_retry_base << n. After fault_retry_max_attempts the
  // transaction degrades (page ops abort cleanly, demand fetches force
  // through and bump the hard-error counter).
  Cycle fault_retry_base = 2000;
  std::uint32_t fault_retry_max_attempts = 6;

  // Derived sums for the unloaded latency contract.
  Cycle local_miss_total() const {
    return l1_miss_detect + bus_arb + bus_addr + mem_access + bus_data + fill;
  }
  Cycle remote_clean_miss_total() const {
    return l1_miss_detect + bus_arb + bus_addr + bc_lookup + ni_send +
           net_latency + ni_recv + dir_lookup + protocol_fsm + mem_access +
           ni_send + net_latency + ni_recv + bus_arb + bus_data + fill;
  }

  // Page-operation charges (n = number of blocks flushed/copied).
  Cycle page_op_cost(unsigned blocks) const {
    return page_op_fixed + Cycle(blocks) * page_op_per_block;
  }
  Cycle page_copy_cost(unsigned blocks) const {
    return page_copy_fixed + Cycle(blocks) * page_copy_per_block;
  }

  // The paper's "slow" variant (Section 6.2): ten-fold kernel overheads,
  // no page-flush/TLB hardware, larger thresholds.
  static TimingConfig fast_page_ops();
  static TimingConfig slow_page_ops();
  // Section 6.3: network latency chosen so remote:local = 16.
  static TimingConfig long_latency();
};

// Deterministic fault-injection schedule (net/fault.hpp). All rates are
// percentages of messages on the injectable channel; decisions are drawn
// from per-source-node Rng streams, so a fixed seed replays the same
// schedule and one node's draws never shift another's. Default-
// constructed = no faults, and the Fabric builds no plan
// (zero-cost-when-off).
struct FaultConfig {
  std::uint64_t seed = 0;     // fault-plan RNG seed (independent of cfg.seed)
  double drop_pct = 0.0;      // % of messages silently dropped in flight
  double dup_pct = 0.0;       // % of messages delivered twice
  double delay_pct = 0.0;     // % of messages held delay_cycles extra
  Cycle delay_cycles = 500;   // extra in-flight latency for delayed messages

  // Scheduled directed-link outages on the mesh/torus fabric: the link
  // leaving `router` in direction `dir` (LinkDir encoding) is dead for
  // cycles [down, up).
  struct LinkDown {
    std::uint32_t router = 0;
    std::uint8_t dir = 0;
    Cycle down = 0;
    Cycle up = 0;
  };
  std::vector<LinkDown> link_downs;

  // Node-pair outage schedule (--fault-link-down a:b@cycle+N): the
  // directed link the route from node `a` to adjacent node `b` takes is
  // dead for cycles [down, down + len). The Fabric resolves it against
  // its grid at construction (on a torus dimension of size 2, two links
  // join the pair; the route takes the east/south one); validate()
  // rejects a pair that are not grid neighbours.
  struct NodeLinkDown {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    Cycle down = 0;
    Cycle len = 0;
  };
  std::vector<NodeLinkDown> node_link_downs;

  // Seeded random outages: this many extra LinkDown intervals are drawn
  // from the plan RNG at construction, each rand_link_down_len cycles
  // long with start cycles uniform in [0, rand_link_down_horizon).
  std::uint32_t rand_link_downs = 0;
  Cycle rand_link_down_len = 200000;
  Cycle rand_link_down_horizon = 20'000'000;

  // Whole-node crash schedule (--fault-node-down n@cycle+N): node `node`
  // is dead for cycles [down, up) — every send from or toward it is
  // swallowed, its router's mesh links go down (composing with adaptive
  // reroute), and its home agent stops answering, which triggers
  // requester-side emergency re-homing. up = kNeverCycle makes the
  // crash permanent.
  struct NodeDown {
    std::uint32_t node = 0;
    Cycle down = 0;
    Cycle up = kNeverCycle;
  };
  std::vector<NodeDown> node_downs;

  // Seeded random crashes: this many extra NodeDown intervals are drawn
  // from the plan RNG at construction, each rand_node_down_len cycles
  // long with start cycles uniform in [0, rand_node_down_horizon).
  std::uint32_t rand_node_downs = 0;
  Cycle rand_node_down_len = 400000;
  Cycle rand_node_down_horizon = 20'000'000;

  // Per-kind fault targeting (--fault-kinds data,ack,...): drop/dup/
  // delay outcomes apply only to message kinds whose bit is set here.
  // The per-source draw sequence is consumed for every message
  // regardless, so narrowing the mask never changes which draws the
  // remaining kinds see. Default = all kinds injectable.
  std::uint32_t fault_kinds = ~0u;

  bool targets(std::uint8_t kind) const {
    return (fault_kinds >> kind) & 1u;
  }

  bool has_link_outages() const {
    return !link_downs.empty() || !node_link_downs.empty() ||
           rand_link_downs > 0;
  }
  bool enabled() const {
    return drop_pct > 0.0 || dup_pct > 0.0 || delay_pct > 0.0 ||
           has_link_outages() || !node_downs.empty() || rand_node_downs > 0;
  }
};

struct SystemConfig {
  SystemKind kind = SystemKind::kCcNuma;
  // Decision-rule selection for the policy engine; kDefault derives the
  // paper's pairing from `kind`.
  PolicyKind policy = PolicyKind::kDefault;
  TimingConfig timing{};

  std::uint32_t nodes = 8;
  std::uint32_t cpus_per_node = 4;

  // Interconnect backend and mesh geometry (0 = most square layout).
  FabricKind fabric = FabricKind::kNiConstant;
  std::uint32_t mesh_width = 0;

  // Directory sharer-set representation (common/node_set.hpp). kAuto
  // resolves to the exact full map whenever it fits (<= 64 nodes), so
  // every paper-scale configuration behaves bit-identically to the
  // pre-NodeSet code; larger machines fall back to limited pointers.
  DirScheme dir_scheme = DirScheme::kAuto;

  // Caches. The paper: 16-KByte direct-mapped L1s, a 64-KByte inclusive
  // node block cache (= sum of the node's L1s), and a 2.4-MByte S-COMA
  // page cache (40x the block cache).
  std::uint64_t l1_bytes = 16 * 1024;
  std::uint64_t block_cache_bytes = 64 * 1024;
  std::uint64_t page_cache_bytes = 2400 * 1024;

  // MigRep monitoring hardware: number of pages per home node for which
  // miss counters physically exist. Real implementations provide "only
  // a 'cache' of miss counters as opposed to per-page counters for all
  // of memory" (Section 6.4); when the cache overflows, the LRU page's
  // counters are lost. 0 = unlimited (the paper's base assumption).
  std::uint32_t migrep_counter_cache_pages = 0;

  // Scheduling quantum for the execution-driven engine. The default
  // equals the ni-constant wire latency, as the Wisconsin Wind Tunnel's
  // quantum does; a mesh/torus hop (mesh_hop_latency) is shorter.
  Cycle quantum = 80;

  std::uint64_t seed = 0x5eed5eedULL;

  // Fault-injection schedule; default = perfect fabric, no fault layer.
  FaultConfig faults{};

  std::uint32_t total_cpus() const { return nodes * cpus_per_node; }
  std::uint64_t page_cache_pages() const { return page_cache_bytes / kPageBytes; }

  // Convenience factories for the paper's named systems.
  static SystemConfig base(SystemKind kind);
};

}  // namespace dsm
