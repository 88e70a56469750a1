// Simulation statistics.
//
// Every protocol/system populates the same Stats tree so the harness can
// extract Table-4 style counts and execution times uniformly. Counters
// are plain uint64 — the simulation core is single-threaded; cross-run
// parallelism in the harness gives each run its own Stats.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace dsm {

// Why an access missed in a cache. "Capacity/conflict" is the class the
// paper targets: the block was present earlier and was lost to
// replacement (not to a coherence invalidation).
enum class MissClass : std::uint8_t {
  kCold = 0,       // first reference to the block by this cache
  kCoherence,      // lost to an invalidation / downgrade
  kCapacity,       // lost to replacement (capacity or conflict)
  kCount,
};

const char* to_string(MissClass c);

// Interconnect traffic classes (net/message.hpp maps message kinds onto
// these). Byte accounting per class is the paper's headline metric:
// data moved for misses vs. coherence control vs. page operations.
enum class TrafficClass : std::uint8_t {
  kData = 0,   // block data payloads (fills, writebacks)
  kControl,    // coherence-control messages (requests, invals, acks)
  kPageOp,     // bulk page migration/replication copies
  kRecovery,   // fault recovery: retries, NACKs, directory rebuilds
  kCount,
};

const char* to_string(TrafficClass c);

// Per-node interconnect traffic, in bytes and messages, by class.
// Charged at the sending node by the fabric (net/fabric.hpp).
struct TrafficBreakdown {
  std::uint64_t bytes[std::size_t(TrafficClass::kCount)] = {};
  std::uint64_t msgs[std::size_t(TrafficClass::kCount)] = {};

  void add(TrafficClass c, std::uint64_t b) {
    bytes[std::size_t(c)] += b;
    msgs[std::size_t(c)]++;
  }
  std::uint64_t bytes_of(TrafficClass c) const {
    return bytes[std::size_t(c)];
  }
  std::uint64_t msgs_of(TrafficClass c) const { return msgs[std::size_t(c)]; }
  std::uint64_t total_bytes() const {
    std::uint64_t t = 0;
    for (std::uint64_t b : bytes) t += b;
    return t;
  }
  std::uint64_t total_msgs() const {
    std::uint64_t t = 0;
    for (std::uint64_t m : msgs) t += m;
    return t;
  }
  TrafficBreakdown& operator+=(const TrafficBreakdown& o) {
    for (std::size_t i = 0; i < std::size_t(TrafficClass::kCount); ++i) {
      bytes[i] += o.bytes[i];
      msgs[i] += o.msgs[i];
    }
    return *this;
  }
};

struct MissBreakdown {
  std::uint64_t by_class[std::size_t(MissClass::kCount)] = {0, 0, 0};

  void record(MissClass c) { by_class[std::size_t(c)]++; }
  std::uint64_t total() const {
    return by_class[0] + by_class[1] + by_class[2];
  }
  std::uint64_t capacity_conflict() const {
    return by_class[std::size_t(MissClass::kCapacity)];
  }
  MissBreakdown& operator+=(const MissBreakdown& o) {
    for (std::size_t i = 0; i < std::size_t(MissClass::kCount); ++i)
      by_class[i] += o.by_class[i];
    return *this;
  }
};

// Per-node statistics. "Remote miss" here means a cache-fill request that
// had to leave the node (block-cache / page-cache miss on a remote page,
// or a coherence fetch), i.e. the traffic the paper counts in Table 4.
struct NodeStats {
  MissBreakdown remote_misses;     // node-level remote traffic
  MissBreakdown l1_misses;         // processor-cache misses (all)
  std::uint64_t local_mem_accesses = 0;  // bus fills served by local memory
  std::uint64_t bc_hits = 0;             // block-cache hits
  std::uint64_t pc_hits = 0;             // S-COMA page-cache hits

  // Page operations.
  std::uint64_t page_migrations = 0;     // pages migrated *to* this node
  std::uint64_t page_replications = 0;   // replicas created on this node
  std::uint64_t page_relocations = 0;    // R-NUMA CC-NUMA->S-COMA remaps here
  std::uint64_t page_cache_evictions = 0;
  std::uint64_t replica_collapses = 0;   // replicated page switched back to R/W
  std::uint64_t soft_traps = 0;
  std::uint64_t tlb_shootdowns = 0;

  std::uint64_t blocks_flushed = 0;      // blocks written back by page flushes
  std::uint64_t blocks_copied = 0;       // blocks moved by page copies

  // Interconnect bytes/messages sent by this node, by traffic class.
  TrafficBreakdown traffic;

  // Calls v(name, value) once for each counter above, always in this
  // order. Stats::visit sums them over nodes under the same names.
  template <class V>
  constexpr void visit(V&& v) const {
    v("remote_misses.cold", remote_misses.by_class[0]);
    v("remote_misses.coherence", remote_misses.by_class[1]);
    v("remote_misses.capacity", remote_misses.by_class[2]);
    v("l1_misses.cold", l1_misses.by_class[0]);
    v("l1_misses.coherence", l1_misses.by_class[1]);
    v("l1_misses.capacity", l1_misses.by_class[2]);
    v("local_mem_accesses", local_mem_accesses);
    v("bc_hits", bc_hits);
    v("pc_hits", pc_hits);
    v("page_migrations", page_migrations);
    v("page_replications", page_replications);
    v("page_relocations", page_relocations);
    v("page_cache_evictions", page_cache_evictions);
    v("replica_collapses", replica_collapses);
    v("soft_traps", soft_traps);
    v("tlb_shootdowns", tlb_shootdowns);
    v("blocks_flushed", blocks_flushed);
    v("blocks_copied", blocks_copied);
    v("traffic.data_bytes", traffic.bytes[0]);
    v("traffic.control_bytes", traffic.bytes[1]);
    v("traffic.pageop_bytes", traffic.bytes[2]);
    v("traffic.recovery_bytes", traffic.bytes[3]);
    v("traffic.data_msgs", traffic.msgs[0]);
    v("traffic.control_msgs", traffic.msgs[1]);
    v("traffic.pageop_msgs", traffic.msgs[2]);
    v("traffic.recovery_msgs", traffic.msgs[3]);
  }
};

// The number of counters NodeStats::visit names.
inline constexpr std::size_t kNodeCounters = [] {
  std::size_t n = 0;
  NodeStats{}.visit([&n](std::string_view, std::uint64_t) { ++n; });
  return n;
}();

// Per-rule decision counters: one record for each decision rule the
// run's PolicyEngine runs (protocols/policy_engine.hpp), MigRep before
// R-NUMA. `events` counts every page event plus every epoch the engine
// saw; the remaining fields count the decisions the rule took (or
// withheld).
struct PolicyCounters {
  std::string name;
  std::uint64_t events = 0;        // page events plus epochs
  std::uint64_t migrations = 0;    // page migrations this rule ordered
  std::uint64_t replications = 0;  // page replications it ordered
  std::uint64_t relocations = 0;   // S-COMA relocations it ordered
  std::uint64_t suppressed = 0;    // triggers withheld (gates, hysteresis)
};

// Fault-injection and recovery counters (net/fault.hpp and the
// reliable-transaction layer in dsm/recovery.cpp). All zero when the
// fault layer is off. The *_injected counters, reroutes and
// crash_drops are charged by the Fabric; the rest by the protocol's
// recovery machinery.
struct FaultStats {
  std::uint64_t drops_injected = 0;   // messages lost in flight
  std::uint64_t dups_injected = 0;    // messages delivered twice
  std::uint64_t delays_injected = 0;  // messages held for extra cycles
  std::uint64_t retries = 0;          // timeout-driven retransmissions
  std::uint64_t nacks = 0;            // duplicate requests NACKed at home
  std::uint64_t reroutes = 0;         // off-preferred mesh hops around dead links
  std::uint64_t aborted_page_ops = 0; // page ops aborted after retry exhaustion
  std::uint64_t hard_errors = 0;      // demand transactions forced through

  // Node-crash model (whole-node faults) and survivable-home recovery.
  std::uint64_t crash_drops = 0;   // sends/receives swallowed by a dead node
  std::uint64_t rehomes = 0;       // pages emergency-re-homed off a dead home
  std::uint64_t dir_rebuilds = 0;  // directory entries reconstructed from
                                   // survivor responses during a re-home
  std::uint64_t data_losses = 0;   // dirty owner crashed: no valid copy left
};

// Directory-memory census (dsm/directory.hpp::usage), snapshotted at
// parallel_end. sharer_bits_used is the storage the live sharer-set
// representations actually occupy; sharer_bits_full_map is what a
// one-bit-per-node full map would cost for the same entries — the
// extrapolation bench_scaleout compares limited/coarse schemes against.
struct DirUsage {
  std::uint32_t nodes = 0;               // machine width of the census
  std::uint64_t entries = 0;             // live directory entries
  std::uint64_t shared_entries = 0;      // entries in kShared
  std::uint64_t coarse_entries = 0;      // entries degraded to coarse rep
  std::uint64_t sharers_measured = 0;    // sum of per-entry member counts
  std::uint64_t sharer_bits_used = 0;    // bits the current reps occupy
  std::uint64_t sharer_bits_full_map = 0;  // entries x nodes extrapolation

  double bits_per_entry() const {
    return entries ? double(sharer_bits_used) / double(entries) : 0.0;
  }
};

// Link-level router contention (mesh/torus fabric with
// mesh_link_bytes_per_cycle > 0), totalled over every directed link and
// snapshotted at parallel_end (net/fabric.hpp Fabric::link_usage).
// `bytes` counts each traversal — a message crossing h links adds h x
// its size — so it measures channel occupancy, unlike
// NodeStats::traffic, which charges each message once at its sender.
// All zero on the NI-only wire models.
struct LinkUsage {
  std::uint64_t bytes = 0;
  Cycle busy = 0;                     // serialization cycles reserved
  std::uint32_t max_queue_depth = 0;  // peak FIFO depth, any link
};

struct Stats {
  std::vector<NodeStats> node;           // indexed by NodeId
  Cycle execution_cycles = 0;            // parallel-phase execution time
  Cycle total_cycles = 0;                // including sequential init
  std::uint64_t shared_reads = 0;
  std::uint64_t shared_writes = 0;
  std::uint64_t barriers = 0;
  std::uint64_t lock_acquires = 0;

  // Per-rule decision counters (see PolicyCounters above).
  std::vector<PolicyCounters> policy;

  // Fault-injection and recovery counters (all zero with faults off).
  FaultStats faults;

  // End-of-run directory-memory census (see DirUsage above).
  DirUsage dir;

  // End-of-run link-contention totals (see LinkUsage above).
  LinkUsage links;

  explicit Stats(std::uint32_t nodes = 0) : node(nodes) {}

  // Lookup by rule name; null if no such rule ran.
  const PolicyCounters* policy_counters(const std::string& name) const;

  // Aggregates used by the harness.
  MissBreakdown remote_misses_total() const;
  TrafficBreakdown traffic_total() const;
  std::uint64_t page_migrations_total() const;
  std::uint64_t page_replications_total() const;
  std::uint64_t page_relocations_total() const;

  // Per-node averages (Table 4 reports per-node numbers).
  double remote_misses_per_node() const;
  double capacity_misses_per_node() const;
  double migrations_per_node() const;
  double replications_per_node() const;
  double relocations_per_node() const;
  double traffic_bytes_per_node(TrafficClass c) const;

  // Link-contention totals (zero on NI-only wire models).
  std::uint64_t link_bytes_total() const { return links.bytes; }
  Cycle link_busy_total() const { return links.busy; }
  std::uint32_t link_max_queue_depth() const { return links.max_queue_depth; }

  // The counter schema: calls v(name, value) exactly once for each
  // counter, in this order. The run-level counters; the NodeStats
  // counters summed over nodes; FaultStats, DirUsage and LinkUsage;
  // then each rule's PolicyCounters. Every --json record key and
  // digest() come from here, so a new counter is named here (or in
  // NodeStats::visit) and nowhere else.
  template <class V>
  void visit(V&& v) const {
    v("execution_cycles", execution_cycles);
    v("total_cycles", total_cycles);
    v("shared_reads", shared_reads);
    v("shared_writes", shared_writes);
    v("barriers", barriers);
    v("lock_acquires", lock_acquires);
    std::array<std::uint64_t, kNodeCounters> sum{};
    for (const NodeStats& n : node) {
      std::size_t i = 0;
      n.visit([&](std::string_view, std::uint64_t x) { sum[i++] += x; });
    }
    std::size_t i = 0;
    NodeStats{}.visit(
        [&](std::string_view name, std::uint64_t) { v(name, sum[i++]); });
    v("faults.drops_injected", faults.drops_injected);
    v("faults.dups_injected", faults.dups_injected);
    v("faults.delays_injected", faults.delays_injected);
    v("faults.retries", faults.retries);
    v("faults.nacks", faults.nacks);
    v("faults.reroutes", faults.reroutes);
    v("faults.aborted_page_ops", faults.aborted_page_ops);
    v("faults.hard_errors", faults.hard_errors);
    v("faults.crash_drops", faults.crash_drops);
    v("faults.rehomes", faults.rehomes);
    v("faults.dir_rebuilds", faults.dir_rebuilds);
    v("faults.data_losses", faults.data_losses);
    v("dir.nodes", dir.nodes);
    v("dir.entries", dir.entries);
    v("dir.shared_entries", dir.shared_entries);
    v("dir.coarse_entries", dir.coarse_entries);
    v("dir.sharers_measured", dir.sharers_measured);
    v("dir.sharer_bits_used", dir.sharer_bits_used);
    v("dir.sharer_bits_full_map", dir.sharer_bits_full_map);
    v("links.bytes", links.bytes);
    v("links.busy", links.busy);
    v("links.max_queue_depth", links.max_queue_depth);
    for (const PolicyCounters& p : policy) {
      const std::string k = "policy." + p.name + ".";
      v(k + "events", p.events);
      v(k + "migrations", p.migrations);
      v(k + "replications", p.replications);
      v(k + "relocations", p.relocations);
      v(k + "suppressed", p.suppressed);
    }
  }
};

// A 64-bit FNV-1a hash of every counter: each name and value that
// Stats::visit gives, then each node's NodeStats::visit in node order.
// Two runs whose digests are equal agree, up to a hash collision, on
// every counter of every node.
std::uint64_t digest(const Stats& s);

}  // namespace dsm
