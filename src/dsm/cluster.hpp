// The DSM cluster system: MemorySystem implementation orchestrating the
// three-level coherence hierarchy
//
//   L1 (MOESI, per CPU)  <-  node bus snoop  <-  node-level MSI
//   node-level containers: block cache (CC-NUMA), S-COMA page cache
//   (R-NUMA), read-only replicas (MigRep), or home memory
//   cluster-level: full-bit-vector home directory over the network.
//
// Decisions (MigRep, R-NUMA relocation, adaptive) are taken by the
// PolicyEngine (src/protocols/policy_engine.hpp), which DsmSystem builds
// from its SystemConfig and which absorbs the typed PolicyEvent stream
// this substrate emits — counted misses, upgrades, remote fetches,
// evictions, invalidations, replica collapses, page-op completions,
// each carrying its interconnect byte charge. DsmSystem provides the
// timed *mechanisms* the engine's rules invoke: page gathering and
// flushing, page copying, replication, migration, replica collapse,
// S-COMA relocation and page-cache eviction.
//
// The implementation is layered across translation units — the access
// paths and snoop in dsm/node_agent.cpp, the cluster-level directory
// transactions in dsm/home_agent.cpp, the page-op mechanisms in
// dsm/page_ops.cpp, and the dispatcher/checker in dsm/cluster.cpp.
// Each layer reaches the interconnect only through typed messages on
// the Fabric (net/fabric.hpp), which accounts traffic in
// bytes per class at the sending node.
//
// Timing model: each access is processed atomically at issue; shared
// hardware is modeled with busy-until resources (mem/resource.hpp), so
// the returned completion time includes queueing. Unloaded latencies are
// calibrated to the paper's Table 3 (local 104 / remote clean 418).
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dsm/block_cache.hpp"
#include "dsm/directory.hpp"
#include "dsm/page_cache.hpp"
#include "dsm/page_table.hpp"
#include "mem/l1_cache.hpp"
#include "mem/resource.hpp"
#include "net/fabric.hpp"
#include "net/message.hpp"
#include "protocols/policy_engine.hpp"
#include "sim/memory_if.hpp"

namespace dsm {

// Per-node miss-class history at node (cluster-device) level.
//
// Modeled as a finite direct-mapped tagged table (real hardware keeps a
// bounded SRAM history, not state for every block of memory), so memory
// stays bounded over arbitrarily long runs. A conflict evicts the old
// block's history; its next miss then classifies as cold — the same
// information loss a finite hardware table exhibits.
//
// Encoding: one 2-byte entry per index, a 14-bit tag shifted left by two
// over the entry's MissClass plus one; all-zero means empty. The tag is
// blk >> 16, and it loses nothing: index() is the low 16 bits of
// blk ^ blk>>17 ^ blk>>31, and both shifted terms depend on blk >> 16
// alone, so the index and blk >> 16 together give back every bit of the
// block number. A 14-bit tag thus covers every block below 2^30 (64 GiB
// of simulated memory). A wider block keeps the full 8-byte word
// blk << 2 | class + 1 in a side map keyed by index, behind the marker
// kWide in its 2-byte entry; the marker's class bits are zero, so no
// narrow block matches it, and a narrow and a wide block at one index
// evict each other like any two blocks.
//
// The entries live in kPages pages of kPageEntries (4 KB each), each
// allocated zeroed by the first classify() or mark() that lands in it,
// so a node's footprint follows the indices its run touches.
class NodeHistory {
 public:
  static constexpr std::size_t kEntries = std::size_t(1) << 16;

  MissClass classify(Addr blk) {
    const std::size_t i = index(blk);
    std::uint16_t& e = entry(i);
    const unsigned held = lookup(i, e, blk);
    if (held == 0) {
      store(i, e, blk, MissClass::kCapacity);
      return MissClass::kCold;
    }
    return MissClass(held - 1);
  }
  void mark(Addr blk, MissClass c) {
    const std::size_t i = index(blk);
    store(i, entry(i), blk, c);
  }

 private:
  static constexpr std::size_t kPageEntries = 2048;
  static constexpr std::size_t kPages = kEntries / kPageEntries;
  static constexpr Addr kNarrowBlocks = Addr(1) << 30;  // 14-bit tags
  static constexpr std::uint16_t kWide = 0xFFFC;        // class bits 0

  static std::size_t index(Addr blk) {
    // Mix the upper bits so same-set blocks of distant pages spread out.
    const Addr h = blk ^ (blk >> 17) ^ (blk >> 31);
    return std::size_t(h) & (kEntries - 1);
  }
  std::uint16_t& entry(std::size_t i) {
    std::unique_ptr<std::uint16_t[]>& page = pages_[i / kPageEntries];
    if (!page) page = std::make_unique<std::uint16_t[]>(kPageEntries);
    return page[i % kPageEntries];
  }
  // The MissClass plus one that entry `e` at index `i` holds for `blk`,
  // or 0 when it holds another block or none.
  unsigned lookup(std::size_t i, std::uint16_t e, Addr blk) const {
    if (blk < kNarrowBlocks) return (e >> 2) == (blk >> 16) ? e & 3u : 0u;
    if (e != kWide) return 0;
    const std::uint64_t w = wide_.find(std::uint32_t(i))->second;
    return (w >> 2) == blk ? unsigned(w & 3) : 0u;
  }
  void store(std::size_t i, std::uint16_t& e, Addr blk, MissClass c) {
    const unsigned cls = unsigned(c) + 1;
    if (blk < kNarrowBlocks) {
      if (e == kWide) wide_.erase(std::uint32_t(i));
      e = std::uint16_t((blk >> 16) << 2 | cls);
      return;
    }
    DSM_DEBUG_ASSERT(blk < (Addr(1) << 62), "block number beyond the tag");
    e = kWide;
    wide_[std::uint32_t(i)] = blk << 2 | cls;
  }

  std::array<std::unique_ptr<std::uint16_t[]>, kPages> pages_;
  std::unordered_map<std::uint32_t, std::uint64_t> wide_;  // kWide entries
};

class DsmSystem : public MemorySystem {
 public:
  DsmSystem(const SystemConfig& cfg, Stats* stats);

  // ---- MemorySystem ------------------------------------------------------
  Cycle access(const MemAccess& a) override;
  // `cpu`'s L1, gated by the page-op horizon (see op_horizon_).
  HitPath hit_path(CpuId cpu) override {
    return {l1_[cpu].get(), &op_horizon_, cfg_.timing.l1_hit};
  }
  void parallel_begin(Cycle now) override;
  void parallel_end(Cycle now) override;

  // ---- policy-event layer --------------------------------------------------
  // The engine absorbing this substrate's event stream and running the
  // decision rules SystemConfig::kind and ::policy select.
  PolicyEngine& policy_engine() { return engine_; }

  // ---- timed page-op mechanisms (called by the engine's rules) -------------
  // Replicate `page` read-only at `node`; returns op completion time.
  Cycle replicate_page(Addr page, NodeId node, Cycle now);
  // Migrate `page`'s home to `node`; returns op completion time.
  Cycle migrate_page(Addr page, NodeId node, Cycle now);
  // Collapse all read-only replicas of `page` (switch back to R/W),
  // triggered by a write at `writer`; returns time the write may proceed.
  Cycle collapse_replicas(Addr page, NodeId writer_node, Cycle now);
  // Relocate `page` at `node` from CC-NUMA to S-COMA mapping (R-NUMA).
  // Evicts a page-cache frame first if none is free. Returns completion.
  Cycle relocate_to_scoma(NodeId node, Addr page, Cycle now);

  // ---- introspection (tests, checker, policy engine) -----------------------
  const SystemConfig& config() const { return cfg_; }
  const TimingConfig& timing() const { return cfg_.timing; }
  Stats* stats() { return stats_; }
  PageTable& page_table() { return pt_; }
  Directory& directory() { return dir_; }
  Fabric& fabric() { return net_; }
  L1Cache& l1(CpuId cpu) { return *l1_[cpu]; }
  BlockCache& block_cache(NodeId n) { return *bc_[n]; }
  PageCache& page_cache(NodeId n) { return *pc_[n]; }
  Resource& node_bus(NodeId n) { return bus_[n]; }
  Resource& node_device(NodeId n) { return device_[n]; }

  std::uint32_t nodes() const { return cfg_.nodes; }

  // Resolved sharer-set geometry (scheme, node count, coarse regions)
  // shared by the directory, the page table and every protocol path.
  const NodeSetLayout& node_set_layout() const { return nsl_; }

  // Verify every directory entry against the actual cache contents.
  // Aborts (assert) on violation; used by tests and debug runs.
  void check_coherence() const;

 private:
  // ---- access paths --------------------------------------------------------
  // A write to this CPU's S or O line: obtain exclusivity.
  Cycle access_upgrade(const MemAccess& a, PageInfo& pi, Addr blk, Cycle t);
  Cycle access_local(const MemAccess& a, PageInfo& pi, Addr blk, Cycle t);
  // A remote page: the node's copy lives in the block cache (CC-NUMA) or
  // in the page's S-COMA frame.
  Cycle access_remote(const MemAccess& a, PageInfo& pi, Addr blk, Cycle t);
  Cycle access_replica(const MemAccess& a, Addr blk, Cycle t);

  // Steps the access paths share. restart() re-issues `a` at `t`
  // against the page's current mapping after a page op moved it under
  // the access (the poison-bit fault-and-retry the page-op machinery
  // models; the op window stalls the retry). bus_request() is the bus
  // arbitration + address phase; bus_fill() occupies the bus `occ`
  // cycles and adds the L1 fill. upgrade_at_home() is the UPGRADE round
  // trip at the home plus its counted-upgrade event.
  Cycle restart(const MemAccess& a, Cycle t);
  Cycle bus_request(NodeId n, Cycle t);
  Cycle bus_fill(NodeId n, Cycle t, Cycle occ);
  Cycle upgrade_at_home(const MemAccess& a, PageInfo& pi, Addr blk, Cycle t);
  // The node-level state of `blk` at node `n`: the frame's tag when the
  // page is mapped S-COMA there, else the block-cache entry's. Null when
  // the node holds no copy.
  NodeState* node_copy(NodeId n, bool scoma, Addr blk);

  // Within-node snoop: if another L1 on the node can supply/upgrade
  // without leaving the node, handle it. Returns true + updates t.
  bool snoop_node(const MemAccess& a, Addr blk, Cycle& t);

  // ---- cluster-level transactions ------------------------------------------
  // Fetch `blk` from its home on behalf of `requester` (GETS/GETX).
  // Returns the time data arrives at the requester's device and the
  // node-level state granted (kShared or kModified).
  Cycle remote_fetch(NodeId requester, Addr page, Addr blk, bool write,
                     Cycle t, NodeState* granted);
  // Upgrade: node already holds the block kShared; obtain exclusivity.
  Cycle remote_upgrade(NodeId requester, Addr page, Addr blk, Cycle t);
  // Home-side service for an exclusive request: invalidate sharers /
  // recall from owner. Returns time home memory+dir are consistent.
  Cycle home_service_exclusive(NodeId home, NodeId requester, Addr blk,
                               Cycle t);
  // Home-side recall for a read when a third node owns the block.
  Cycle home_recall_shared(NodeId home, NodeId requester, Addr blk, Cycle t);
  // Shared recall choreography: deliver the INVAL order to the
  // exclusive owner, pull the data off its bus, and return the time the
  // owner's reply (writeback if it held dirty data, ack otherwise)
  // reaches home. `invalidate` selects invalidate vs. downgrade-to-
  // shared at the owner.
  Cycle recall_from_owner(NodeId home, NodeId owner, Addr blk,
                          bool invalidate, Cycle t);
  // The recalled node answers the INVAL order `inv` with `reply` once
  // its copy is gone (`ready`); reports the recall as a kInvalidation
  // event charged both messages. Returns when the reply reaches home.
  Cycle recall_reply(const Message& inv, const Message& reply, Cycle ready);

  // ---- reliable-transaction layer (dsm/recovery.cpp) ----------------------
  // With the fault layer off, every call below collapses to a plain
  // net_.send — no retries, no extra state, bit-identical timing.
  struct SendOutcome {
    Cycle at;  // arrival on success, last depart time on failure
    bool ok;
  };
  // Send with timeout/exponential-backoff retransmission
  // (TimingConfig::fault_retry_base/_max_attempts). `nack_dup` models
  // the receiver's duplicate table: a wire-duplicated request is
  // rejected with one directory lookup and a NACK.
  SendOutcome send_reliable(Message m, Cycle t, bool nack_dup);
  // Demand-path send: after retry exhaustion the transaction escalates
  // to the reliable channel and counts a hard error — a demand access
  // must proceed, never hang the engine. When retry exhaustion is
  // explained by a destination inside a crash window, the outcome
  // reports dst_dead instead: the transaction did NOT execute, and the
  // caller must recover (emergency re-homing for a dead home). A
  // suspected destination (crash already detected) skips the wire and
  // the retry storm entirely.
  struct DemandOutcome {
    Cycle at;
    bool dst_dead;
  };
  DemandOutcome send_demand(const Message& m, Cycle t, bool nack_dup);
  // Reply leg: a lost reply is recovered by the requester's timeout
  // retransmitting `request` (same transaction) and the responder's
  // duplicate table re-issuing the reply after one directory lookup.
  // Never fails (escalates after exhaustion); a reply toward a node in
  // a crash window is abandoned instead.
  Cycle reply_reliable(const Message& reply, const Message& request,
                       Cycle ready);

  // ---- node-crash failure detector -----------------------------------------
  // The first retry exhaustion against a node inside a crash window
  // pays the full timeout storm, then records the window end; until
  // then the protocol cannot distinguish a dead node from message loss.
  // Afterward suspect() short-circuits every interaction with the dead
  // node until its window ends.
  bool suspect(NodeId n, Cycle t) const {
    return !crash_detected_until_.empty() && t < crash_detected_until_[n];
  }
  void note_crash(NodeId n, Cycle t);

  // Emergency re-homing (dsm/page_ops.cpp): elect the next live node
  // after `dead_home` as successor, rebuild the page's directory
  // entries from a survivor census, move the home, and discard the dead
  // node's copies (a dirty one counts a distinct data loss). Idempotent
  // when the page already moved. Returns the time the new mapping is
  // usable.
  Cycle emergency_rehome(Addr page, NodeId dead_home, Cycle t);

  // ---- page-op steps (dsm/page_ops.cpp) ------------------------------------
  // Gather: flush every node's copies of `page` (dirty data goes home)
  // and occupy `at`'s device for it. Returns when the gather is done.
  Cycle gather_page(Addr page, NodeId at, Cycle t);
  // Ship the bulk copy `bulk` and occupy its destination's device for
  // the copy. After retry exhaustion the op aborts cleanly instead: the
  // gather already emptied every cache (demand fetches refill them) and
  // no mapping has changed yet, so only the op window and a failed
  // completion event remain. `ok` is false then.
  SendOutcome ship_page(const Message& bulk, PageOpKind op, PageInfo& pi,
                        Cycle t);
  // Stall accesses to the page until `until` (the only writer of
  // PageInfo::op_pending_until), raising the page-op horizon with it.
  void open_op_window(PageInfo& pi, Cycle until) {
    pi.op_pending_until = until;
    op_horizon_ = std::max(op_horizon_, until);
  }
  // Make `home` the page's home and only mapper after a gather: its
  // directory entries start clean, S-COMA frames holding it go back to
  // their mappers, every other node refaults it, and accesses stall
  // until `until`.
  void remap_page(PageInfo& pi, Addr page, NodeId home, Cycle until);
  // Report a page op on `page` at `node` as finished (or aborted).
  void emit_page_op(PageOpKind op, Addr page, PageInfo& pi, NodeId node,
                    std::uint64_t bytes, Cycle now, bool failed = false);

  // ---- node-level helpers ---------------------------------------------------
  // What one node holds of a block: its L1s' lines and the node-level
  // copy in the block cache or the page's S-COMA frame.
  struct NodeCopies {
    bool l1 = false;             // some L1 holds it
    bool l1_exclusive = false;   // ... in E, O or M
    bool l1_dirty = false;       // ... in O or M
    bool node = false;           // a node-level copy exists
    bool node_modified = false;  // ... in kModified
    bool any() const { return l1 || node; }
    bool dirty() const { return l1_dirty || node_modified; }
  };
  enum class CopyAction : std::uint8_t { kKeep, kDowngrade, kInvalidate };
  // The one walk over a node's copies of `blk`: reports what the node
  // held, and leaves the copies as they were (kKeep), downgrades them to
  // shared, or invalidates them (L1 lines record `reason`).
  NodeCopies walk_copies(NodeId n, Addr blk,
                         CopyAction act = CopyAction::kKeep,
                         MissClass reason = MissClass::kCoherence);
  // Invalidate/downgrade every copy of `blk` at node `n`. Marks node
  // history with `reason` when invalidating a node-level copy. Returns
  // whether the node held a modified copy in any container — the recall
  // paths use this to decide between a writeback and a plain ack.
  bool flush_block_at_node(NodeId n, Addr blk, bool invalidate,
                           MissClass reason);
  // L1 install with victim writeback handling.
  void l1_install(const MemAccess& a, Addr blk, L1State st);
  // BC install with victim eviction (writeback + hint + L1 inclusion).
  void bc_install(NodeId n, Addr blk, NodeState st, Cycle t);
  // Emit a counted-miss / upgrade event to the policy engine at the
  // home. `bytes` is the interconnect charge of the triggering
  // transaction's request/reply pair (0 for node-local misses).
  void emit_counted(bool upgrade, Addr page, PageInfo& pi, NodeId requester,
                    bool is_write, std::uint64_t bytes, Cycle now);
  // Flush all blocks of `page` cached at node `n`; dirty data goes home
  // asynchronously. Returns the number of blocks the node held in any
  // container (an L1 line alone counts).
  unsigned flush_page_at_node(NodeId n, Addr page, MissClass reason);
  // Record a node-level remote miss.
  void record_remote_miss(NodeId n, MissClass c) {
    stats_->node[n].remote_misses.record(c);
  }

  // Map an unmapped page at a node (soft fault + first-touch binding).
  Cycle map_page(const MemAccess& a, PageInfo& pi, Addr page, Cycle t);

  SystemConfig cfg_;
  Stats* stats_;
  // Resolved NodeSet geometry; declared before the tables that copy it.
  NodeSetLayout nsl_;
  PageTable pt_;
  Directory dir_;
  Fabric net_;
  std::vector<std::unique_ptr<L1Cache>> l1_;       // per CPU
  std::vector<std::unique_ptr<BlockCache>> bc_;    // per node
  std::vector<std::unique_ptr<PageCache>> pc_;     // per node
  std::vector<Resource> bus_;                      // per node
  std::vector<Resource> device_;                   // per node
  std::vector<NodeHistory> history_;               // per node

  PolicyEngine engine_;

  // Failure detector: end of the detected crash window per node (0 =
  // no crash detected). Sized only when the fault layer is on.
  std::vector<Cycle> crash_detected_until_;

  // The page-op horizon: the latest end of any page-op window opened so
  // far, so no page has a window pending at or after it (the page-op
  // analogue of the fabric's outage horizon). The engine completes a
  // CPU's L1 hit by itself at or after the horizon (hit_path). That is
  // exact because access() would return t + l1_hit for it too:
  //   - at or after the horizon no op_pending_until stalls the access;
  //   - an L1 line exists only for a page that is bound and mapped at its
  //     node, so neither the first-touch binding nor the soft fault
  //     fires: every unmap (remap_page, a page-cache victim) follows a
  //     flush of that node's copies;
  //   - no E or M line exists on a replicated page, so a write hit never
  //     collapses replicas: replication gathers every copy first, and
  //     nothing grants exclusivity while replicas exist;
  // and L1Cache::hit, the same call access() makes, changes nothing but
  // E to M. access() checks the two line facts in debug builds.
  Cycle op_horizon_ = 0;

  Cycle parallel_begin_at_ = 0;
};

}  // namespace dsm
