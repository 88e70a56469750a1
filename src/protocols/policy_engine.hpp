// The policy-event layer: one engine that observes the byte-accounted
// event stream and runs the run's decision rules over it.
//
// The substrate (DsmSystem) emits a PolicyEvent for every observable
// protocol action — a counted miss at the home, an upgrade, a remote
// fetch about to leave a node, a block-cache eviction, a coherence
// invalidation, a replica collapse, a page-op completion — each
// carrying the interconnect bytes the fabric charged for it (derived
// from the same typed-message geometry the fabric accounts, so events
// speak the paper's currency).
//
// The PolicyEngine owns all per-page observation state: the MigRep
// read/write miss counters, the R-NUMA refetch counters, lifetime miss
// counts, the finite CounterCache of Section 6.4 and per-node
// accumulated remote bytes. The substrate keeps only mechanism state
// (PageInfo: home, modes, replica set, op windows). Each event is first
// absorbed into the observation state, then passed to the run's rules,
// which may invoke the timed DsmSystem mechanisms (migrate / replicate
// / relocate) and may delay the triggering access by returning a later
// cycle.
//
// DsmSystem's constructor builds the engine, which picks its rules once
// from SystemConfig::kind and SystemConfig::policy:
//   MigRep    the paper's Section 3.1 migration/replication rules
//             (+Rep, +Mig or both)
//   R-NUMA    the paper's Section 3.2 reactive relocation, gated on
//             R-NUMA+MigRep by Section 6.4's initial interval
//   adaptive  traffic-competitive rule (new): fires a page op when a
//             page's accumulated remote bytes exceed k x the modeled
//             page-move byte cost
// Each rule keeps its decision counters in one Stats::policy record.
#pragma once

#include <array>
#include <vector>

#include "common/addr_map.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dsm/page_table.hpp"

namespace dsm {

class DsmSystem;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

enum class PolicyEventKind : std::uint8_t {
  kMiss = 0,         // counted miss at the home (fetch or local home miss)
  kUpgrade,          // counted write-upgrade at the home
  kRemoteFetch,      // requester-side: block fetch about to leave the node
  kEviction,         // block-cache victim left a node (writeback or hint)
  kInvalidation,     // a node's copy recalled/downgraded by the home
  kReplicaCollapse,  // replicated page switched back to read-write
  kPageOpComplete,   // a migrate/replicate/relocate mechanism finished
};

// Which mechanism a kPageOpComplete reports. kRehome is the emergency
// re-homing of a crashed home (dsm/page_ops.cpp survivable-homes
// recovery) — mechanically a migration, but policy-initiated never.
enum class PageOpKind : std::uint8_t {
  kMigrate = 0,
  kReplicate,
  kRelocate,
  kRehome,
};

struct PolicyEvent {
  PolicyEventKind kind = PolicyEventKind::kMiss;
  Addr page = 0;
  NodeId node = kNoNode;         // acting node (requester / evictor / victim)
  bool is_write = false;         // kMiss / kUpgrade
  MissClass miss_class = MissClass::kCold;  // kRemoteFetch
  PageOpKind op = PageOpKind::kMigrate;     // kPageOpComplete
  bool failed = false;           // kPageOpComplete: op aborted (fault layer)
  // Interconnect bytes the fabric charged for this event's messages
  // (0 for purely node-local events). Derived from net/message.hpp
  // geometry at the emission site.
  std::uint64_t bytes = 0;
  Cycle now = 0;
};

// ---------------------------------------------------------------------------
// Observation state (engine-owned)
// ---------------------------------------------------------------------------

// Per-page observation record. This is monitoring state, not mechanism
// state: the substrate never reads it, the rules never bypass it.
//
// Counters live in a small fixed table of (node, counters) slots, not
// machine-width arrays: at 1024 nodes a per-node array quadruples the
// per-page footprint a thousandfold for pages that only ever see a
// handful of distinct requesters. With at most kObsSlots distinct
// nodes active on a page the table is exact — in particular, any
// machine of <= 16 nodes behaves bit-identically to the historic
// per-node arrays (the parity goldens pin this). Beyond that, a new
// node recycles the least-active slot deterministically (first-min
// scan order), which loses that slot's history — the same bounded-
// counter information loss Section 6.4 models at the page level.
struct PageObs {
  static constexpr unsigned kObsSlots = 16;

  struct NodeCtr {
    NodeId node = kNoNode;
    // MigRep home-side miss counters (Section 3.1).
    std::uint32_t read_misses = 0;
    std::uint32_t write_misses = 0;
    // R-NUMA requester-side refetch counter (Section 3.2).
    std::uint32_t refetches = 0;
    // Accumulated interconnect bytes (data + control) attributed to
    // this node's remote use of the page — the adaptive engine's
    // currency.
    std::uint64_t remote_bytes = 0;

    std::uint64_t activity() const {
      return std::uint64_t(read_misses) + write_misses + refetches +
             remote_bytes;
    }
  };

  std::array<NodeCtr, kObsSlots> slots{};

  // Total remote misses ever counted for this page (drives the
  // R-NUMA+MigRep integration delay).
  std::uint64_t lifetime_misses = 0;
  // Misses counted since the last periodic counter reset (the paper's
  // per-page "reset interval of 32000 misses").
  std::uint64_t counted_since_reset = 0;
  // Epoch at which remote_bytes was last brought current. The byte
  // ledger ages by PolicyEngine::kLedgerDecayShift halvings per elapsed
  // epoch (applied lazily on the page's next event), so stale history
  // cannot trigger late page ops long after a page's traffic pattern
  // moved on.
  std::uint64_t ledger_epoch = 0;

  // Reads never insert: an absent node reads as zero.
  const NodeCtr* find(NodeId n) const {
    for (const NodeCtr& c : slots)
      if (c.node == n) return &c;
    return nullptr;
  }
  NodeCtr* find(NodeId n) {
    for (NodeCtr& c : slots)
      if (c.node == n) return &c;
    return nullptr;
  }
  // Find-or-insert; recycles the deterministic least-active occupied
  // slot when the table is full (ties break on lowest slot index).
  NodeCtr& at(NodeId n) {
    NodeCtr* free_slot = nullptr;
    NodeCtr* victim = nullptr;
    for (NodeCtr& c : slots) {
      if (c.node == n) return c;
      if (c.node == kNoNode) {
        if (!free_slot) free_slot = &c;
      } else if (!victim || c.activity() < victim->activity()) {
        victim = &c;
      }
    }
    NodeCtr* dst = free_slot ? free_slot : victim;
    *dst = NodeCtr{};
    dst->node = n;
    return *dst;
  }

  std::uint32_t read_misses(NodeId n) const {
    const NodeCtr* c = find(n);
    return c ? c->read_misses : 0;
  }
  std::uint32_t write_misses(NodeId n) const {
    const NodeCtr* c = find(n);
    return c ? c->write_misses : 0;
  }
  std::uint32_t refetches(NodeId n) const {
    const NodeCtr* c = find(n);
    return c ? c->refetches : 0;
  }
  std::uint64_t remote_bytes(NodeId n) const {
    const NodeCtr* c = find(n);
    return c ? c->remote_bytes : 0;
  }
  std::uint32_t miss_ctr(NodeId n) const {
    const NodeCtr* c = find(n);
    return c ? c->read_misses + c->write_misses : 0;
  }
  std::uint64_t total_remote_bytes() const {
    std::uint64_t sum = 0;
    for (const NodeCtr& c : slots) sum += c.remote_bytes;
    return sum;
  }
  // No write misses observed from any node since the last counter reset
  // (the read-only test both the MigRep and the adaptive replication
  // rules share).
  bool no_write_misses() const {
    for (const NodeCtr& c : slots)
      if (c.write_misses != 0) return false;
    return true;
  }

  void add_read_miss(NodeId n) { at(n).read_misses++; }
  void add_write_miss(NodeId n) { at(n).write_misses++; }
  void add_refetch(NodeId n) { at(n).refetches++; }
  void add_remote_bytes(NodeId n, std::uint64_t b) { at(n).remote_bytes += b; }
  void clear_read_misses(NodeId n) {
    if (NodeCtr* c = find(n)) c->read_misses = 0;
  }
  void clear_refetches(NodeId n) {
    if (NodeCtr* c = find(n)) c->refetches = 0;
  }
  void halve_remote_bytes(NodeId n) {
    if (NodeCtr* c = find(n)) c->remote_bytes /= 2;
  }
  void shift_remote_bytes(std::uint64_t shift) {
    for (NodeCtr& c : slots) c.remote_bytes >>= shift;
  }
  void reset_migrep_counters() {
    for (NodeCtr& c : slots) c.read_misses = c.write_misses = 0;
  }
  void reset_remote_bytes() {
    for (NodeCtr& c : slots) c.remote_bytes = 0;
  }
};

// Finite pool of per-page miss counters at a home node (Section 6.4:
// real hardware provides a *cache* of counters, not counters for every
// page of memory). touch() returns the page whose counters were evicted
// to make room, if any; the engine then clears that page's observation
// counters — the information loss the paper's sensitivity study models.
//
// Intrusive array-linked LRU: recency is a doubly-linked list threaded
// through a fixed node array by *index* (no per-entry allocation, no
// pointer chasing into list nodes), and an AddrMap maps page -> node
// index (one open-addressing implementation in the tree, not two).
// Everything is sized once in the constructor; steady-state touch
// allocates nothing (the map is pre-reserved and its population is
// bounded by the capacity, so it never rehashes). Displacement
// semantics are unchanged: the victim is always the list tail (locked
// by the Section 6.4 regression test).
class CounterCache {
 public:
  explicit CounterCache(std::uint32_t capacity) : capacity_(capacity) {
    if (unlimited()) return;
    nodes_.resize(capacity_);
    index_.reserve(capacity_);
  }

  bool unlimited() const { return capacity_ == 0; }

  // Returns the evicted page, or kNoPage if none was displaced. O(1).
  static constexpr Addr kNoPage = ~Addr(0);
  Addr touch(Addr page) {
    if (unlimited()) return kNoPage;
    if (const std::uint32_t* n = index_.find(page)) {
      move_to_front(*n);
      return kNoPage;
    }
    Addr evicted = kNoPage;
    std::uint32_t node;
    if (used_ < capacity_) {
      node = used_++;
    } else {
      // Full: recycle the LRU tail for the incoming page.
      node = tail_;
      evicted = nodes_[node].page;
      index_.erase(evicted);
      unlink(node);
      evictions_++;
    }
    nodes_[node].page = page;
    link_front(node);
    index_[page] = node;
    return evicted;
  }

  std::uint64_t evictions() const { return evictions_; }
  std::size_t size() const { return used_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t(0);

  struct Node {
    Addr page = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  void unlink(std::uint32_t n) {
    Node& nd = nodes_[n];
    if (nd.prev != kNil) nodes_[nd.prev].next = nd.next;
    if (nd.next != kNil) nodes_[nd.next].prev = nd.prev;
    if (head_ == n) head_ = nd.next;
    if (tail_ == n) tail_ = nd.prev;
    nd.prev = nd.next = kNil;
  }
  void link_front(std::uint32_t n) {
    Node& nd = nodes_[n];
    nd.prev = kNil;
    nd.next = head_;
    if (head_ != kNil) nodes_[head_].prev = n;
    head_ = n;
    if (tail_ == kNil) tail_ = n;
  }
  void move_to_front(std::uint32_t n) {
    if (head_ == n) return;
    unlink(n);
    link_front(n);
  }

  std::uint32_t capacity_;
  std::uint64_t evictions_ = 0;
  std::uint32_t used_ = 0;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::vector<Node> nodes_;
  AddrMap<std::uint32_t> index_;  // page -> nodes_ index
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

class PolicyEngine {
 public:
  // The engine's epoch advances once per this many page events.
  static constexpr std::uint64_t kEpochEvents = 8192;
  // The byte ledger halves this many times per elapsed epoch (see
  // PageObs::ledger_epoch).
  static constexpr std::uint32_t kLedgerDecayShift = 1;
  // Adaptive hysteresis: each op on a page doubles its next byte
  // threshold, up to this many doublings.
  static constexpr std::uint32_t kHysteresisMaxShift = 6;

  // Picks the rules from `sys`'s SystemConfig and appends one
  // Stats::policy record per rule, MigRep before R-NUMA.
  PolicyEngine(DsmSystem& sys, Stats* stats);

  // Count `ev`; with any rule in the run, absorb it into the
  // observation state and pass it to each rule. Returns the (possibly
  // delayed) time the triggering access may proceed; emission sites
  // that run off the critical path ignore it. `pi` is the event page's
  // mechanism record.
  Cycle dispatch(const PolicyEvent& ev, PageInfo& pi);

  // --- observation-state introspection (tests) ------------------------------
  const PageObs* find_obs(Addr page) const { return obs_.find(page); }
  CounterCache& counter_cache(NodeId home) { return counter_cache_[home]; }
  std::uint64_t events_dispatched() const { return events_; }
  std::uint64_t epoch() const { return epoch_; }

  // The modeled byte cost of one page move (the kPageBulk transfer): the
  // adaptive rule's unit.
  static std::uint64_t page_move_bytes();

 private:
  // The adaptive rule's per-page hysteresis state.
  struct AdaptState {
    std::uint32_t streak = 0;        // ops without an intervening decay
    std::uint64_t last_op_epoch = 0;
  };

  // Mandatory bookkeeping applied before the rules see the event.
  void observe(const PolicyEvent& ev, PageObs& obs, const PageInfo& pi);
  // Bring the page's remote-byte ledger current: halve every slot
  // kLedgerDecayShift times per epoch elapsed since the ledger was last
  // touched. Runs before the event is absorbed, so the rules never see
  // un-aged history. Touches only remote_bytes: the MigRep/R-NUMA
  // counters follow the paper's own reset rules.
  void decay_ledger(PageObs& obs);

  // The rules. Each returns the time the triggering access may proceed.
  Cycle migrep(const PolicyEvent& ev, PageInfo& pi, PageObs& obs, Cycle now);
  Cycle rnuma(const PolicyEvent& ev, PageObs& obs, Cycle now);
  Cycle adaptive(const PolicyEvent& ev, PageInfo& pi, PageObs& obs,
                 Cycle now);

  // Section 6.4's integration gate: relocation holds off until the page
  // has seen rnuma_relocation_delay_misses lifetime misses.
  bool relocation_allowed(const PageObs& obs) const {
    return obs.lifetime_misses >= cfg_->timing.rnuma_relocation_delay_misses;
  }
  // Current hysteresis level: the op streak less one level per epoch
  // elapsed since the last op (computed lazily; no page walks per epoch).
  std::uint32_t level(const AdaptState& st) const;
  // Requester holds a majority of the page's accumulated remote bytes
  // and out-misses the home.
  static bool dominates(const PageObs& obs, NodeId requester, NodeId home);
  void note_op(AdaptState& st);

  DsmSystem* sys_;
  const SystemConfig* cfg_;
  Stats* stats_;
  // The run's rules, fixed at construction: the MigRep switches, and
  // each rule's Stats::policy record (null when the rule is off).
  bool migrate_ = false;
  bool replicate_ = false;
  PolicyCounters* migrep_ = nullptr;
  PolicyCounters* rnuma_ = nullptr;
  PolicyCounters* adaptive_ = nullptr;
  bool relocation_ok_;  // the substrate has an S-COMA page cache
  AddrMap<PageObs> obs_;
  std::vector<CounterCache> counter_cache_;  // per home node
  AddrMap<AdaptState> adapt_;
  std::uint64_t events_ = 0;      // page events counted
  std::uint64_t epoch_ = 0;
  std::uint64_t next_epoch_at_ = kEpochEvents;
  int depth_ = 0;                 // dispatch nesting (page ops re-enter)
};

}  // namespace dsm
