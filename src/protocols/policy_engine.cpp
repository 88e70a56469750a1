#include "protocols/policy_engine.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "dsm/cluster.hpp"

namespace dsm {

PolicyEngine::PolicyEngine(DsmSystem& sys, Stats* stats)
    : sys_(&sys),
      cfg_(&sys.config()),
      stats_(stats),
      relocation_ok_(uses_page_cache(sys.config().kind)) {
  DSM_ASSERT(stats_ != nullptr);
  DSM_ASSERT(stats_->policy.empty(), "one engine per Stats");
  counter_cache_.reserve(cfg_->nodes);
  for (NodeId n = 0; n < cfg_->nodes; ++n)
    counter_cache_.emplace_back(cfg_->migrep_counter_cache_pages);

  // The paper's pairing (SystemKind), or the adaptive rule alone. At
  // most two records exist, so the reserve keeps each pointer valid.
  const SystemKind k = cfg_->kind;
  const bool paper = cfg_->policy == PolicyKind::kDefault;
  migrate_ = paper && (k == SystemKind::kCcNumaMig ||
                       k == SystemKind::kCcNumaMigRep ||
                       k == SystemKind::kRNumaMigRep);
  replicate_ = paper && (k == SystemKind::kCcNumaRep ||
                         k == SystemKind::kCcNumaMigRep ||
                         k == SystemKind::kRNumaMigRep);
  const bool relocate = paper && (k == SystemKind::kRNuma ||
                                  k == SystemKind::kRNumaInf ||
                                  k == SystemKind::kRNumaMigRep);
  auto record = [this](const char* name) {
    return &stats_->policy.emplace_back(PolicyCounters{name});
  };
  stats_->policy.reserve(2);
  if (migrate_ || replicate_) migrep_ = record("migrep");
  if (relocate) rnuma_ = record("rnuma");
  if (!paper) adaptive_ = record("adaptive");
}

std::uint64_t PolicyEngine::page_move_bytes() {
  return Message::page_bulk(0, 0, 0, kBlocksPerPage).total_bytes();
}

Cycle PolicyEngine::dispatch(const PolicyEvent& ev, PageInfo& pi) {
  events_++;
  Cycle t = ev.now;
  // With no rule nothing reads the observation state, so a run without
  // one keeps none. A run with any rule observes every event: PageObs
  // recycles its least-active slot, so even bytes a rule never reads
  // decide which node a 17th requester displaces.
  if (!stats_->policy.empty()) {
    for (PolicyCounters& c : stats_->policy) c.events++;
    PageObs& o = obs_[ev.page];
    depth_++;
    decay_ledger(o);
    observe(ev, o, pi);
    if (migrep_) t = migrep(ev, pi, o, t);
    if (rnuma_) t = rnuma(ev, o, t);
    if (adaptive_) t = adaptive(ev, pi, o, t);
    depth_--;
  }
  // The epoch advances only between top-level events; each epoch counts
  // as one more event in every rule's record.
  if (depth_ == 0) {
    while (events_ >= next_epoch_at_) {
      epoch_++;
      next_epoch_at_ += kEpochEvents;
      for (PolicyCounters& c : stats_->policy) c.events++;
    }
  }
  return t;
}

void PolicyEngine::observe(const PolicyEvent& ev, PageObs& obs,
                           const PageInfo& pi) {
  switch (ev.kind) {
    case PolicyEventKind::kMiss:
    case PolicyEventKind::kUpgrade: {
      obs.lifetime_misses++;
      // Finite counter hardware (Section 6.4): installing counters for
      // this page may displace another page's counters at this home.
      // The displaced page's observation counters are cleared at the
      // moment of displacement.
      const Addr displaced = counter_cache_[pi.home].touch(ev.page);
      if (displaced != CounterCache::kNoPage) {
        if (PageObs* d = obs_.find(displaced)) d->reset_migrep_counters();
      }
      if (ev.is_write)
        obs.add_write_miss(ev.node);
      else
        obs.add_read_miss(ev.node);
      // Periodic reset (Section 3.1): every `migrep_reset_interval`
      // counted misses to the page, its counters start over, bounding
      // stale history.
      if (++obs.counted_since_reset >= cfg_->timing.migrep_reset_interval) {
        obs.counted_since_reset = 0;
        obs.reset_migrep_counters();
      }
      if (ev.node != pi.home) obs.add_remote_bytes(ev.node, ev.bytes);
      break;
    }
    case PolicyEventKind::kRemoteFetch:
      // Refetch = a capacity/conflict-classified re-fetch of a block the
      // node cached before (Section 3.2's switching-counter input).
      if (ev.miss_class == MissClass::kCapacity) obs.add_refetch(ev.node);
      break;
    case PolicyEventKind::kEviction:
    case PolicyEventKind::kInvalidation:
    case PolicyEventKind::kReplicaCollapse:
      // Same attribution rule as counted misses: the ledger prices
      // *remote* use, so the home's own actions (e.g. the home writing
      // a replicated page collapses it with nonzero wire bytes) are
      // never charged to a remote_bytes slot.
      if (ev.node != pi.home) obs.add_remote_bytes(ev.node, ev.bytes);
      break;
    case PolicyEventKind::kPageOpComplete:
      // An aborted op (fault layer) changed nothing: keep the counters
      // so the rule can re-trigger once the page-op window drains.
      if (ev.failed) break;
      // Migration starts the page's counter history over (the old
      // home's usage comparison is meaningless at the new home) — and
      // so does an emergency re-home, whose counters died with the home.
      if (ev.op == PageOpKind::kMigrate || ev.op == PageOpKind::kRehome)
        obs.reset_migrep_counters();
      // Any completed op settles the byte ledger: the competitive
      // argument restarts from zero accumulated traffic.
      obs.reset_remote_bytes();
      break;
  }
}

void PolicyEngine::decay_ledger(PageObs& obs) {
  if (obs.ledger_epoch != epoch_) {
    const std::uint64_t elapsed = epoch_ - obs.ledger_epoch;
    obs.shift_remote_bytes(
        std::min<std::uint64_t>(63, elapsed * kLedgerDecayShift));
    obs.ledger_epoch = epoch_;
  }
}

// ---------------------------------------------------------------------------
// MigRep (Section 3.1)
// ---------------------------------------------------------------------------

// At each counted miss or upgrade from a remote node, the paper's two
// rules over the home-side miss counters:
//   replication — all write counters are zero AND the requester's read
//                 counter exceeds the threshold AND the requester holds
//                 no replica yet;
//   migration   — the requester's total counter exceeds the home's by at
//                 least the threshold.
// The mechanisms (gather/flush/copy, poison bits, lazy shootdown) and
// their Table-3 costs live in DsmSystem; the rule only decides.
Cycle PolicyEngine::migrep(const PolicyEvent& ev, PageInfo& pi, PageObs& obs,
                           Cycle now) {
  if (ev.kind != PolicyEventKind::kMiss &&
      ev.kind != PolicyEventKind::kUpgrade)
    return now;
  const NodeId requester = ev.node;
  if (requester == pi.home) return now;  // home misses only feed counters
  const std::uint32_t threshold = cfg_->timing.migrep_threshold;

  // Replication rule: a long-running read-shared page.
  if (replicate_ && !ev.is_write && obs.no_write_misses() &&
      obs.read_misses(requester) > threshold &&
      pi.mode[requester] != PageMode::kReplica) {
    sys_->replicate_page(ev.page, requester, now);
    migrep_->replications++;
    // The requester's counters served their purpose; reset them so the
    // next decision starts fresh.
    obs.clear_read_misses(requester);
    return now;
  }

  // Migration rule: the requester uses the page more than the home.
  if (migrate_ && !pi.replicated &&
      obs.miss_ctr(requester) >= obs.miss_ctr(pi.home) + threshold) {
    sys_->migrate_page(ev.page, requester, now);
    migrep_->migrations++;
    // The migration-completion event resets the page's counters.
  }
  return now;
}

// ---------------------------------------------------------------------------
// R-NUMA (Section 3.2)
// ---------------------------------------------------------------------------

// When a node's refetch counter for a page exceeds the switching
// threshold, relocate the page from CC-NUMA to a local S-COMA
// page-cache frame (DsmSystem::relocate_to_scoma carries the Table-3
// charges, including frame eviction under memory pressure); the
// triggering fetch proceeds at the relocation's end time.
Cycle PolicyEngine::rnuma(const PolicyEvent& ev, PageObs& obs, Cycle now) {
  if (ev.kind != PolicyEventKind::kRemoteFetch) return now;
  if (ev.miss_class != MissClass::kCapacity) return now;
  // observe() already counted this refetch.
  const NodeId n = ev.node;
  if (obs.refetches(n) <= cfg_->timing.rnuma_threshold) return now;
  if (!relocation_allowed(obs)) {
    rnuma_->suppressed++;
    return now;
  }
  // Relocation interrupt: remap the page into the local page cache.
  obs.clear_refetches(n);
  rnuma_->relocations++;
  return sys_->relocate_to_scoma(n, ev.page, now);
}

// ---------------------------------------------------------------------------
// Adaptive (traffic-competitive)
// ---------------------------------------------------------------------------

// Classic competitive argument (cf. ski-rental; MigrantStore's
// cost-amortized migration): moving a page costs a known number of
// interconnect bytes (the kPageBulk transfer); leaving it put costs a
// stream of small per-miss transfers. observe() prices every remote
// interaction of a page in bytes (counted misses, upgrades, evictions,
// invalidations, collapses) per node in PageObs::remote_bytes, so the
// rule triggers a page operation exactly when a node's accumulated
// bytes exceed
//
//     adaptive_k x page-move-bytes x 2^hysteresis_level
//
// i.e. once staying put has provably cost k times what moving would
// have. The verb is chosen from the same evidence:
//   replicate — the page looks read-only (no write counters) and the
//               requester holds no replica yet;
//   migrate   — the requester dominates the page's remote traffic and
//               out-misses the home (decided at the home-side counted
//               miss, where MigRep-style moves are safe);
//   relocate  — contended/written pages on an S-COMA-capable system:
//               remap to the requester's page cache at the
//               requester-side fetch event (where R-NUMA-style
//               relocation is safe).
// Hysteresis: every op on a page doubles its next threshold (up to
// kHysteresisMaxShift doublings), decaying one level per epoch without
// an op — repeated movement of a contended page gets exponentially
// harder, suppressing ping-pong.

std::uint32_t PolicyEngine::level(const AdaptState& st) const {
  const std::uint64_t idle = epoch_ - st.last_op_epoch;
  return st.streak > idle ? std::uint32_t(st.streak - idle) : 0;
}

bool PolicyEngine::dominates(const PageObs& obs, NodeId requester,
                             NodeId home) {
  return obs.remote_bytes(requester) * 2 >= obs.total_remote_bytes() &&
         obs.miss_ctr(requester) >= obs.miss_ctr(home);
}

void PolicyEngine::note_op(AdaptState& st) {
  st.streak = level(st) + 1;
  st.last_op_epoch = epoch_;
}

Cycle PolicyEngine::adaptive(const PolicyEvent& ev, PageInfo& pi,
                             PageObs& obs, Cycle now) {
  if (ev.kind != PolicyEventKind::kMiss &&
      ev.kind != PolicyEventKind::kUpgrade &&
      ev.kind != PolicyEventKind::kRemoteFetch)
    return now;
  const NodeId req = ev.node;
  if (req == pi.home) return now;

  AdaptState& st = adapt_[ev.page];
  const std::uint32_t shift = std::min(level(st), kHysteresisMaxShift);
  const std::uint64_t threshold =
      std::uint64_t(cfg_->timing.adaptive_k) * page_move_bytes() << shift;
  if (obs.remote_bytes(req) < threshold) return now;

  // The accumulated remote bytes exceed k x the cost of moving the
  // page: staying put has lost the competitive bet. Pick the verb the
  // evidence supports at a call site where it is safe.
  const bool read_only = obs.no_write_misses();
  if (ev.kind == PolicyEventKind::kRemoteFetch) {
    // Requester side, before the fetch leaves the node: the only spot
    // where an S-COMA relocation may redirect the triggering access.
    // Contended or written pages land here; read-only and single-user
    // pages are left for the home-side events to replicate/migrate.
    if (relocation_ok_ && pi.mode[req] == PageMode::kCcNuma && !read_only &&
        !dominates(obs, req, pi.home)) {
      if (!relocation_allowed(obs)) {
        adaptive_->suppressed++;
        return now;
      }
      note_op(st);
      adaptive_->relocations++;
      return sys_->relocate_to_scoma(req, ev.page, now);
    }
    return now;
  }

  // Home side (counted miss / upgrade): migration and replication are
  // safe here — the same call site MigRep uses.
  if (read_only && !ev.is_write && pi.mode[req] != PageMode::kReplica) {
    note_op(st);
    adaptive_->replications++;
    sys_->replicate_page(ev.page, req, now);
    return now;
  }
  if (!pi.replicated && dominates(obs, req, pi.home)) {
    note_op(st);
    adaptive_->migrations++;
    sys_->migrate_page(ev.page, req, now);
    return now;
  }
  // No home-side verb applies. If the requester-side relocation verb is
  // still live (S-COMA substrate, page CC-NUMA-mapped there), keep the
  // ledger intact — the node's next kRemoteFetch event will relocate.
  if (relocation_ok_ && pi.mode[req] == PageMode::kCcNuma) return now;
  // Genuinely stuck (e.g. written page on a block-cache-only substrate
  // with no dominant user). Halve the ledger so the trigger re-arms
  // instead of firing on every further miss.
  adaptive_->suppressed++;
  obs.halve_remote_bytes(req);
  return now;
}

}  // namespace dsm
