#include "dsm/block_cache.hpp"

namespace dsm {

namespace {
// Shape of the growable infinite cache. A set is only the *home window*
// of its blocks: when it fills, installs spill linearly into the
// following slots (open addressing), and the whole table doubles when
// global occupancy passes 3/4 — so memory stays proportional to the
// resident block count even if many blocks are congruent in every
// power-of-two set count (the old unordered_map's guarantee).
constexpr std::uint32_t kInfiniteWays = 8;
constexpr std::uint32_t kInfiniteInitialSets = 1024;
}  // namespace

const char* to_string(NodeState s) {
  switch (s) {
    case NodeState::kInvalid: return "I";
    case NodeState::kShared: return "S";
    case NodeState::kModified: return "M";
  }
  return "?";
}

BlockCache::BlockCache(std::uint64_t bytes, std::uint32_t ways)
    : infinite_(ways == 0) {
  if (infinite_) {
    ways_ = kInfiniteWays;
    n_sets_ = kInfiniteInitialSets;
  } else {
    ways_ = ways;
    DSM_ASSERT(bytes % (kBlockBytes * ways_) == 0,
               "block cache bytes must be a multiple of ways*block");
    n_sets_ = std::uint32_t(bytes / (kBlockBytes * ways_));
    DSM_ASSERT(n_sets_ > 0);
  }
  slots_.resize(std::size_t(n_sets_) * ways_);
}

// Probe window: a finite set is exactly `ways_` slots; an infinite
// probe may continue past the home window through the spill run. Both
// stop at the first never-used slot (lru == 0): slots fill lowest
// first, eviction replaces in place, and invalidation keeps the slot
// resident, so a never-used slot ends every probe run.
BlockCache::Entry* BlockCache::probe(Addr blk) {
  const std::size_t total = slots_.size();
  std::size_t pos = std::size_t(set_of(blk)) * ways_;
  const std::size_t limit = infinite_ ? total : ways_;
  for (std::size_t i = 0; i < limit; ++i) {
    Entry& e = slots_[pos];
    if (e.lru == 0) break;
    if (e.blk == blk && e.state != NodeState::kInvalid) return &e;
    if (++pos == total) pos = 0;
  }
  return nullptr;
}

const BlockCache::Entry* BlockCache::probe(Addr blk) const {
  return const_cast<BlockCache*>(this)->probe(blk);
}

BlockCache::Victim BlockCache::install(Addr blk, NodeState st) {
  DSM_DEBUG_ASSERT(st != NodeState::kInvalid);
  Victim v;
  const std::size_t total = slots_.size();
  std::size_t pos = std::size_t(set_of(blk)) * ways_;
  const std::size_t limit = infinite_ ? total : ways_;
  // One scan finds a resident frame to refill (possibly invalid — a
  // tombstone of the same block) or the first free slot: the first
  // invalidated slot, else the never-used slot that ends the run.
  Entry* free_slot = nullptr;
  for (std::size_t i = 0; i < limit; ++i) {
    Entry& e = slots_[pos];
    if (e.lru == 0) {
      if (!free_slot) free_slot = &e;
      break;
    }
    if (e.blk == blk) {  // refill of a resident (possibly invalid) frame
      if (e.state == NodeState::kInvalid) size_++;
      e.state = st;
      e.lru = ++lru_clock_;
      return v;
    }
    if (!free_slot && e.state == NodeState::kInvalid) free_slot = &e;
    if (++pos == total) pos = 0;
  }
  if (free_slot) {
    if (free_slot->lru == 0) used_slots_++;
    free_slot->blk = blk;
    free_slot->state = st;
    free_slot->lru = ++lru_clock_;
    size_++;
    // Keep >= 1/4 of the slots never-used so probe runs stay short and
    // always terminate.
    if (infinite_ && used_slots_ * 4 >= total * 3) grow();
    return v;
  }
  // Window full with no free slot: only the finite shape can get here
  // (the infinite growth policy guarantees free slots). Evict LRU
  // (stamps are unique, so the scan order is immaterial).
  DSM_ASSERT(!infinite_, "infinite block cache ran out of slots");
  Entry* set = &slots_[std::size_t(set_of(blk)) * ways_];
  Entry* victim = set;
  for (std::uint32_t w = 1; w < ways_; ++w)
    if (set[w].lru < victim->lru) victim = &set[w];
  v.valid = true;
  v.blk = victim->blk;
  v.state = victim->state;
  victim->blk = blk;
  victim->state = st;
  victim->lru = ++lru_clock_;
  return v;
}

void BlockCache::grow() {
  DSM_ASSERT(infinite_);
  const std::size_t old_total = slots_.size();
  std::vector<Entry> old = std::move(slots_);
  n_sets_ *= 2;
  const std::size_t total = std::size_t(n_sets_) * ways_;
  slots_.assign(total, Entry{});
  // Redistribute resident entries (stale invalid slots drop); each
  // lands at the first never-used slot of its home run.
  for (std::size_t s = 0; s < old_total; ++s) {
    const Entry& e = old[s];
    if (e.lru == 0 || e.state == NodeState::kInvalid) continue;
    std::size_t pos = std::size_t(set_of(e.blk)) * ways_;
    while (slots_[pos].lru != 0)
      if (++pos == total) pos = 0;
    slots_[pos] = e;
  }
  used_slots_ = size_;
}

void BlockCache::invalidate(Addr blk) {
  Entry* e = probe(blk);
  if (!e) return;
  e->state = NodeState::kInvalid;
  DSM_DEBUG_ASSERT(size_ > 0);
  size_--;
}

void BlockCache::touch(Addr blk) {
  Entry* e = probe(blk);
  if (e) e->lru = ++lru_clock_;
}

}  // namespace dsm
