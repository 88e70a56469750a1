#include "dsm/block_cache.hpp"

namespace dsm {

namespace {
// Shape of the growable infinite cache. A set is only the *home window*
// of its blocks: when it fills, installs spill linearly into the
// following slots (open addressing), and the whole table doubles when
// global occupancy passes 3/4 — so memory stays proportional to the
// resident block count even if many blocks are congruent in every
// power-of-two set count (the old unordered_map's guarantee).
constexpr std::uint32_t kInfiniteWindow = 8;
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

BlockCache::BlockCache(std::uint64_t bytes, Shape shape)
    : infinite_(shape == Shape::kInfinite) {
  if (infinite_) {
    window_ = kInfiniteWindow;
    n_sets_ = kInfiniteInitialSets;
  } else {
    window_ = 1;
    DSM_ASSERT(bytes % kBlockBytes == 0,
               "block cache bytes must be a multiple of the block size");
    n_sets_ = std::uint32_t(bytes / kBlockBytes);
    DSM_ASSERT(n_sets_ > 0);
  }
  pow2_sets_ = (n_sets_ & (n_sets_ - 1)) == 0;
  slots_.resize(std::size_t(n_sets_) * window_);
}

// Probe window: a direct-mapped set is exactly one slot; an infinite
// probe may continue past the home window through the spill run, and
// stops at the first unused slot: slots fill lowest first and
// invalidation keeps the slot resident, so an unused slot ends every
// probe run.
BlockCache::Entry* BlockCache::probe(Addr blk) {
  const std::size_t total = slots_.size();
  std::size_t pos = std::size_t(set_of(blk)) * window_;
  const std::size_t limit = infinite_ ? total : 1;
  for (std::size_t i = 0; i < limit; ++i) {
    Entry& e = slots_[pos];
    if (e.blk == kUnused) break;
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
  DSM_DEBUG_ASSERT(blk != kUnused);
  Victim v;
  const std::size_t total = slots_.size();
  std::size_t pos = std::size_t(set_of(blk)) * window_;
  const std::size_t limit = infinite_ ? total : 1;
  // One scan finds a resident frame to refill (possibly invalid — a
  // tombstone of the same block) or the first free slot: the first
  // invalidated slot, else the unused slot that ends the run.
  Entry* free_slot = nullptr;
  for (std::size_t i = 0; i < limit; ++i) {
    Entry& e = slots_[pos];
    if (e.blk == kUnused) {
      if (!free_slot) free_slot = &e;
      break;
    }
    if (e.blk == blk) {  // refill of a resident (possibly invalid) frame
      if (e.state == NodeState::kInvalid) size_++;
      e.state = st;
      return v;
    }
    if (!free_slot && e.state == NodeState::kInvalid) free_slot = &e;
    if (++pos == total) pos = 0;
  }
  if (free_slot) {
    if (free_slot->blk == kUnused) used_slots_++;
    free_slot->blk = blk;
    free_slot->state = st;
    size_++;
    // Keep >= 1/4 of the slots unused so probe runs stay short and
    // always terminate.
    if (infinite_ && used_slots_ * 4 >= total * 3) grow();
    return v;
  }
  // A direct-mapped set holding another valid block: evict it (the
  // infinite growth policy guarantees free slots).
  DSM_ASSERT(!infinite_, "infinite block cache ran out of slots");
  Entry& victim = slots_[set_of(blk)];
  v.valid = true;
  v.blk = victim.blk;
  v.state = victim.state;
  victim.blk = blk;
  victim.state = st;
  return v;
}

void BlockCache::grow() {
  DSM_ASSERT(infinite_);
  const std::size_t old_total = slots_.size();
  std::vector<Entry> old = std::move(slots_);
  n_sets_ *= 2;
  const std::size_t total = std::size_t(n_sets_) * window_;
  slots_.assign(total, Entry{});
  // Redistribute resident entries (stale invalid slots drop); each
  // lands at the first unused slot of its home run.
  for (std::size_t s = 0; s < old_total; ++s) {
    const Entry& e = old[s];
    if (e.state == NodeState::kInvalid) continue;
    std::size_t pos = std::size_t(set_of(e.blk)) * window_;
    while (slots_[pos].blk != kUnused)
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

}  // namespace dsm
