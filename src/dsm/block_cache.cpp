#include "dsm/block_cache.hpp"

namespace dsm {

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
  if (infinite_) return;
  DSM_ASSERT(bytes % kBlockBytes == 0,
             "block cache bytes must be a multiple of the block size");
  n_sets_ = std::uint32_t(bytes / kBlockBytes);
  DSM_ASSERT(n_sets_ > 0);
  pow2_sets_ = (n_sets_ & (n_sets_ - 1)) == 0;
  slots_.resize(n_sets_);
}

BlockCache::Entry* BlockCache::probe(Addr blk) {
  if (infinite_) return resident_.find(blk);
  Entry& e = slots_[set_of(blk)];
  return e.blk == blk && e.state != NodeState::kInvalid ? &e : nullptr;
}

BlockCache::Victim BlockCache::install(Addr blk, NodeState st) {
  DSM_DEBUG_ASSERT(st != NodeState::kInvalid);
  Victim v;
  if (infinite_) {
    resident_[blk] = Entry{blk, st};
    return v;
  }
  // Refill of the same block, a free (never written or invalidated)
  // slot, or an eviction of the set's other valid block.
  Entry& e = slots_[set_of(blk)];
  if (e.state == NodeState::kInvalid) {
    size_++;
  } else if (e.blk != blk) {
    v = Victim{true, e.blk, e.state};
  }
  e = Entry{blk, st};
  return v;
}

void BlockCache::invalidate(Addr blk) {
  if (infinite_) {
    resident_.erase(blk);
    return;
  }
  Entry* e = probe(blk);
  if (!e) return;
  e->state = NodeState::kInvalid;
  DSM_DEBUG_ASSERT(size_ > 0);
  size_--;
}

}  // namespace dsm
