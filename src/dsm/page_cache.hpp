// S-COMA page cache with fine-grain tags (R-NUMA's main-memory cache).
//
// A frame is a local main-memory page holding remote blocks at block
// granularity: each of the 64 blocks has its own MSI state ("fine-grain
// tags"). The LPA<->GPA translation table of real S-COMA hardware is
// represented by keying frames by global page number.
//
// capacity_pages == 0 selects an infinite page cache (R-NUMA-Inf).
// Replacement is LRU over frames.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "common/addr_map.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "dsm/block_cache.hpp"

namespace dsm {

class PageCache {
 public:
  struct Frame {
    std::array<NodeState, kBlocksPerPage> tag{};  // kInvalid-initialized
    std::uint64_t lru = 0;
    std::uint32_t valid_blocks = 0;

    bool has(unsigned blk_ix) const {
      return tag[blk_ix] != NodeState::kInvalid;
    }
  };

  explicit PageCache(std::uint64_t capacity_pages)
      : capacity_(capacity_pages) {}

  bool infinite() const { return capacity_ == 0; }

  // Frame lookup; touch() refreshes LRU (call on access).
  Frame* find(Addr page);
  const Frame* find(Addr page) const;
  void touch(Addr page);

  // True if a new frame can be allocated without eviction.
  bool has_free_frame() const {
    return infinite() || frames_.size() < capacity_;
  }

  // Allocate a frame for `page` (must not already exist; caller evicts
  // first if needed).
  Frame& allocate(Addr page);

  // Choose the LRU frame as eviction victim. Returns the page number;
  // asserts the cache is non-empty.
  Addr pick_victim() const;

  // Remove a frame (after its blocks have been flushed by the caller).
  void release(Addr page);

  std::size_t frames_in_use() const { return frames_.size(); }
  std::uint64_t capacity() const { return capacity_; }

  // Sorted-by-page sweep (reports, teardown): deterministic row order
  // on every standard library.
  template <typename Fn>
  void for_each_frame(Fn&& fn) {
    frames_.for_each(std::forward<Fn>(fn));
  }

 private:
  std::uint64_t capacity_;
  std::uint64_t lru_clock_ = 0;
  AddrMap<Frame> frames_;
};

}  // namespace dsm
