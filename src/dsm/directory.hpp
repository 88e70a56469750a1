// Home-node directory: width-independent sharer sets, three stable
// states.
//
// The directory is global truth for node-level coherence:
//   kUncached  — no node caches the block; memory at home is current.
//   kShared    — one or more nodes hold clean copies (NodeSet; may be a
//                conservative superset under the coarse-vector scheme).
//   kExclusive — exactly one node may hold the block M/E/O; its copy is
//                (potentially) the only valid one cluster-wide.
//
// Sharer sets are NodeSet (common/node_set.hpp): full bit-vector,
// limited-pointer, or coarse-vector per SystemConfig::dir_scheme. The
// full-map scheme is decision- and byte-identical to the historic raw
// 32-bit mask (the parity goldens pin it); the inexact schemes only
// ever over-approximate, so invalidation fan-out conservatively
// multicasts and the checker validates supersets.
//
// Because the timing model processes each transaction atomically (see
// sim/memory_if.hpp) there are no transient states: every lookup sees a
// stable entry, and the "pending" behaviour of a real directory shows up
// as occupancy on the home device resource instead.
//
// Storage layout. Entries are grouped by page: a page-keyed AddrMap
// holds one record per page that has any live entry, with the page's 64
// entries in block order and a 64-bit live mask. The index therefore has
// one key per page rather than one per block, and the blocks of one
// page, which a transaction and a page operation touch together, share
// a record. A page record costs about 2 KB however few of its blocks are
// live.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "common/addr_map.hpp"
#include "common/log.hpp"
#include "common/node_set.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dsm {

enum class DirState : std::uint8_t { kUncached = 0, kShared, kExclusive };

const char* to_string(DirState s);

struct DirEntry {
  DirState state = DirState::kUncached;
  NodeId owner = kNoNode;  // valid iff state == kExclusive
  NodeSet sharers;         // valid iff state == kShared

  bool is_sharer(NodeId n, const NodeSetLayout& l) const {
    return sharers.contains(n, l);
  }
  void add_sharer(NodeId n, const NodeSetLayout& l) { sharers.add(n, l); }
  void remove_sharer(NodeId n, const NodeSetLayout& l) { sharers.remove(n, l); }
  std::uint32_t sharer_count(const NodeSetLayout& l) const {
    return sharers.count(l);
  }

  // `n` becomes the only holder, free to modify the block.
  void grant_exclusive(NodeId n) {
    state = DirState::kExclusive;
    owner = n;
    sharers.clear();
  }
  // `n` no longer caches the block.
  void drop(NodeId n, const NodeSetLayout& l) {
    if (state == DirState::kExclusive && owner == n) {
      state = DirState::kUncached;
      owner = kNoNode;
      sharers.clear();
    } else if (state == DirState::kShared) {
      remove_sharer(n, l);
      if (sharers.empty()) state = DirState::kUncached;
    }
  }
};

class Directory {
 public:
  explicit Directory(const NodeSetLayout& layout) : layout_(layout) {}

  const NodeSetLayout& layout() const { return layout_; }

  // Find-or-insert; a new entry starts kUncached. References stay valid
  // across later inserts and across erases of *other* pages: page
  // records are chunk-stable in the AddrMap.
  DirEntry& entry(Addr blk) {
    PageDir& pd = pages_[blk >> kPageShift];
    const std::uint64_t bit = bit_of(blk);
    DirEntry& e = pd.entries[slot_of(blk)];
    if (!(pd.live & bit)) {
      pd.live |= bit;
      e = DirEntry{};
      size_++;
    }
    return e;
  }

  DirEntry* find(Addr blk) {
    PageDir* pd = pages_.find(blk >> kPageShift);
    if (pd == nullptr || !(pd->live & bit_of(blk))) return nullptr;
    return &pd->entries[slot_of(blk)];
  }
  const DirEntry* find(Addr blk) const {
    const PageDir* pd = pages_.find(blk >> kPageShift);
    if (pd == nullptr || !(pd->live & bit_of(blk))) return nullptr;
    return &pd->entries[slot_of(blk)];
  }

  // Drop every entry of `page` (a page operation gathers every copy
  // first; the page's blocks then start kUncached at the home).
  void erase_page(Addr page) {
    const PageDir* pd = pages_.find(page);
    if (pd == nullptr) return;
    size_ -= std::size_t(std::popcount(pd->live));
    pages_.erase(page);
  }

  // Live entries.
  std::size_t size() const { return size_; }

  // Sorted-by-block iteration — the coherence checker's walk order is
  // identical on every standard library. fn(Addr blk, DirEntry&) may
  // mutate entries but must not insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    pages_.for_each([&](Addr page, PageDir& pd) {
      for (std::uint64_t m = pd.live; m != 0; m &= m - 1) {
        const unsigned i = unsigned(__builtin_ctzll(m));
        fn((page << kPageShift) | i, pd.entries[i]);
      }
    });
  }

  // Directory-memory census over the live entries: how many bits of
  // sharer metadata the current representations actually occupy, next
  // to the full-map extrapolation (entries x nodes bits). This is the
  // scale-out experiment's headline number — with limited/coarse
  // schemes it grows with *measured sharers*, not machine width.
  DirUsage usage() {
    DirUsage u;
    u.nodes = layout_.nodes;
    for_each([&](Addr, DirEntry& e) {
      u.entries++;
      if (e.state == DirState::kShared) u.shared_entries++;
      if (e.sharers.rep() == NodeSet::Rep::kCoarse) u.coarse_entries++;
      u.sharers_measured += e.sharers.count(layout_);
      u.sharer_bits_used += e.sharers.storage_bits(layout_);
      u.sharer_bits_full_map += layout_.nodes;
    });
    return u;
  }

 private:
  static constexpr unsigned kPageShift = kPageBits - kBlockBits;
  static_assert(kBlocksPerPage == 64, "live mask is one 64-bit word");

  // One page's entries; bit i of `live` says entries[i] exists.
  struct PageDir {
    std::uint64_t live = 0;
    std::array<DirEntry, kBlocksPerPage> entries;
  };

  static unsigned slot_of(Addr blk) {
    return unsigned(blk & (kBlocksPerPage - 1));
  }
  static std::uint64_t bit_of(Addr blk) {
    return std::uint64_t(1) << slot_of(blk);
  }

  NodeSetLayout layout_;
  AddrMap<PageDir> pages_;
  std::size_t size_ = 0;
};

}  // namespace dsm
