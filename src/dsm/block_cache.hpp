// Per-node cluster-device block cache ("remote cache" / "cluster
// cache"): SRAM, set-associative with LRU, holding remote blocks cached
// under the CC-NUMA policy. Maintains inclusion with the node's L1s
// (the cluster system invalidates L1 copies when a frame is evicted).
//
// Node-level coherence state is MSI: kShared (clean at this node) or
// kModified (this node owns the only valid copy cluster-wide; some L1
// on the node may hold it M/E/O).
//
// Storage is one flat slot array organized as n_sets x ways; probe,
// install, invalidate and LRU run the same code path for both shapes:
//
//   finite    (ways > 0)  fixed set count (bytes / (block x ways)),
//                         LRU eviction within the set;
//   infinite  (ways == 0) the set is only the home *window*: installs
//                         spill linearly past a full window (open
//                         addressing) and the power-of-two set count
//                         doubles at 3/4 global occupancy — perfect
//                         CC-NUMA's block cache and the R-NUMA-Inf
//                         analogue never lose a block, and memory stays
//                         proportional to resident blocks even for
//                         pathologically congruent addresses.
//
// The old implementation kept two disjoint representations (per-set
// vectors vs. a std::unordered_map) with duplicated probe/install
// logic; folding them removes the per-access hash-map walk from the
// perfect-CC-NUMA baseline runs, which every normalized figure executes
// once per app.
#pragma once

#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace dsm {

enum class NodeState : std::uint8_t { kInvalid = 0, kShared, kModified };

const char* to_string(NodeState s);

class BlockCache {
 public:
  struct Entry {
    Addr blk = 0;
    NodeState state = NodeState::kInvalid;
    std::uint64_t lru = 0;  // higher = more recent
  };
  struct Victim {
    bool valid = false;
    Addr blk = 0;
    NodeState state = NodeState::kInvalid;
  };

  // bytes / ways: geometry. ways == 0 -> infinite (never evicts).
  BlockCache(std::uint64_t bytes, std::uint32_t ways);

  bool infinite() const { return infinite_; }

  Entry* probe(Addr blk);
  const Entry* probe(Addr blk) const;

  // Install a block; returns the evicted victim if the set was full.
  Victim install(Addr blk, NodeState st);

  void invalidate(Addr blk);
  void touch(Addr blk);  // LRU update on hit

  std::uint64_t occupancy() const { return size_; }

 private:
  std::uint32_t set_of(Addr blk) const {
    // Infinite sets are a power of two (mask); finite geometry follows
    // the configured byte size, which need not be (modulo).
    return infinite_ ? std::uint32_t(blk & (n_sets_ - 1))
                     : std::uint32_t(blk % n_sets_);
  }
  // Double the set count (infinite shape only) and redistribute
  // resident entries; stale invalid slots are dropped.
  void grow();

  bool infinite_;
  std::uint32_t ways_;
  std::uint32_t n_sets_;
  std::uint64_t size_ = 0;        // resident (valid) entries
  std::size_t used_slots_ = 0;    // slots ever written (lru != 0)
  std::uint64_t lru_clock_ = 0;
  std::vector<Entry> slots_;  // n_sets_ x ways_, set-major
};

}  // namespace dsm
