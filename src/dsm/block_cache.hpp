// Per-node cluster-device block cache ("remote cache" / "cluster
// cache"): SRAM holding remote blocks cached under the CC-NUMA policy.
// Maintains inclusion with the node's L1s (the cluster system
// invalidates L1 copies when a frame is evicted).
//
// Node-level coherence state is MSI: kShared (clean at this node) or
// kModified (this node owns the only valid copy cluster-wide; some L1
// on the node may hold it M/E/O).
//
// Storage is one flat slot array organized as n_sets x window; probe,
// install and invalidate run the same code path for both shapes:
//
//   direct-mapped  one slot per set, bytes / block sets; an install
//                  evicts the set's resident block;
//   infinite       the set is only the home *window*: installs spill
//                  linearly past a full window (open addressing) and
//                  the power-of-two set count doubles at 3/4 global
//                  occupancy — perfect CC-NUMA's block cache and the
//                  R-NUMA-Inf analogue never lose a block, and memory
//                  stays proportional to resident blocks even for
//                  pathologically congruent addresses.
//
// A set count that is a power of two is indexed by mask, any other by
// modulo (the configured byte size need not be a power of two).
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
  // blk == kUnused marks a slot no install has written yet; block
  // numbers stay below 2^58, so no block takes the marker.
  static constexpr Addr kUnused = ~Addr(0);
  struct Entry {
    Addr blk = kUnused;
    NodeState state = NodeState::kInvalid;
  };
  struct Victim {
    bool valid = false;
    Addr blk = 0;
    NodeState state = NodeState::kInvalid;
  };

  enum class Shape : std::uint8_t { kDirectMapped, kInfinite };

  // kDirectMapped: bytes / kBlockBytes sets of one block. kInfinite
  // never evicts and ignores `bytes`.
  BlockCache(std::uint64_t bytes, Shape shape);

  Entry* probe(Addr blk);
  const Entry* probe(Addr blk) const;

  // Install a block; returns the evicted victim if the set was full.
  Victim install(Addr blk, NodeState st);

  void invalidate(Addr blk);

  std::uint64_t occupancy() const { return size_; }

 private:
  std::uint32_t set_of(Addr blk) const {
    return pow2_sets_ ? std::uint32_t(blk & (n_sets_ - 1))
                      : std::uint32_t(blk % n_sets_);
  }
  // Double the set count (infinite shape only) and redistribute
  // resident entries; stale invalid slots are dropped.
  void grow();

  bool infinite_;
  bool pow2_sets_;
  std::uint32_t window_;  // slots per set: 1, or the infinite home window
  std::uint32_t n_sets_;
  std::uint64_t size_ = 0;      // resident (valid) entries
  std::size_t used_slots_ = 0;  // slots ever written (blk != kUnused)
  std::vector<Entry> slots_;    // n_sets_ x window_, set-major
};

}  // namespace dsm
