// Per-node cluster-device block cache ("remote cache" / "cluster
// cache"): SRAM holding remote blocks cached under the CC-NUMA policy.
// Maintains inclusion with the node's L1s (the cluster system
// invalidates L1 copies when a frame is evicted).
//
// Node-level coherence state is MSI: kShared (clean at this node) or
// kModified (this node owns the only valid copy cluster-wide; some L1
// on the node may hold it M/E/O).
//
// Two shapes, one interface:
//
//   direct-mapped  one slot per set, bytes / block sets; an install
//                  evicts the set's resident block, and a probe is one
//                  slot compare. A set count that is a power of two is
//                  indexed by mask, any other by modulo (the configured
//                  byte size need not be a power of two).
//   infinite       an AddrMap holding exactly the resident blocks
//                  (invalidate erases): perfect CC-NUMA's block cache
//                  never loses a block, and memory stays proportional
//                  to the resident blocks whatever their addresses.
#pragma once

#include <cstdint>
#include <vector>

#include "common/addr_map.hpp"
#include "common/log.hpp"
#include "common/types.hpp"

namespace dsm {

enum class NodeState : std::uint8_t { kInvalid = 0, kShared, kModified };

const char* to_string(NodeState s);

class BlockCache {
 public:
  // A kInvalid entry holds no block, whatever its `blk`.
  struct Entry {
    Addr blk = 0;
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

  // Install a block; returns the evicted victim if the set was full.
  Victim install(Addr blk, NodeState st);

  void invalidate(Addr blk);

  std::uint64_t occupancy() const {
    return infinite_ ? resident_.size() : size_;
  }

 private:
  std::uint32_t set_of(Addr blk) const {
    return pow2_sets_ ? std::uint32_t(blk & (n_sets_ - 1))
                      : std::uint32_t(blk % n_sets_);
  }

  bool infinite_;
  bool pow2_sets_ = false;
  std::uint32_t n_sets_ = 0;
  std::uint64_t size_ = 0;    // valid direct-mapped slots
  std::vector<Entry> slots_;  // direct-mapped: one per set
  AddrMap<Entry> resident_;   // infinite: every resident block
};

}  // namespace dsm
