// Interface between the execution engine and the memory-system model.
//
// The timing model is "atomic transaction with resource reservation":
// each access is processed to completion at issue time — all coherence
// state (L1s, block/page caches, directory, counters) is updated
// synchronously — and the returned completion time folds in queueing
// delay at shared resources (bus, NIs, directory, page-op engine) via
// busy-until reservations. Processor interleaving is bounded by the
// Engine's scheduling quantum, the same skew guarantee the Wisconsin
// Wind Tunnel's quantum gives. The default quantum (80 cycles) equals
// the ni-constant wire latency; a mesh or torus hop (40 cycles) is
// shorter, so on those fabrics the skew may exceed one hop.
//
// L1 hits stay on the CPU, as in the Wind Tunnel, where an access to a
// valid local copy runs without entering the protocol layer: a memory
// system may expose each CPU's L1 through hit_path(), and the engine
// then completes a hit there without calling access(). Only misses,
// upgrades and hits issued while the memory system says its state may
// still stall them reach access().
#pragma once

#include "common/types.hpp"

namespace dsm {

class L1Cache;

struct MemAccess {
  CpuId cpu = 0;
  NodeId node = 0;
  Addr addr = 0;
  bool write = false;
  Cycle start = 0;  // CPU-local issue time
};

// What the engine needs to complete a CPU's L1 hits by itself. An access
// at CPU-local time `t` for which `t >= *open_until` and
// `l1->hit(block_of(addr), write)` holds takes `latency` cycles and
// never reaches access(); every other access calls access(). The memory
// system promises that access() would then also have returned
// `t + latency` and changed nothing but the line's E -> M, and may move
// `*open_until` later at any time. A null `l1` sends every access
// through access().
struct HitPath {
  L1Cache* l1 = nullptr;
  const Cycle* open_until = nullptr;
  Cycle latency = 0;
};

class MemorySystem {
 public:
  virtual ~MemorySystem() = default;

  // Process the access and return its absolute completion time
  // (>= a.start). Must be deterministic given the access sequence.
  virtual Cycle access(const MemAccess& a) = 0;

  // The hit path of `cpu`, read once when the Engine is built. The
  // default exposes no L1, so fakes and decorators see every access.
  virtual HitPath hit_path(CpuId cpu) {
    (void)cpu;
    return {};
  }

  // Called once when the parallel phase begins (first-touch binding
  // starts here) and once when it ends.
  virtual void parallel_begin(Cycle now) = 0;
  virtual void parallel_end(Cycle now) = 0;
};

}  // namespace dsm
