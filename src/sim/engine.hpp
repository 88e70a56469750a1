// Quantum-based conservative scheduler for simulated CPUs.
//
// Each simulated CPU runs a workload thread body (a SimCall coroutine).
// CPUs free-run inside a scheduling window of `quantum` cycles; memory
// and compute awaitables only suspend when the CPU's local clock crosses
// the window end, so L1 hits cost a function call, not a context switch.
// An L1 hit the memory system lets the CPU complete by itself
// (MemorySystem::hit_path) does not even cost that call.
// Synchronization objects (sim/sync.hpp) block CPUs and wake them with
// explicit release timestamps.
//
// One pass per window. `ready_at_` packs each CPU's clock while it is
// ready and kNeverCycle while it is blocked or done. The window is
// [start, start + quantum); one pass over `ready_at_` resumes, in CPU-id
// order, every CPU whose entry is inside it, and takes the next window's
// start as the minimum of the entries it leaves behind. This serves the
// same CPUs in the same order as a scan for the earliest ready clock
// followed by a scan that runs the window, because only wake() changes
// another CPU's clock or state (the sync objects write only the running
// CPU's own fields) and clocks never decrease:
//   - a CPU woken ahead of the pass gets its new entry read when the
//     pass reaches it;
//   - a CPU woken behind the pass does not run again in this window,
//     but the pass has already taken its old entry into the minimum, so
//     wake() lowers the next start to its new clock itself.
// When the next start is kNeverCycle no CPU is ready, and any blocked
// CPU is a deadlock.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/l1_cache.hpp"
#include "sim/memory_if.hpp"
#include "sim/task.hpp"

namespace dsm {

class Engine;

// One simulated processor context.
class Cpu {
 public:
  enum class State : std::uint8_t { kReady, kBlocked, kDone };

  CpuId id = 0;
  NodeId node = 0;
  Cycle clock = 0;
  Cycle run_until = 0;                       // current window end
  State state = State::kDone;                // until a body is spawned
  std::coroutine_handle<> current = nullptr; // innermost suspended coroutine
  Engine* engine = nullptr;
  HitPath hits;                              // the memory system's, per CPU

  // ---- awaitables --------------------------------------------------------
  struct ComputeAwait {
    Cpu* cpu;
    bool await_ready() const noexcept { return cpu->clock < cpu->run_until; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      cpu->current = h;
    }
    void await_resume() const noexcept {}
  };

  struct MemAwait {
    Cpu* cpu;
    bool await_ready() const noexcept { return cpu->clock < cpu->run_until; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      cpu->current = h;
    }
    void await_resume() const noexcept {}
  };

  // Advance local time by `cycles` of computation.
  ComputeAwait compute(Cycle cycles) noexcept {
    clock += cycles;
    return ComputeAwait{this};
  }
  // Dual-issue convenience: charge ceil(n/2) cycles for n instructions.
  ComputeAwait compute_instr(std::uint64_t n) noexcept {
    return compute((n + 1) / 2);
  }

  // Timed shared-memory reference. The access is processed synchronously
  // (see sim/memory_if.hpp); the awaitable only decides whether to yield.
  MemAwait read(Addr a) noexcept { return mem_op(a, /*write=*/false); }
  MemAwait write(Addr a) noexcept { return mem_op(a, /*write=*/true); }

 private:
  MemAwait mem_op(Addr a, bool write) noexcept;
};

class Engine {
 public:
  Engine(const SystemConfig& cfg, MemorySystem* mem, Stats* stats);

  // Attach the thread body for `cpu`. Must be called before run().
  void spawn(CpuId cpu, SimCall<> body);

  // Run until every spawned body completes. Asserts on deadlock.
  void run();

  Cpu& cpu(CpuId id) { return cpus_[id]; }
  const SystemConfig& config() const { return cfg_; }
  MemorySystem* memory() { return mem_; }
  Stats* stats() { return stats_; }

  // Wake a blocked CPU at absolute time `at` (used by sync objects).
  // Writes its `ready_at_` entry, and lowers the next window's start
  // when the pass has already gone past it.
  void wake(CpuId id, Cycle at);

  // Completion time of the whole run (max CPU clock seen).
  Cycle finish_time() const { return finish_time_; }

  std::uint32_t total_cpus() const { return std::uint32_t(cpus_.size()); }

 private:
  // Resume CPU `id` until it blocks, finishes or reaches `wend`;
  // returns its new ready_at_ entry.
  Cycle serve(CpuId id, Cycle wend);

  SystemConfig cfg_;
  MemorySystem* mem_;
  Stats* stats_;
  std::vector<Cpu> cpus_;
  std::vector<SimCall<>> roots_;
  // Per CPU: its clock while ready, kNeverCycle while blocked or done.
  std::vector<Cycle> ready_at_;
  // The CPU the pass is resuming; every lower id is behind the pass.
  CpuId pass_ = 0;
  // The least clock wake() gave a CPU behind the pass in this window.
  Cycle woken_behind_ = kNeverCycle;
  Cycle finish_time_ = 0;
};

inline Cpu::MemAwait Cpu::mem_op(Addr a, bool write) noexcept {
  if (hits.l1 != nullptr && clock >= *hits.open_until &&
      hits.l1->hit(block_of(a), write))
    clock += hits.latency;
  else
    clock = engine->memory()->access(MemAccess{id, node, a, write, clock});
  Stats* st = engine->stats();
  if (write)
    st->shared_writes++;
  else
    st->shared_reads++;
  return MemAwait{this};
}

}  // namespace dsm
