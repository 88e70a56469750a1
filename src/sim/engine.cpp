#include "sim/engine.hpp"

#include <algorithm>

namespace dsm {

Engine::Engine(const SystemConfig& cfg, MemorySystem* mem, Stats* stats)
    : cfg_(cfg), mem_(mem), stats_(stats) {
  const std::uint32_t n = cfg.total_cpus();
  cpus_.resize(n);
  roots_.resize(n);
  ready_at_.assign(n, kNeverCycle);
  for (std::uint32_t i = 0; i < n; ++i) {
    cpus_[i].id = i;
    cpus_[i].node = i / cfg.cpus_per_node;
    cpus_[i].engine = this;
    cpus_[i].hits = mem->hit_path(i);
  }
}

void Engine::spawn(CpuId id, SimCall<> body) {
  DSM_ASSERT(id < cpus_.size());
  DSM_ASSERT(body.valid());
  Cpu& c = cpus_[id];
  roots_[id] = std::move(body);
  c.current = roots_[id].handle();
  c.state = Cpu::State::kReady;
  c.clock = 0;
  ready_at_[id] = 0;
}

void Engine::wake(CpuId id, Cycle at) {
  Cpu& c = cpus_[id];
  DSM_ASSERT(c.state == Cpu::State::kBlocked, "waking a non-blocked CPU");
  c.state = Cpu::State::kReady;
  c.clock = std::max(c.clock, at);
  ready_at_[id] = c.clock;
  if (id < pass_) woken_behind_ = std::min(woken_behind_, c.clock);
}

Cycle Engine::serve(CpuId id, Cycle wend) {
  pass_ = id;
  Cpu& c = cpus_[id];
  Cycle t;
  do {
    c.run_until = wend;
    c.current.resume();
    if (roots_[id].done()) {
      roots_[id].rethrow_if_failed();
      c.state = Cpu::State::kDone;
      finish_time_ = std::max(finish_time_, c.clock);
    }
    t = c.state == Cpu::State::kReady ? c.clock : kNeverCycle;
    ready_at_[id] = t;
  } while (t < wend);
  return t;
}

void Engine::run() {
  const Cycle quantum = std::max<Cycle>(1, cfg_.quantum);
  const CpuId n = total_cpus();
  Cycle* const ready_at = ready_at_.data();
  Cycle start = kNeverCycle;
  for (CpuId i = 0; i < n; ++i) start = std::min(start, ready_at[i]);
  while (start != kNeverCycle) {
    const Cycle wend = start + quantum;
    woken_behind_ = kNeverCycle;
    Cycle next = kNeverCycle;
    for (CpuId i = 0; i < n; ++i) {
      Cycle t = ready_at[i];
      if (t < wend) t = serve(i, wend);
      next = std::min(next, t);
    }
    start = std::min(next, woken_behind_);
  }
  // No CPU is ready: every body is done, or the run is deadlocked.
  const bool any_blocked =
      std::any_of(cpus_.begin(), cpus_.end(), [](const Cpu& c) {
        return c.state == Cpu::State::kBlocked;
      });
  DSM_ASSERT(!any_blocked,
             "deadlock: blocked CPUs with no runnable CPU to wake them");
  for (const Cpu& c : cpus_)
    finish_time_ = std::max(finish_time_, c.clock);
}

}  // namespace dsm
