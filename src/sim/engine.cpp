#include "sim/engine.hpp"

#include <algorithm>

namespace dsm {

Engine::Engine(const SystemConfig& cfg, MemorySystem* mem, Stats* stats)
    : cfg_(cfg), mem_(mem), stats_(stats) {
  const std::uint32_t n = cfg.total_cpus();
  cpus_.resize(n);
  roots_.resize(n);
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
}

void Engine::wake(CpuId id, Cycle at) {
  Cpu& c = cpus_[id];
  DSM_ASSERT(c.state == Cpu::State::kBlocked, "waking a non-blocked CPU");
  c.state = Cpu::State::kReady;
  c.clock = std::max(c.clock, at);
}

void Engine::run() {
  const Cycle quantum = std::max<Cycle>(1, cfg_.quantum);
  for (;;) {
    // Find the earliest ready CPU; its window is [w, w + quantum).
    Cycle w = kNeverCycle;
    bool any_blocked = false;
    for (const Cpu& c : cpus_) {
      if (c.state == Cpu::State::kReady) w = std::min(w, c.clock);
      if (c.state == Cpu::State::kBlocked) any_blocked = true;
    }
    if (w == kNeverCycle) {
      DSM_ASSERT(!any_blocked,
                 "deadlock: blocked CPUs with no runnable CPU to wake them");
      break;  // all done
    }
    const Cycle wend = w + quantum;
    for (Cpu& c : cpus_) {
      while (c.state == Cpu::State::kReady && c.clock < wend) {
        c.run_until = wend;
        c.current.resume();
        if (roots_[c.id].done()) {
          roots_[c.id].rethrow_if_failed();
          c.state = Cpu::State::kDone;
          finish_time_ = std::max(finish_time_, c.clock);
        }
      }
    }
  }
  for (const Cpu& c : cpus_)
    finish_time_ = std::max(finish_time_, c.clock);
}

}  // namespace dsm
