// Synchronization objects for simulated threads.
//
// SPLASH-2 style barriers and locks are modeled as simulator-native
// objects with queuing and explicit wake-up timestamps, not as spin
// loops through the coherence protocol. The paper studies traffic on
// *data* pages, so sync traffic is charged as fixed costs identical
// across all systems (documented in DESIGN.md §2).
//
// Wake order is deterministic: a barrier wakes its waiters in arrival
// order, a lock hands over in FIFO arrival order. The order of wakes
// does not affect the schedule: a wake sets only the woken CPU's clock
// and ready entry, and the engine serves a window's CPUs in id order
// (sim/engine.hpp).
#pragma once

#include <deque>
#include <vector>

#include "common/log.hpp"
#include "sim/engine.hpp"

namespace dsm {

// Fixed cycle charges for sync operations (same on every system).
struct SyncCosts {
  Cycle barrier_release = 200;  // broadcast + restart
  Cycle lock_acquire = 40;      // uncontended acquire
  Cycle lock_handoff = 140;     // contended transfer between CPUs
  Cycle flag_wake = 80;
};

class Barrier {
 public:
  Barrier(Engine& engine, std::uint32_t parties, SyncCosts costs = {})
      : engine_(&engine), parties_(parties), costs_(costs) {
    DSM_ASSERT(parties_ > 0);
  }

  struct Awaiter {
    Barrier* b;
    Cpu* cpu;
    bool await_ready() {
      if (b->arrived_ + 1 < b->parties_) return false;  // must wait
      // Last arriver: release everyone.
      Cycle release =
          std::max(b->latest_arrival_, cpu->clock) + b->costs_.barrier_release;
      for (CpuId id : b->waiters_) b->engine_->wake(id, release);
      b->waiters_.clear();
      b->arrived_ = 0;
      b->latest_arrival_ = 0;
      cpu->clock = release;
      b->engine_->stats()->barriers++;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      cpu->current = h;
      cpu->state = Cpu::State::kBlocked;
      b->arrived_++;
      b->latest_arrival_ = std::max(b->latest_arrival_, cpu->clock);
      b->waiters_.push_back(cpu->id);
    }
    void await_resume() const noexcept {}
  };

  // Usage: co_await bar.arrive(cpu);
  Awaiter arrive(Cpu& cpu) { return Awaiter{this, &cpu}; }

  std::uint32_t parties() const { return parties_; }

 private:
  Engine* engine_;
  std::uint32_t parties_;
  SyncCosts costs_;
  std::uint32_t arrived_ = 0;
  Cycle latest_arrival_ = 0;
  std::vector<CpuId> waiters_;
};

class Lock {
 public:
  explicit Lock(Engine& engine, SyncCosts costs = {})
      : engine_(&engine), costs_(costs) {}

  struct Awaiter {
    Lock* l;
    Cpu* cpu;
    bool await_ready() {
      if (l->owner_ != kNoOwner) return false;
      l->owner_ = cpu->id;
      cpu->clock += l->costs_.lock_acquire;
      l->engine_->stats()->lock_acquires++;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      cpu->current = h;
      cpu->state = Cpu::State::kBlocked;
      l->queue_.push_back(cpu->id);
    }
    void await_resume() const noexcept {}
  };

  // Usage: co_await lk.acquire(cpu); ... lk.release(cpu);
  Awaiter acquire(Cpu& cpu) { return Awaiter{this, &cpu}; }

  void release(Cpu& cpu) {
    DSM_ASSERT(owner_ == cpu.id, "release by non-owner");
    if (queue_.empty()) {
      owner_ = kNoOwner;
      return;
    }
    const CpuId next = queue_.front();
    queue_.pop_front();
    owner_ = next;
    engine_->stats()->lock_acquires++;
    engine_->wake(next, cpu.clock + costs_.lock_handoff);
  }

  bool held() const { return owner_ != kNoOwner; }

 private:
  static constexpr CpuId kNoOwner = ~CpuId(0);
  Engine* engine_;
  SyncCosts costs_;
  CpuId owner_ = kNoOwner;
  std::deque<CpuId> queue_;
};

// One-shot event: waiters block until set() is called.
class Flag {
 public:
  explicit Flag(Engine& engine, SyncCosts costs = {})
      : engine_(&engine), costs_(costs) {}

  struct Awaiter {
    Flag* f;
    Cpu* cpu;
    bool await_ready() {
      if (!f->set_) return false;
      cpu->clock = std::max(cpu->clock, f->set_time_);
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      cpu->current = h;
      cpu->state = Cpu::State::kBlocked;
      f->waiters_.push_back(cpu->id);
    }
    void await_resume() const noexcept {}
  };

  Awaiter wait(Cpu& cpu) { return Awaiter{this, &cpu}; }

  void set(Cpu& cpu) {
    if (set_) return;
    set_ = true;
    set_time_ = cpu.clock;
    for (CpuId id : waiters_)
      engine_->wake(id, set_time_ + costs_.flag_wake);
    waiters_.clear();
  }

  bool is_set() const { return set_; }

 private:
  Engine* engine_;
  SyncCosts costs_;
  bool set_ = false;
  Cycle set_time_ = 0;
  std::vector<CpuId> waiters_;
};

}  // namespace dsm
