// Workload framework: execution-driven kernels over a simulated shared
// address space.
//
// A Workload allocates SharedArrays (global physical addresses backed by
// host memory), then provides one SimCall coroutine per simulated CPU.
// Inside the coroutine, element accessors issue timed references:
//
//   double v = co_await a.rd(cpu, i);     // timed shared read
//   co_await a.wr(cpu, i, v * 2.0);       // timed shared write
//   co_await cpu.compute(4);              // 4 cycles of computation
//   co_await barrier.arrive(cpu);
//
// The real computation happens on host memory, so every kernel is a
// genuine algorithm whose sharing pattern emerges from the data flow —
// the substitution DESIGN.md §2 documents for the SPLASH-2 binaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace dsm {

class SharedSpace;

template <typename T>
class SharedArray {
 public:
  SharedArray() = default;

  std::size_t size() const { return n_; }
  Addr addr(std::size_t i) const {
    DSM_DEBUG_ASSERT(i < n_);
    return base_ + i * sizeof(T);
  }
  // Untimed host access (setup/verify only — never from a timed body).
  T& host(std::size_t i) {
    DSM_DEBUG_ASSERT(i < n_);
    return host_[i];
  }
  const T& host(std::size_t i) const {
    DSM_DEBUG_ASSERT(i < n_);
    return host_[i];
  }

  struct ReadOp {
    Cpu::MemAwait inner;
    const T* value;
    bool await_ready() const noexcept { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      inner.await_suspend(h);
    }
    T await_resume() const noexcept { return *value; }
  };
  struct WriteOp {
    Cpu::MemAwait inner;
    bool await_ready() const noexcept { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      inner.await_suspend(h);
    }
    void await_resume() const noexcept {}
  };

  // Timed accessors (must be co_awaited).
  ReadOp rd(Cpu& cpu, std::size_t i) const {
    return ReadOp{cpu.read(addr(i)), &host_[i]};
  }
  WriteOp wr(Cpu& cpu, std::size_t i, T v) {
    host_[i] = v;
    return WriteOp{cpu.write(addr(i))};
  }
  // Timed read-modify-write combining one read+write reference pair.
  template <typename Fn>
  WriteOp rmw(Cpu& cpu, std::size_t i, Fn&& fn) {
    (void)cpu.read(addr(i));
    host_[i] = fn(host_[i]);
    return WriteOp{cpu.write(addr(i))};
  }

 private:
  friend class SharedSpace;
  SharedArray(Addr base, T* host, std::size_t n)
      : base_(base), host_(host), n_(n) {}
  Addr base_ = 0;
  T* host_ = nullptr;
  std::size_t n_ = 0;
};

// Global shared address space. Allocations are page-aligned so distinct
// arrays never share a page (as separately mmap'ed SPLASH segments),
// and successive allocations are staggered by a cycling page offset so
// equal-sized arrays do not systematically alias in the direct-mapped
// L1s (heap headers and malloc jitter break such alignment on real
// systems; a perfectly aliased layout would be an artefact).
class SharedSpace {
 public:
  template <typename T>
  SharedArray<T> alloc(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    auto buf = std::make_unique<std::byte[]>(bytes);
    T* host = reinterpret_cast<T*>(buf.get());
    for (std::size_t i = 0; i < n; ++i) new (host + i) T{};
    const Addr base = next_;
    next_ += (bytes + kPageBytes - 1) & ~(kPageBytes - 1);
    next_ += kPageBytes * (1 + (buffers_.size() % 3));  // colouring skew
    buffers_.push_back(std::move(buf));
    return SharedArray<T>(base, host, n);
  }

 private:
  Addr next_ = kPageBytes;  // skip page 0
  std::vector<std::unique_ptr<std::byte[]>> buffers_;
};

// Per-simulated-thread context handed to Workload::body.
struct WorkerCtx {
  Cpu* cpu = nullptr;
  std::uint32_t tid = 0;
  std::uint32_t nthreads = 1;
  Rng rng;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;

  // Allocate shared data, build sync objects, initialize host contents.
  // Untimed (models the pre-parallel sequential phase).
  virtual void setup(Engine& engine, SharedSpace& space,
                     std::uint32_t nthreads) = 0;

  // The per-thread simulated body.
  virtual SimCall<> body(WorkerCtx& ctx) = 0;

  // Post-run correctness check; DSM_ASSERTs on failure.
  virtual void verify() {}
};

}  // namespace dsm
