// Per-run bump arena: one reservation, bulk-freed at run teardown.
//
// Simulation tables (PageTable, Directory, PageObs, counter-cache
// indices) grow monotonically during a run and die together with the
// DsmSystem; nothing in the steady state is ever returned to the heap
// individually. Arena exploits that lifetime: allocation is a pointer
// bump inside geometrically-growing chunks, deallocate() is a no-op
// (rehash-abandoned index arrays stay resident until teardown — the
// documented trade for an allocation-free steady state), and the
// destructor releases every chunk at once.
//
// Exposed as a std::pmr::memory_resource so the AddrMap containers
// take it through the standard allocator machinery; a table
// constructed without an arena transparently uses the default heap
// resource.
//
// Not thread-safe: one Arena belongs to one run, and the sweep harness
// runs each simulation on one worker.
#pragma once

#include <cstddef>
#include <memory_resource>
#include <new>

#include "common/log.hpp"

namespace dsm {

class Arena final : public std::pmr::memory_resource {
 public:
  static constexpr std::size_t kDefaultChunkBytes = std::size_t(1) << 20;

  explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes)
      : next_chunk_bytes_(first_chunk_bytes ? first_chunk_bytes
                                            : kDefaultChunkBytes) {}
  ~Arena() override { release(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Free every chunk (bulk teardown). Outstanding pointers die with it.
  void release() {
    Chunk* c = chunks_;
    while (c) {
      Chunk* next = c->next;
      ::operator delete(static_cast<void*>(c), std::align_val_t(kChunkAlign));
      c = next;
    }
    chunks_ = nullptr;
    cur_ = end_ = nullptr;
  }

 private:
  struct Chunk {
    Chunk* next = nullptr;
    std::size_t bytes = 0;  // usable payload bytes after the header
  };
  static constexpr std::size_t kChunkAlign = alignof(std::max_align_t);
  static constexpr std::size_t kHeaderBytes =
      (sizeof(Chunk) + kChunkAlign - 1) & ~(kChunkAlign - 1);

  void* do_allocate(std::size_t bytes, std::size_t align) override {
    DSM_ASSERT(align <= kChunkAlign, "over-aligned arena allocation");
    char* p = align_up(cur_, align);
    if (p + bytes > end_) {
      new_chunk(bytes);
      p = align_up(cur_, align);
    }
    cur_ = p + bytes;
    return p;
  }

  // Individual frees are dropped; memory returns in release().
  void do_deallocate(void*, std::size_t, std::size_t) override {}

  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  static char* align_up(char* p, std::size_t align) {
    const std::uintptr_t v = reinterpret_cast<std::uintptr_t>(p);
    return reinterpret_cast<char*>((v + align - 1) & ~(align - 1));
  }

  void new_chunk(std::size_t at_least) {
    std::size_t payload = next_chunk_bytes_;
    // Doubling keeps the chunk count logarithmic in total footprint.
    next_chunk_bytes_ *= 2;
    if (payload < at_least + kChunkAlign) payload = at_least + kChunkAlign;
    void* raw = ::operator new(kHeaderBytes + payload,
                               std::align_val_t(kChunkAlign));
    Chunk* c = new (raw) Chunk;
    c->next = chunks_;
    c->bytes = payload;
    chunks_ = c;
    cur_ = static_cast<char*>(raw) + kHeaderBytes;
    end_ = cur_ + payload;
  }

  Chunk* chunks_ = nullptr;
  char* cur_ = nullptr;
  char* end_ = nullptr;
  std::size_t next_chunk_bytes_;
};

}  // namespace dsm
