// Flat address-keyed hash table for the simulator's per-address state.
//
// Every simulated reference that escapes the L1 used to walk three to
// five std::unordered_map<Addr,...> lookups (page table, directory,
// page cache, policy observation records). Node-based maps pay a heap
// allocation per entry and a pointer chase per probe; this table
// replaces them with:
//
//   * an open-addressing index — power-of-two capacity, multiplicative
//     (Fibonacci) hashing, linear probing, grown at 1/2 load (the
//     directory is probed for *absent* blocks constantly; low load
//     keeps unsuccessful probes short). The index is stored SoA: the
//     key array is separate from the slot-metadata array, so a probe
//     walks a dense run of 8-byte keys — twice the keys per cache line
//     of the old {key, slot} pair layout — and the slot array is only
//     touched once, on the hit.
//   * tombstone-free erase — backward-shift deletion keeps probe
//     sequences dense, so long-running erase-heavy tables (the
//     directory under page migration) never degrade the way
//     tombstone schemes do.
//   * chunk-stable value storage — values live in fixed-size chunks
//     that never move or reallocate, so `V&` references returned by
//     operator[] stay valid across later inserts *and* across erases
//     of other keys (strictly stronger than unordered_map, whose
//     rehash invalidates iterators). The protocol engine holds
//     PageInfo/Frame references across deeply re-entrant policy
//     dispatch; that stability is load-bearing.
//   * deterministic snapshot iteration — for_each visits entries
//     sorted by address, so report rows and coherence-check walks are
//     identical across standard libraries (unordered_map bucket order
//     is not).
//
// The table never stores key ~0 (kNoPage / kNoAddr sentinels).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace dsm {

template <typename V>
class AddrMap {
 public:
  static constexpr Addr kEmptyKey = ~Addr(0);

  AddrMap() = default;

  // Move-only (std::vector<CounterCache> needs its index movable). The
  // value chunks move by pointer, so every value keeps its address and
  // the memo stays valid; the source is left empty.
  AddrMap(AddrMap&& o) noexcept
      : keys_(std::move(o.keys_)),
        slots_(std::move(o.slots_)),
        chunks_(std::move(o.chunks_)),
        free_(std::move(o.free_)),
        size_(std::exchange(o.size_, 0)),
        mask_(std::exchange(o.mask_, 0)),
        shift_(std::exchange(o.shift_, 64)),
        high_water_(std::exchange(o.high_water_, 0)),
        memo_key_(std::exchange(o.memo_key_, kEmptyKey)),
        memo_val_(std::exchange(o.memo_val_, nullptr)) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  V* find(Addr key) {
    DSM_DEBUG_ASSERT(key != kEmptyKey, "sentinel key probed in AddrMap");
    // One-entry memo: protocol transactions touch the same page/block
    // several times back to back (access -> upgrade -> install). Value
    // references are chunk-stable, so the memo survives inserts and
    // only an erase of the memoized key clears it.
    if (key == memo_key_) return memo_val_;
    if (keys_.empty()) return nullptr;
    std::size_t pos = home_of(key);
    for (;;) {
      const Addr k = keys_[pos];
      if (k == key) {
        memo_key_ = key;
        memo_val_ = &value_at(slots_[pos]);
        return memo_val_;
      }
      if (k == kEmptyKey) return nullptr;
      pos = (pos + 1) & mask_;
    }
  }
  // The const overload neither reads nor writes the memo: it is a pure
  // probe, safe on a table shared read-only between sweep workers.
  const V* find(Addr key) const {
    DSM_DEBUG_ASSERT(key != kEmptyKey, "sentinel key probed in AddrMap");
    if (keys_.empty()) return nullptr;
    std::size_t pos = home_of(key);
    for (;;) {
      const Addr k = keys_[pos];
      if (k == key) return &value_at(slots_[pos]);
      if (k == kEmptyKey) return nullptr;
      pos = (pos + 1) & mask_;
    }
  }

  // Find-or-insert with a default-constructed value. The returned
  // reference is stable for the entry's lifetime (chunked storage).
  V& operator[](Addr key) {
    DSM_DEBUG_ASSERT(key != kEmptyKey, "sentinel key inserted into AddrMap");
    if (key == memo_key_) return *memo_val_;
    if (keys_.empty()) grow(kMinCapacity);
    std::size_t pos = home_of(key);
    for (;;) {
      const Addr k = keys_[pos];
      if (k == key) {
        memo_key_ = key;
        memo_val_ = &value_at(slots_[pos]);
        return *memo_val_;
      }
      if (k == kEmptyKey) break;
      pos = (pos + 1) & mask_;
    }
    if ((size_ + 1) * 2 > keys_.size()) {
      grow(keys_.size() * 2);
      // Rehash moved the probe window; find the fresh empty position.
      pos = home_of(key);
      while (keys_[pos] != kEmptyKey) pos = (pos + 1) & mask_;
    }
    const std::uint32_t slot = take_slot();
    keys_[pos] = key;
    slots_[pos] = slot;
    size_++;
    memo_key_ = key;
    memo_val_ = &value_at(slot);
    return *memo_val_;
  }

  // Erase by backward shift: entries displaced past the hole move back
  // into it, so no tombstones accumulate. Values of *other* keys never
  // move (only the index shifts); the erased entry's slot is recycled
  // by a later insert.
  bool erase(Addr key) {
    DSM_DEBUG_ASSERT(key != kEmptyKey, "sentinel key erased from AddrMap");
    if (keys_.empty()) return false;
    if (key == memo_key_) {
      memo_key_ = kEmptyKey;
      memo_val_ = nullptr;
    }
    std::size_t pos = home_of(key);
    for (;;) {
      const Addr k = keys_[pos];
      if (k == key) break;
      if (k == kEmptyKey) return false;
      pos = (pos + 1) & mask_;
    }
    free_.push_back(slots_[pos]);
    // Walk the probe run after the hole; an entry moves back into the
    // hole iff the hole lies on its own probe path (cyclically between
    // its home position and where it sits).
    std::size_t hole = pos;
    std::size_t cur = (pos + 1) & mask_;
    while (keys_[cur] != kEmptyKey) {
      const std::size_t want = home_of(keys_[cur]);
      if (((hole - want) & mask_) < ((cur - want) & mask_)) {
        keys_[hole] = keys_[cur];
        slots_[hole] = slots_[cur];
        hole = cur;
      }
      cur = (cur + 1) & mask_;
    }
    keys_[hole] = kEmptyKey;
    size_--;
    return true;
  }

  // Deterministic snapshot iteration: visits entries sorted by address.
  // fn(Addr, V&) may mutate values but must not insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    std::vector<std::pair<Addr, std::uint32_t>> snap = snapshot_sorted();
    for (const auto& [key, slot] : snap) fn(key, value_at(slot));
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::vector<std::pair<Addr, std::uint32_t>> snap = snapshot_sorted();
    for (const auto& [key, slot] : snap) fn(key, value_at(slot));
  }

  // Index-order scan, no allocation — for order-independent reductions
  // on hot-ish paths (LRU victim scans). Deterministic for a given
  // insert/erase history, but *not* address-sorted.
  template <typename Fn>
  void for_each_unordered(Fn&& fn) const {
    for (std::size_t pos = 0; pos < keys_.size(); ++pos)
      if (keys_[pos] != kEmptyKey) fn(keys_[pos], value_at(slots_[pos]));
  }

  // Pre-size the index for an expected entry count (avoids growth
  // rehashes in tables whose population is known up front).
  void reserve(std::size_t entries) {
    std::size_t cap = kMinCapacity;
    while (cap < entries * 2) cap <<= 1;
    if (cap > keys_.size()) grow(cap);
  }

 private:
  static constexpr std::size_t kMinCapacity = 64;
  static constexpr unsigned kChunkBits = 8;  // 256 values per chunk
  static constexpr std::size_t kChunkSize = std::size_t(1) << kChunkBits;

  // Fibonacci hashing: multiply spreads low-entropy address keys (page
  // and block numbers are small and sequential) across the top bits;
  // the shift keeps exactly log2(capacity) of them.
  std::size_t home_of(Addr key) const {
    return std::size_t((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  V& value_at(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }
  const V& value_at(std::uint32_t slot) const {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  std::uint32_t take_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      value_at(slot) = V{};  // recycled slot starts fresh
      return slot;
    }
    const std::uint32_t slot = high_water_;
    if ((slot >> kChunkBits) == chunks_.size())
      chunks_.push_back(std::make_unique<V[]>(kChunkSize));
    high_water_++;
    return slot;
  }

  void grow(std::size_t new_capacity) {
    std::vector<Addr> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_slots = std::move(slots_);
    keys_.assign(new_capacity, kEmptyKey);
    slots_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    shift_ = 64;
    for (std::size_t c = new_capacity; c > 1; c >>= 1) shift_--;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      const Addr k = old_keys[i];
      if (k == kEmptyKey) continue;
      std::size_t pos = home_of(k);
      while (keys_[pos] != kEmptyKey) pos = (pos + 1) & mask_;
      keys_[pos] = k;
      slots_[pos] = old_slots[i];
    }
  }

  std::vector<std::pair<Addr, std::uint32_t>> snapshot_sorted() const {
    std::vector<std::pair<Addr, std::uint32_t>> snap;
    snap.reserve(size_);
    for (std::size_t pos = 0; pos < keys_.size(); ++pos)
      if (keys_[pos] != kEmptyKey) snap.emplace_back(keys_[pos], slots_[pos]);
    std::sort(snap.begin(), snap.end());
    return snap;
  }

  // SoA index: parallel arrays, probes touch keys_ only until the hit.
  std::vector<Addr> keys_;
  std::vector<std::uint32_t> slots_;
  // Fixed-size value chunks, never moved or reallocated.
  std::vector<std::unique_ptr<V[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::uint32_t high_water_ = 0;
  // One-entry lookup memo (values are chunk-stable, so moves of the
  // whole map keep it valid; erase of the memoized key clears it).
  Addr memo_key_ = kEmptyKey;
  V* memo_val_ = nullptr;
};

}  // namespace dsm
