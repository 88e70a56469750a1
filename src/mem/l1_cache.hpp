// Processor data cache: direct-mapped, write-back, write-allocate,
// MOESI states, with per-block miss-class history for the paper's
// cold / coherence / capacity-conflict breakdown.
//
// The cache stores no data — workloads compute on host memory — only
// tags and coherence state. Addresses are block-aligned globally; the
// tag is the full block number, so aliasing is impossible by
// construction and the set index is blk % n_sets.
//
// Miss history layout. Every L1 miss, eviction and invalidation reads
// or writes the history of one block, so the history is kept small
// enough to stay in the host's caches: 2 bits per block (0 = never
// seen, else the MissClass of the block's next miss, plus one), in
// history pages of kHistoryBlocks consecutive blocks. A page is
// allocated zeroed on the first write to any of its blocks and found
// through a page-keyed AddrMap, with a one-entry memo of the last page
// used in front of it. A page spans 4 MB of simulated memory, enough for
// the whole shared footprint of raytrace at paper scale, so the memo
// rarely misses. (With 256 KB pages it missed on half of raytrace's
// lookups: a miss and the eviction it causes alternate between pages.)
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/addr_map.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dsm {

enum class L1State : std::uint8_t { kI = 0, kS, kE, kO, kM };

const char* to_string(L1State s);

inline bool l1_valid(L1State s) { return s != L1State::kI; }
inline bool l1_dirty(L1State s) {
  return s == L1State::kM || s == L1State::kO;
}
inline bool l1_writable(L1State s) {
  return s == L1State::kM || s == L1State::kE;
}

class L1Cache {
 public:
  struct Line {
    Addr blk = kNoBlock;
    L1State state = L1State::kI;
  };
  struct Victim {
    bool valid = false;
    Addr blk = 0;
    L1State state = L1State::kI;
  };

  static constexpr Addr kNoBlock = ~Addr(0);
  // Blocks per miss-history page (64K blocks: 16 KB of history).
  static constexpr unsigned kHistoryPageBits = 16;
  static constexpr unsigned kHistoryBlocks = 1u << kHistoryPageBits;

  explicit L1Cache(std::uint64_t bytes);

  // Tag probe: returns the resident line if it holds `blk`, else nullptr.
  Line* probe(Addr blk) {
    Line& ln = lines_[set_of(blk)];
    return (ln.state != L1State::kI && ln.blk == blk) ? &ln : nullptr;
  }
  const Line* probe(Addr blk) const {
    const Line& ln = lines_[set_of(blk)];
    return (ln.state != L1State::kI && ln.blk == blk) ? &ln : nullptr;
  }

  // The one definition of an L1 hit: a read of a valid line, or a write
  // to an E or M line (E silently becomes M). Anything else — a miss, or
  // a write to an S or O line, which needs exclusivity — returns false
  // and leaves the line untouched.
  bool hit(Addr blk, bool write) {
    Line& ln = lines_[set_of(blk)];
    if (ln.blk != blk || ln.state == L1State::kI) return false;
    if (!write) return true;
    if (!l1_writable(ln.state)) return false;
    ln.state = L1State::kM;
    return true;
  }

  // Install `blk` in `state`, returning the replaced victim (if any).
  // The victim's miss history is marked capacity/conflict.
  Victim install(Addr blk, L1State state);

  // Coherence/inclusion actions from the bus/devices. `reason` records
  // how the block was lost for the next miss's classification
  // (coherence invalidation vs. inclusion-driven replacement).
  void invalidate(Addr blk, MissClass reason = MissClass::kCoherence);
  void set_state(Addr blk, L1State s);

  // Classify the miss on `blk`: kCold on first touch (which records the
  // block as seen, so an uneventful re-miss reads capacity), else
  // whatever the block's last departure recorded.
  MissClass classify_miss(Addr blk);

  std::uint32_t n_sets() const { return n_sets_; }

 private:
  using HistoryPage = std::array<std::uint64_t, kHistoryBlocks * 2 / 64>;

  std::uint32_t set_of(Addr blk) const {
    return std::uint32_t(blk & (n_sets_ - 1));
  }

  // The 64-bit history word holding `blk`'s 2-bit code, allocating the
  // block's history page if needed.
  std::uint64_t& history_word(Addr blk);
  // Set `blk`'s history to `next`.
  void record(Addr blk, MissClass next);

  std::uint32_t n_sets_;
  std::vector<Line> lines_;
  AddrMap<std::unique_ptr<HistoryPage>> history_;  // history page -> bits
  // Last history page used (~0 = none: page numbers stay below 2^48).
  Addr memo_page_ = ~Addr(0);
  HistoryPage* memo_bits_ = nullptr;
};

}  // namespace dsm
