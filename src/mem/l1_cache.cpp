#include "mem/l1_cache.hpp"

#include <bit>

namespace dsm {

namespace {
// Position of `blk`'s 2-bit history code within its 64-bit word.
unsigned history_shift(Addr blk) { return unsigned(blk & 31) * 2; }
// The code stored for a block whose next miss is `c` (0 = never seen).
std::uint64_t history_code(MissClass c) { return std::uint64_t(c) + 1; }
}  // namespace

const char* to_string(L1State s) {
  switch (s) {
    case L1State::kI: return "I";
    case L1State::kS: return "S";
    case L1State::kE: return "E";
    case L1State::kO: return "O";
    case L1State::kM: return "M";
  }
  return "?";
}

L1Cache::L1Cache(std::uint64_t bytes) {
  DSM_ASSERT(bytes >= kBlockBytes && (bytes % kBlockBytes) == 0);
  n_sets_ = std::uint32_t(bytes / kBlockBytes);
  DSM_ASSERT(std::has_single_bit(n_sets_), "L1 set count must be a power of 2");
  lines_.resize(n_sets_);
}

L1Cache::Victim L1Cache::install(Addr blk, L1State state) {
  DSM_DEBUG_ASSERT(state != L1State::kI);
  Line& ln = lines_[set_of(blk)];
  Victim v;
  if (ln.state != L1State::kI && ln.blk != blk) {
    v.valid = true;
    v.blk = ln.blk;
    v.state = ln.state;
    record(ln.blk, MissClass::kCapacity);
  }
  ln.blk = blk;
  ln.state = state;
  return v;
}

void L1Cache::invalidate(Addr blk, MissClass reason) {
  Line* ln = probe(blk);
  if (!ln) return;
  ln->state = L1State::kI;
  record(blk, reason);
}

void L1Cache::set_state(Addr blk, L1State s) {
  Line* ln = probe(blk);
  DSM_ASSERT(ln != nullptr, "set_state on absent block");
  ln->state = s;
}

MissClass L1Cache::classify_miss(Addr blk) {
  const unsigned sh = history_shift(blk);
  std::uint64_t& w = history_word(blk);
  const unsigned code = unsigned(w >> sh) & 3u;
  if (code != 0) return MissClass(code - 1);
  w |= history_code(MissClass::kCapacity) << sh;
  return MissClass::kCold;
}

void L1Cache::record(Addr blk, MissClass next) {
  const unsigned sh = history_shift(blk);
  std::uint64_t& w = history_word(blk);
  w = (w & ~(std::uint64_t(3) << sh)) | (history_code(next) << sh);
}

std::uint64_t& L1Cache::history_word(Addr blk) {
  const Addr page = blk >> kHistoryPageBits;
  if (page != memo_page_) {
    std::unique_ptr<HistoryPage>& bits = history_[page];
    if (!bits) bits = std::make_unique<HistoryPage>();  // zeroed: unseen
    memo_page_ = page;
    memo_bits_ = bits.get();
  }
  return (*memo_bits_)[(blk & (kHistoryBlocks - 1)) >> 5];
}

}  // namespace dsm
