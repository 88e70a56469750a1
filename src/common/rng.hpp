// Deterministic pseudo-random number generation (xoshiro256**).
//
// Simulation runs must be bit-reproducible across hosts, so we never use
// std::mt19937 seeded from entropy or rely on distribution
// implementations that differ between standard libraries.
#pragma once

#include <cstdint>

#include "common/log.hpp"

namespace dsm {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  // Independent deterministic stream `stream_id` of `seed`: one
  // splitmix64 round folds the stream id into the seed before state
  // expansion, so streams are decorrelated and the sequence depends
  // only on (seed, stream_id) — not on who draws it or in what order
  // streams are created (the fault plan keys one stream per source
  // node, so one node's draws never shift another's).
  static Rng for_stream(std::uint64_t seed, std::uint64_t stream_id) {
    std::uint64_t z = seed + stream_id * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return Rng(z ^ (z >> 31));
  }

  void reseed(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& w : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      w = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound). Uses the widening-multiply trick; bias is
  // negligible for the bounds used here (< 2^32).
  std::uint64_t next_below(std::uint64_t bound) {
    DSM_DEBUG_ASSERT(bound > 0);
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  // Uniform double in [0, 1).
  double next_double() {
    return double(next_u64() >> 11) * 0x1.0p-53;
  }

 private:
  static std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace dsm
