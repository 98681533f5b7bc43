#ifndef XMODEL_COMMON_RNG_H_
#define XMODEL_COMMON_RNG_H_

#include <cassert>
#include <cstdint>

namespace xmodel::common {

/// Deterministic, seedable PRNG (xoshiro256** seeded via SplitMix64).
///
/// Every randomized component in this project (the replica-set fuzzer, the
/// OT fuzzer, the tlax simulator) takes an explicit Rng so that runs are
/// reproducible from a single seed, which is essential for replaying
/// trace-check failures.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  void Seed(uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be positive.
  uint64_t Below(uint64_t bound) {
    assert(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    while (true) {
      uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    Below(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// True with probability `percent`/100.
  bool Chance(int percent) {
    return static_cast<int>(Below(100)) < percent;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace xmodel::common

#endif  // XMODEL_COMMON_RNG_H_
