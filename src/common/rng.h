#ifndef SERIGRAPH_COMMON_RNG_H_
#define SERIGRAPH_COMMON_RNG_H_

#include <cstdint>

#include "common/logging.h"

namespace serigraph {

/// SplitMix64: used to seed Xoshiro and for cheap stateless mixing.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic, seedable PRNG (xoshiro256**). All randomized components
/// of SeriGraph (generators, partitioners, benches) take an explicit seed
/// so every experiment is reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5e1f00dULL) { Seed(seed); }

  /// Re-seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (int i = 0; i < 4; ++i) s_[i] = SplitMix64(&sm);
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). `bound` must be > 0. Uses Lemire's method.
  uint64_t Uniform(uint64_t bound) {
    SG_DCHECK(bound > 0);
    // Rejection-free multiply-shift is fine for our non-cryptographic needs.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform in [lo, hi], inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    SG_DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(
                    Uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Advances the state by d draws in O(256) steps, whatever d is.
  /// `poly` holds x^d mod the generator's characteristic polynomial,
  /// bit k of poly[k / 64] being the coefficient of x^k; this is
  /// xoshiro's own jump() with the distance as a parameter.
  /// scripts/xoshiro_jump.py prints `poly` for a given d.
  void Jump(const uint64_t (&poly)[4]) {
    uint64_t t[4] = {0, 0, 0, 0};
    for (const uint64_t word : poly) {
      for (int b = 0; b < 64; ++b) {
        if ((word >> b) & 1) {
          for (int i = 0; i < 4; ++i) t[i] ^= s_[i];
        }
        Next();
      }
    }
    for (int i = 0; i < 4; ++i) s_[i] = t[i];
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace serigraph

#endif  // SERIGRAPH_COMMON_RNG_H_
