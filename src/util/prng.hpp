// xoshiro256** pseudo-random number generator.
//
// A small, fast, high-quality PRNG (Blackman & Vigna). Used instead of
// std::mt19937 where reproducible streams across compilers matter: the
// matrix generators must produce bit-identical sparsity patterns so the
// benchmarks and tests are deterministic.
#pragma once

#include <cstdint>

namespace hspmv::util {

/// splitmix64 (Steele, Lea, Flood): advance `z` by the golden-ratio
/// increment and finalize it — a stateless bit mixer that spreads
/// correlated inputs (seeds, row indices, attempt counters) into
/// uncorrelated 64-bit values.
constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single 64-bit seed using the
  /// splitmix64 expansion recommended by the xoshiro authors.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    for (auto& word : state_) {
      word = splitmix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t bounded(std::uint64_t bound) {
    if (bound == 0) return 0;
    const __uint128_t product =
        static_cast<__uint128_t>((*this)()) * static_cast<__uint128_t>(bound);
    return static_cast<std::uint64_t>(product >> 64);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace hspmv::util
