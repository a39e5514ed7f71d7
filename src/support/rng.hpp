// Deterministic random number generation for workload generators and tests.
//
// All randomness in the library flows through SplitMix64 so that every
// experiment is reproducible from a single seed, independent of the standard
// library's distribution implementations.
#pragma once

#include <cstdint>

namespace hmpi::support {

/// SplitMix64: tiny, fast, high-quality 64-bit PRNG with trivially
/// serialisable state. Used instead of std::mt19937 so that generated
/// workloads are identical across standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Skips `n` draws in O(1): leaves the stream where `n` calls of next()
  /// would (each draw adds kGamma to the state, modulo 2^64).
  void discard(std::uint64_t n) noexcept { state_ += n * kGamma; }

  /// Uniform integer in [0, bound). `bound` must be positive.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Multiply-shift rejection-free mapping (slight bias negligible for
    // workload generation purposes).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double_in(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Derives an independent child stream (for per-process generators).
  Rng split() noexcept { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

 private:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  std::uint64_t state_;
};

}  // namespace hmpi::support
