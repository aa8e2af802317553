// Deterministic, seedable random number generation (xoshiro256++), plus the
// distribution helpers the latency models need. std::mt19937 + <random>
// distributions are not bit-stable across standard libraries; xoshiro with
// hand-rolled distributions keeps every "measurement" reproducible.
#pragma once

#include <cstdint>

namespace nvmeshare {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound must be nonzero. Unbiased (rejection).
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Standard normal via Box-Muller (no cached spare: deterministic stream).
  double normal() noexcept;

  /// Lognormal sample with given median and sigma (of underlying normal).
  /// Used for software-path jitter, which is right-skewed in practice.
  double lognormal(double median, double sigma) noexcept;

  /// Bernoulli with probability p.
  bool chance(double p) noexcept;

  /// Split off an independent stream (for per-actor determinism regardless
  /// of event interleaving).
  Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace nvmeshare
