#include "common/rng.hpp"

#include <cmath>

namespace nvmeshare {

namespace {
// splitmix64: seeds the xoshiro state from a single 64-bit seed.
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() noexcept {
  // xoshiro256++
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  // Lemire-style rejection for unbiased bounded values.
  std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::normal() noexcept {
  // Box-Muller; discard the second variate so each call consumes a fixed
  // amount of the stream (keeps per-call determinism simple).
  double u1 = uniform01();
  double u2 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.14159265358979323846 * u2);
}

double Rng::lognormal(double median, double sigma) noexcept {
  return median * std::exp(sigma * normal());
}

bool Rng::chance(double p) noexcept { return uniform01() < p; }

Rng Rng::fork() noexcept { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace nvmeshare
