// Fixed-point token bucket: the one pacer behind block::IoEngine's QoS
// limits and mux::QpMultiplexer's per-tenant budgets.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace nvmeshare {

/// SPDK-style token bucket in integer fixed point: one token is worth
/// kScale scaled units, so a rate of R tokens/second earns exactly R scaled
/// units per simulated nanosecond, with no drift. Charging first and
/// sleeping off a negative balance serialises concurrent submitters
/// deterministically: each charger sees the deficit left by the previous
/// one and queues behind it.
struct TokenBucket {
  static constexpr std::int64_t kScale = 1'000'000'000;

  std::uint64_t rate = 0;     ///< tokens per second; 0 = disarmed
  std::int64_t scaled = 0;    ///< balance x kScale (may go negative)
  std::int64_t capacity = 0;  ///< burst ceiling x kScale
  sim::Time last = 0;         ///< last refill timestamp

  /// Set the rate and burst at time `now`. The bucket starts full: the
  /// burst allowance is available up front.
  void arm(std::uint64_t tokens_per_s, std::uint64_t burst, sim::Time now) {
    rate = tokens_per_s;
    capacity = static_cast<std::int64_t>(burst) * kScale;
    scaled = capacity;
    last = now;
  }

  void refill(sim::Time now) {
    const sim::Duration elapsed = now - last;
    last = now;
    if (rate == 0 || elapsed <= 0) return;
    const auto r = static_cast<std::int64_t>(rate);
    // Time to climb from the current balance (which may be a deficit) back
    // to a full bucket, rounded *up*: a floor would credit a fraction of a
    // token early and forgive any outstanding deficit, so a sustained stream
    // could admit slightly more than rate * t + burst. The clamp also keeps
    // `elapsed * r` inside 64 bits for arbitrarily long idle gaps.
    const std::int64_t deficit = capacity - scaled;
    if (elapsed >= (deficit + r - 1) / r) {
      scaled = capacity;
      return;
    }
    scaled += elapsed * r;
  }

  /// Charge `tokens` and return how long the caller must stall (ns): until
  /// the balance refills back to zero, rounded up so the caller never wakes
  /// a fraction of a token early.
  [[nodiscard]] sim::Duration charge(sim::Time now, std::uint64_t tokens) {
    if (rate == 0) return 0;
    refill(now);
    scaled -= static_cast<std::int64_t>(tokens) * kScale;
    if (scaled >= 0) return 0;
    const auto r = static_cast<std::int64_t>(rate);
    return (-scaled + r - 1) / r;
  }
};

}  // namespace nvmeshare
