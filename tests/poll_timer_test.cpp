// Poll timers (sim::PollTimer / sim::poll_tick): a poller that waits on a
// tick must behave exactly like the same poller waiting on delay(), while
// the engine skips the rounds nobody notified.
//
// The property test builds seeded random event soups with several pollers
// and runs each twice, once per wait primitive. Both runs must produce the
// same trace of real callbacks (with now()), the same round counts, and the
// same now() and pending_events() at every run_until() slice boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace nvmeshare::sim {
namespace {

void count_rounds(void* rounds, std::uint64_t n) { *static_cast<std::uint64_t*>(rounds) += n; }

enum class Wait { delay, tick };

/// One simulation: pollers plus a self-extending soup of random events.
class Soup {
 public:
  /// (now, who, what): who < 0 is an event id, who >= 0 a poller round.
  using Entry = std::tuple<Time, std::int64_t, std::int64_t>;
  /// (slice target, now, pending_events) after each run_until().
  using Boundary = std::tuple<Time, Time, std::size_t>;

  struct Poller {
    std::int64_t id = 0;
    Duration period = 0;
    Time start = 0;
    std::int64_t work = 0;  ///< what the next round reads
    bool stop = false;
    std::uint64_t rounds = 0;
    PollTimer* timer = nullptr;
  };

  Soup(Wait wait, std::uint64_t seed) : wait_(wait), rng_(seed) {}

  void add_poller(Duration period, Time start) {
    pollers_.push_back(std::make_unique<Poller>());
    Poller& p = *pollers_.back();
    p.id = static_cast<std::int64_t>(pollers_.size() - 1);
    p.period = period;
    p.start = start;
    engine_.at(start, [this, &p] { poller(p); });
  }

  /// Run the soup in random run_until() slices up to `horizon`, then stop
  /// every poller and drain.
  void run(Time horizon, int budget) {
    budget_ = budget;
    for (int i = 0; i < 12; ++i) schedule(uniform(0, 20'000));
    Time t = 0;
    while (t < horizon) {
      // Zero-length slices and slices ending on, or just before, a tick.
      const std::uint64_t kind = uniform(0, 9);
      if (kind == 0) {
        // stay at t
      } else if (kind <= 2 && !pollers_.empty()) {
        t = next_grid(*pollers_[uniform(0, pollers_.size() - 1)], t + 2) - (kind == 2 ? 1 : 0);
      } else {
        t += static_cast<Time>(uniform(1, 40'000));
      }
      engine_.run_until(t);
      boundaries_.emplace_back(t, engine_.now(), engine_.pending_events());
      // Between slices, code outside the engine may change what a round reads.
      if (!pollers_.empty() && uniform(0, 3) == 0) {
        poke(*pollers_[uniform(0, pollers_.size() - 1)], 1);
      }
    }
    for (auto& p : pollers_) halt(*p);
    engine_.run_until(horizon + 10'000'000);
    boundaries_.emplace_back(horizon, engine_.now(), engine_.pending_events());
  }

  [[nodiscard]] const std::vector<Entry>& trace() const { return trace_; }
  [[nodiscard]] const std::vector<Boundary>& boundaries() const { return boundaries_; }
  [[nodiscard]] std::vector<std::uint64_t> rounds() const {
    std::vector<std::uint64_t> out;
    for (const auto& p : pollers_) out.push_back(p->rounds);
    return out;
  }
  [[nodiscard]] Engine& engine() { return engine_; }

 private:
  Task poller(Poller& p) {
    PollTimer timer(engine_, &count_rounds, &p.rounds);
    p.timer = &timer;
    for (;;) {
      if (p.stop) {
        p.timer = nullptr;
        co_return;
      }
      if (p.work != 0) {
        // A non-empty round: record it and schedule follow-up work. Its
        // events land wherever the wheel stands, also while the wheel is
        // otherwise empty and only far events wait in the overflow list.
        trace_.emplace_back(engine_.now(), p.id, p.work);
        p.work = 0;
        const auto n = static_cast<int>(uniform(0, 2));
        for (int i = 0; i < n; ++i) follow_up(uniform(0, 600));
      }
      ++p.rounds;
      if (wait_ == Wait::delay) {
        co_await delay(engine_, p.period);
      } else {
        co_await poll_tick(engine_, timer, p.period);
      }
    }
  }

  void poke(Poller& p, std::int64_t amount) {
    p.work += amount;
    if (p.timer != nullptr) p.timer->notify();
  }

  void halt(Poller& p) {
    p.stop = true;
    if (p.timer != nullptr) p.timer->notify();
  }

  /// The first tick of `p` at or after `t`.
  [[nodiscard]] static Time next_grid(const Poller& p, Time t) {
    if (t <= p.start) return p.start;
    return p.start + (t - p.start + p.period - 1) / p.period * p.period;
  }

  void schedule(std::uint64_t delay_ns) {
    if (budget_ <= 0) return;
    --budget_;
    const std::int64_t id = -(++next_id_);
    engine_.after(static_cast<Duration>(delay_ns), [this, id] { fire(id); });
  }

  /// Unbudgeted: pokes at most one poller and spawns nothing itself.
  void follow_up(std::uint64_t delay_ns) {
    const std::int64_t id = -(++next_id_);
    engine_.after(static_cast<Duration>(delay_ns), [this, id] {
      trace_.emplace_back(engine_.now(), id, 1);
      if (uniform(0, 2) == 0) poke(*pollers_[uniform(0, pollers_.size() - 1)], 1);
    });
  }

  void schedule_at(Time t) {
    if (budget_ <= 0) return;
    --budget_;
    const std::int64_t id = -(++next_id_);
    engine_.at(t, [this, id] { fire(id); });
  }

  void fire(std::int64_t id) {
    trace_.emplace_back(engine_.now(), id, 0);
    if (!pollers_.empty() && uniform(0, 1) == 0) {
      poke(*pollers_[uniform(0, pollers_.size() - 1)], static_cast<std::int64_t>(uniform(1, 9)));
    }
    switch (uniform(0, 9)) {
      case 0:  // same timestamp, after everything already queued there
        schedule(0);
        break;
      case 1:
      case 2:  // exactly on a poller's tick: the poke must reach that very tick
        if (!pollers_.empty()) {
          schedule_at(next_grid(*pollers_[uniform(0, pollers_.size() - 1)], engine_.now()));
        }
        break;
      case 3:  // past the 262 us wheel window
        schedule(uniform(300'000, 1'500'000));
        break;
      case 4:
        schedule(uniform(1, 300));
        schedule(uniform(1, 5'000));
        break;
      default:
        schedule(uniform(1, 3'000));
        break;
    }
    if (uniform(0, 24) == 0) engine_.stop();  // mid-timestamp stop
    if (!pollers_.empty() && uniform(0, 400) == 0) halt(*pollers_[uniform(0, pollers_.size() - 1)]);
  }

  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng_);
  }

  Engine engine_;
  Wait wait_;
  std::mt19937_64 rng_;
  std::vector<std::unique_ptr<Poller>> pollers_;
  std::vector<Entry> trace_;
  std::vector<Boundary> boundaries_;
  std::int64_t next_id_ = 0;
  int budget_ = 0;
};

void build(Soup& soup, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  // The paper's cadences (client CQ, target reactor, manager mailbox),
  // with some pollers sharing a phase.
  const Duration periods[] = {100, 150, 2000};
  const int n = 1 + static_cast<int>(rng() % 5);
  Time shared = static_cast<Time>(rng() % 1000);
  for (int i = 0; i < n; ++i) {
    const Duration period = periods[rng() % 3];
    const Time start = (rng() % 2 == 0) ? shared : static_cast<Time>(rng() % 5000);
    soup.add_poller(period, start);
  }
}

TEST(PollTimerProperty, MatchesDelayOnRandomEventSoups) {
  std::uint64_t elided = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Soup by_delay(Wait::delay, seed);
    Soup by_tick(Wait::tick, seed);
    build(by_delay, seed);
    build(by_tick, seed);
    by_delay.run(3'000'000, 3000);
    by_tick.run(3'000'000, 3000);

    ASSERT_EQ(by_delay.trace(), by_tick.trace()) << "seed " << seed;
    ASSERT_EQ(by_delay.rounds(), by_tick.rounds()) << "seed " << seed;
    ASSERT_EQ(by_delay.boundaries(), by_tick.boundaries()) << "seed " << seed;
    EXPECT_EQ(by_delay.engine().ticks_elided(), 0u);
    // Every elided tick is a delay event the tick run did not dispatch.
    EXPECT_EQ(by_tick.engine().events_processed() + by_tick.engine().ticks_elided(),
              by_delay.engine().events_processed())
        << "seed " << seed;
    elided += by_tick.engine().ticks_elided();
  }
  EXPECT_GT(elided, 0u);  // the property is not vacuous
}

Task idle_poller(Engine& e, PollTimer& timer, std::uint64_t& rounds, bool& stop) {
  for (;;) {
    if (stop) co_return;
    ++rounds;
    co_await poll_tick(e, timer, 150);
  }
}

TEST(PollTimer, RunReturnsWhenOnlyUnnotifiedTimersRemain) {
  Engine e;
  std::uint64_t rounds = 0;
  bool stop = false;
  PollTimer timer(e, &count_rounds, &rounds);
  idle_poller(e, timer, rounds, stop);
  bool ran = false;
  e.at(1000, [&] { ran = true; });
  e.run();  // with delay() this never returns
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), 1000);
  EXPECT_EQ(e.pending_events(), 1u);  // the parked tick
  EXPECT_EQ(rounds, 1u + 1000 / 150);  // the first round, then ticks at 150..900
  EXPECT_EQ(e.events_processed(), 1u);

  // A notify makes the next tick real; the stopped poller then exits.
  stop = true;
  timer.notify();
  e.run();
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_EQ(e.now(), 1050);
  EXPECT_EQ(rounds, 1u + 1000 / 150);
}

TEST(PollTimer, RunUntilElidesTicksUpToTheLimit) {
  Engine e;
  std::uint64_t rounds = 0;
  bool stop = false;
  PollTimer timer(e, &count_rounds, &rounds);
  idle_poller(e, timer, rounds, stop);
  EXPECT_EQ(e.run_until(1'000'000), 0u);  // nothing real to dispatch
  EXPECT_EQ(rounds, 1u + 1'000'000 / 150);
  EXPECT_EQ(e.ticks_elided(), 1'000'000u / 150);
  EXPECT_EQ(e.now(), 1'000'000);
  EXPECT_TRUE(timer.waiting());
  stop = true;
  timer.notify();
  e.run();
  EXPECT_FALSE(timer.waiting());
}

TEST(PollTimer, TickJustPastTheSliceStaysPending) {
  Engine e;
  std::uint64_t rounds = 0;
  bool stop = false;
  PollTimer timer(e, &count_rounds, &rounds);
  idle_poller(e, timer, rounds, stop);  // round at 0, ticks every 150 ns
  e.run_until(299);
  EXPECT_EQ(rounds, 2u);  // the tick at 150 was elided, the one at 300 waits
  timer.notify();         // a change made between slices
  e.run_until(300);
  EXPECT_EQ(e.events_processed(), 1u);  // the tick at 300 ran the round
  EXPECT_EQ(rounds, 3u);
  stop = true;
  timer.notify();
  e.run();
  EXPECT_EQ(e.now(), 450);
}

}  // namespace
}  // namespace nvmeshare::sim
