// Poll timers (sim::PollTimer / sim::poll_tick): a poller that waits on a
// tick must behave exactly like the same poller waiting on delay(), while
// the engine skips the rounds nobody notified.
//
// The property tests build seeded random event soups with several pollers
// and run each twice, once per wait primitive. Both runs must produce the
// same trace of real callbacks (with now()), the same round counts, and the
// same now(), pending_events() and total round count at every run_until()
// slice boundary. The crowded soups put up to 160 pollers in one period's
// lane, as the 31-host tenants workload does, so quiet gaps rotate whole
// lanes at once; the sticky soups keep a notified tick in that lane, so the
// engine elides its other heads one by one in a batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
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
  /// (slice target, now, pending_events, total rounds) after each run_until().
  using Boundary = std::tuple<Time, Time, std::size_t, std::uint64_t>;

  struct Poller {
    std::int64_t id = 0;
    Duration period = 0;
    Time start = 0;
    std::int64_t work = 0;  ///< what the next round reads
    bool stop = false;
    bool switches = false;  ///< cycles through kSwitchPeriods after each busy round
    std::uint64_t sticky = 0;  ///< busy rounds left that re-notify their own timer
    std::uint64_t rounds = 0;
    PollTimer* timer = nullptr;
  };

  /// Periods a switching poller cycles through; 250 ns belongs to no other
  /// poller, so it has a lane of its own.
  static constexpr Duration kSwitchPeriods[] = {150, 100, 2000, 250};

  Soup(Wait wait, std::uint64_t seed) : wait_(wait), rng_(seed) {}

  /// Make every event placed on a poller's tick poke that very poller, so
  /// the order of the tie decides the trace even in a crowd.
  void aim_ties() { aim_ties_ = true; }

  /// Slices of at most `max_ns`, so most run_until() limits land among the
  /// ticks of a crowded lane.
  void short_slices(std::uint64_t max_ns) { max_slice_ = max_ns; }

  /// With `sticky` != 0 the poller starts busy and stays busy for that many
  /// rounds; events later restart its stretch.
  void add_poller(Duration period, Time start, bool switches = false, std::uint64_t sticky = 0) {
    pollers_.push_back(std::make_unique<Poller>());
    Poller& p = *pollers_.back();
    p.id = static_cast<std::int64_t>(pollers_.size() - 1);
    p.period = period;
    p.start = start;
    p.switches = switches;
    p.sticky = sticky;
    if (sticky != 0) {
      p.work = 1;
      stickies_.push_back(&p);
    }
    if (switches) switcher_ = &p;
    engine_.at(start, [this, &p] { poller(p); });
  }

  /// Run the soup in random run_until() slices up to `horizon`, then stop
  /// every poller and drain. Fewer `chains` of self-extending events leave
  /// longer quiet gaps between them.
  void run(Time horizon, int budget, int chains) {
    budget_ = budget;
    for (int i = 0; i < chains; ++i) schedule(uniform(0, 20'000));
    Time t = 0;
    while (t < horizon) {
      // Zero-length slices and slices ending on, or just before, a tick.
      const std::uint64_t kind = uniform(0, 9);
      if (kind == 0) {
        // stay at t
      } else if (kind <= 2 && !pollers_.empty()) {
        t = next_grid(*pollers_[uniform(0, pollers_.size() - 1)], t + 2) - (kind == 2 ? 1 : 0);
      } else {
        t += static_cast<Time>(uniform(1, max_slice_));
      }
      engine_.run_until(t);
      boundaries_.emplace_back(t, engine_.now(), engine_.pending_events(), total_rounds());
      // Between slices, code outside the engine may change what a round reads.
      if (!pollers_.empty() && uniform(0, 3) == 0) {
        poke(pick(), 1);
      }
    }
    for (auto& p : pollers_) halt(*p);
    engine_.run_until(horizon + 10'000'000);
    boundaries_.emplace_back(horizon, engine_.now(), engine_.pending_events(), total_rounds());
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
  [[nodiscard]] std::uint64_t total_rounds() const {
    std::uint64_t n = 0;
    for (const auto& p : pollers_) n += p->rounds;
    return n;
  }

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
        if (p.switches) {
          // Only a round that runs may change the period, in both runs alike.
          std::size_t i = 0;
          while (kSwitchPeriods[i] != p.period) ++i;
          p.period = kSwitchPeriods[(i + 1) % std::size(kSwitchPeriods)];
        }
        if (p.sticky != 0) {
          // Busy again next round: the tick stays notified round after round.
          --p.sticky;
          poke(p, 1);
        }
      }
      ++p.rounds;
      if (wait_ == Wait::delay) {
        co_await delay(engine_, p.period);
      } else {
        co_await poll_tick(engine_, timer, p.period);
      }
    }
  }

  /// A poller to poke: any one, but the switching poller a quarter of the
  /// time, so it changes lanes often even in a crowd.
  Poller& pick() {
    if (switcher_ != nullptr && uniform(0, 3) == 0) return *switcher_;
    return *pollers_[uniform(0, pollers_.size() - 1)];
  }

  void poke(Poller& p, std::int64_t amount) {
    p.work += amount;
    if (p.timer != nullptr) p.timer->notify();
  }

  void halt(Poller& p) {
    p.stop = true;
    if (p.timer != nullptr) p.timer->notify();
  }

  /// The first tick of `p` at or after `t` (a guess once `p` switched).
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
      if (uniform(0, 2) == 0) poke(pick(), 1);
    });
  }

  /// An event at `t`; it pokes `aim` first when given.
  void schedule_at(Time t, Poller* aim) {
    if (budget_ <= 0) return;
    --budget_;
    const std::int64_t id = -(++next_id_);
    engine_.at(t, [this, id, aim] { fire(id, aim); });
  }

  void fire(std::int64_t id, Poller* aim = nullptr) {
    trace_.emplace_back(engine_.now(), id, 0);
    if (aim != nullptr) poke(*aim, 1);
    if (!pollers_.empty() && uniform(0, 1) == 0) {
      poke(pick(), static_cast<std::int64_t>(uniform(1, 9)));
    }
    switch (uniform(0, 9)) {
      case 0:  // same timestamp, after everything already queued there
        schedule(0);
        break;
      case 1:
      case 2:  // exactly on a poller's tick: the poke must reach that very tick
        if (!pollers_.empty()) {
          Poller& p = *pollers_[uniform(0, pollers_.size() - 1)];
          schedule_at(next_grid(p, engine_.now()), aim_ties_ ? &p : nullptr);
        }
        break;
      case 3:  // past the 262 us wheel window
        schedule(uniform(300'000, 1'500'000));
        break;
      case 4:
        schedule(uniform(1, 300));
        schedule(uniform(1, 5'000));
        break;
      case 5:  // on a tick one to three rounds ahead: the event takes the
               // older seq, so it runs before that tick
        if (!pollers_.empty()) {
          Poller& p = *pollers_[uniform(0, pollers_.size() - 1)];
          const Time ahead = engine_.now() + static_cast<Time>(uniform(1, 3)) * p.period;
          schedule_at(next_grid(p, ahead), aim_ties_ ? &p : nullptr);
        }
        break;
      default:
        schedule(uniform(1, 3'000));
        break;
    }
    if (!stickies_.empty() && uniform(0, 15) == 0) {
      // Restart a busy stretch.
      Poller& p = *stickies_[uniform(0, stickies_.size() - 1)];
      p.sticky = uniform(20, 400);
      poke(p, 1);
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
  Poller* switcher_ = nullptr;
  std::vector<Poller*> stickies_;
  bool aim_ties_ = false;
  std::uint64_t max_slice_ = 40'000;
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

/// The crowded regime: 64-160 pollers share 150 ns at random phases, a
/// few poll at 100 ns (sometimes none) and 2000 ns, and one switches its
/// period after every busy round, moving between lanes.
void build_crowded(Soup& soup, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xc20dULL);
  soup.aim_ties();
  const int crowd = 64 + static_cast<int>(rng() % 97);
  for (int i = 0; i < crowd; ++i) soup.add_poller(150, static_cast<Time>(rng() % 3000));
  const int fast = static_cast<int>(rng() % 3);
  for (int i = 0; i < fast; ++i) soup.add_poller(100, static_cast<Time>(rng() % 3000));
  const int slow = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < slow; ++i) soup.add_poller(2000, static_cast<Time>(rng() % 3000));
  soup.add_poller(150, static_cast<Time>(rng() % 3000), /*switches=*/true);
}

/// The tenants regime: 64-160 pollers share 150 ns at random phases, and
/// two to five of them stay busy for long stretches, so the lane always
/// holds a notified tick and never rotates whole. A few pollers at 100 ns
/// and 2000 ns put other lane heads inside the quiet runs of the crowd.
/// Short slices end most run_until() calls inside such a run.
void build_sticky(Soup& soup, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x571cULL);
  soup.aim_ties();
  soup.short_slices(1'200);
  const int crowd = 64 + static_cast<int>(rng() % 97);
  const int busy = 2 + static_cast<int>(rng() % 4);
  for (int i = 0; i < crowd; ++i) {
    const std::uint64_t sticky = i < busy ? 200 + rng() % 800 : 0;
    soup.add_poller(150, static_cast<Time>(rng() % 3000), false, sticky);
  }
  const int fast = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < fast; ++i) soup.add_poller(100, static_cast<Time>(rng() % 3000));
  soup.add_poller(2000, static_cast<Time>(rng() % 3000));
}

/// Run one soup with delay() and with poll_tick(); returns the ticks elided.
template <typename Build>
std::uint64_t expect_tick_matches_delay(Build build_soup, std::uint64_t seed, Time horizon,
                                        int budget, int chains) {
  Soup by_delay(Wait::delay, seed);
  Soup by_tick(Wait::tick, seed);
  build_soup(by_delay, seed);
  build_soup(by_tick, seed);
  by_delay.run(horizon, budget, chains);
  by_tick.run(horizon, budget, chains);

  EXPECT_EQ(by_delay.trace(), by_tick.trace()) << "seed " << seed;
  EXPECT_EQ(by_delay.rounds(), by_tick.rounds()) << "seed " << seed;
  EXPECT_EQ(by_delay.boundaries(), by_tick.boundaries()) << "seed " << seed;
  EXPECT_EQ(by_delay.engine().ticks_elided(), 0u);
  // Every elided tick is a delay event the tick run did not dispatch.
  EXPECT_EQ(by_tick.engine().events_processed() + by_tick.engine().ticks_elided(),
            by_delay.engine().events_processed())
      << "seed " << seed;
  return by_tick.engine().ticks_elided();
}

TEST(PollTimerProperty, MatchesDelayOnRandomEventSoups) {
  std::uint64_t elided = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    elided += expect_tick_matches_delay(&build, seed, 3'000'000, 3000, 12);
    if (HasFailure()) return;
  }
  EXPECT_GT(elided, 0u);  // the property is not vacuous
}

TEST(PollTimerProperty, MatchesDelayWithCrowdedLanes) {
  std::uint64_t elided = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    // Few event chains: long quiet gaps between dense bursts.
    elided += expect_tick_matches_delay(&build_crowded, seed, 400'000, 800, 3);
    if (HasFailure()) return;
  }
  EXPECT_GT(elided, 0u);
}

TEST(PollTimerProperty, MatchesDelayWithStickyNotifiedTimers) {
  std::uint64_t elided = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    elided += expect_tick_matches_delay(&build_sticky, seed, 120'000, 600, 3);
    if (HasFailure()) return;
  }
  EXPECT_GT(elided, 0u);
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

// run_until(max) with nothing else pending: the lone timer's ticks are
// elided up to the last one whose next tick still fits in Time, and the run
// returns (it used to spin on a tick it could not move).
TEST(PollTimer, RunUntilEndOfTimeWithALoneTimerReturns) {
  constexpr Time kEnd = std::numeric_limits<Time>::max();
  Engine e;
  std::uint64_t rounds = 0;
  bool stop = false;
  PollTimer timer(e, &count_rounds, &rounds);
  idle_poller(e, timer, rounds, stop);  // round at 0, ticks every 150 ns
  EXPECT_EQ(e.run_until(kEnd), 0u);
  // Rounds at 0, 150, ..., 150 (n - 1) for n = kEnd / 150. The tick at
  // 150 n is the last that fits in Time, so it stays parked.
  EXPECT_EQ(rounds, static_cast<std::uint64_t>(kEnd / 150));
  EXPECT_EQ(e.ticks_elided(), static_cast<std::uint64_t>(kEnd / 150) - 1);
  EXPECT_EQ(e.pending_events(), 1u);
  EXPECT_TRUE(timer.waiting());
  EXPECT_EQ(e.run_until(kEnd), 0u);  // a second call finds nothing to do
  EXPECT_EQ(rounds, static_cast<std::uint64_t>(kEnd / 150));
  stop = true;
  timer.notify();
  e.run();
  EXPECT_FALSE(timer.waiting());
  EXPECT_EQ(e.pending_events(), 0u);
}

Task clock_poller(Engine& e, PollTimer& timer, std::vector<Time>& clock, bool& stop) {
  for (;;) {
    clock.push_back(e.now());
    if (stop) co_return;
    co_await poll_tick(e, timer, 150);
  }
}

// The tick parked before the end of time is due at 150 n, so run_until(max)
// stops the clock there: notify() then runs that round at the time now()
// already shows, never earlier.
TEST(PollTimer, RunUntilEndOfTimeNeverMovesTimeBackwards) {
  constexpr Time kEnd = std::numeric_limits<Time>::max();
  Engine e;
  std::vector<Time> clock;
  bool stop = false;
  PollTimer timer(e);
  clock_poller(e, timer, clock, stop);
  e.run_until(kEnd);
  clock.push_back(e.now());
  stop = true;
  timer.notify();
  clock.push_back(e.now());
  e.run();
  clock.push_back(e.now());
  EXPECT_EQ(clock.back(), kEnd / 150 * 150);
  EXPECT_TRUE(std::is_sorted(clock.begin(), clock.end())) << testing::PrintToString(clock);
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

// --- the report contract ------------------------------------------------------

/// A hook's owner; it lives on the heap so a test can free it mid-run.
struct Owner {
  std::uint64_t rounds = 0;
};

/// Owners freed so far in the current Crowd: the hook must never reach one.
std::vector<const void*> g_freed;

void owner_rounds(void* owner, std::uint64_t n) {
  if (std::find(g_freed.begin(), g_freed.end(), owner) != g_freed.end()) {
    ADD_FAILURE() << "round hook called on a freed owner";
    return;
  }
  static_cast<Owner*>(owner)->rounds += n;
}

/// Six pollers in one 150 ns lane, each counting rounds in a heap owner.
/// The last one re-notifies itself while it has busy rounds left, so the
/// lane holds a notified tick and the engine elides the others one by one.
class Crowd {
 public:
  static constexpr Time kPhases[] = {0, 20, 45, 70, 100, 130};
  static constexpr std::size_t kBusy = std::size(kPhases) - 1;

  Crowd(Wait wait, std::uint64_t busy_rounds) : wait_(wait), busy_left_(busy_rounds) {
    g_freed.clear();
    for (std::size_t i = 0; i < std::size(kPhases); ++i) {
      owners_.push_back(new Owner);
      stops_.push_back(std::make_shared<bool>(false));
      timers_.push_back(nullptr);
      engine_.at(kPhases[i], [this, i] { poller(i); });
    }
  }
  ~Crowd() {
    for (Owner* owner : owners_) delete owner;
  }
  Crowd(const Crowd&) = delete;
  Crowd& operator=(const Crowd&) = delete;

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] bool alive(std::size_t i) const { return owners_[i] != nullptr; }
  [[nodiscard]] std::uint64_t rounds(std::size_t i) const { return owners_[i]->rounds; }
  void notify(std::size_t i) { timers_[i]->notify(); }

  /// Stop poller `i` the way a component's destructor does: notify on the
  /// way out, then free the owner.
  std::uint64_t halt_and_free(std::size_t i) {
    *stops_[i] = true;
    notify(i);
    const std::uint64_t rounds = owners_[i]->rounds;
    g_freed.push_back(owners_[i]);
    delete owners_[i];
    owners_[i] = nullptr;
    return rounds;
  }

  /// Stop every poller and let each run its last round.
  void finish() {
    busy_left_ = 0;
    for (std::size_t i = 0; i < owners_.size(); ++i) {
      *stops_[i] = true;
      if (timers_[i] != nullptr) notify(i);
    }
    engine_.run();
    EXPECT_EQ(engine_.pending_events(), 0u);
  }

 private:
  Task poller(std::size_t i) {
    const std::shared_ptr<bool> stop = stops_[i];
    Owner* owner = owners_[i];
    PollTimer timer(engine_, &owner_rounds, owner);
    timers_[i] = &timer;
    for (;;) {
      if (*stop) {
        timers_[i] = nullptr;
        co_return;
      }
      ++owner->rounds;
      if (i == kBusy && busy_left_ != 0) {
        --busy_left_;
        timer.notify();
      }
      if (wait_ == Wait::delay) {
        co_await delay(engine_, 150);
      } else {
        co_await poll_tick(engine_, timer, 150);
      }
    }
  }

  Engine engine_;
  Wait wait_;
  std::uint64_t busy_left_;
  std::vector<Owner*> owners_;
  std::vector<std::shared_ptr<bool>> stops_;
  std::vector<PollTimer*> timers_;
};

/// Rounds of the poller an event notifies, read right after notify().
std::vector<std::uint64_t> rounds_after_notify(Wait wait) {
  Crowd crowd(wait, 1'000);
  std::vector<std::uint64_t> seen;
  for (std::size_t k = 1; k <= 60; ++k) {
    const std::size_t i = k % Crowd::kBusy;  // a quiet poller
    crowd.engine().at(static_cast<Time>(1'000 + 977 * k), [&crowd, &seen, i, k] {
      if (!crowd.alive(i)) return;
      if (k == 23 || k == 41) {
        seen.push_back(crowd.halt_and_free(i));
        return;
      }
      crowd.notify(i);
      seen.push_back(crowd.rounds(i));
    });
  }
  crowd.engine().run_until(70'000);
  if (wait == Wait::tick) {
    EXPECT_GT(crowd.engine().ticks_elided(), 0u);
  }
  crowd.finish();
  return seen;
}

TEST(PollTimer, NotifyHandsOverSkippedRoundsFirst) {
  const std::vector<std::uint64_t> by_delay = rounds_after_notify(Wait::delay);
  const std::vector<std::uint64_t> by_tick = rounds_after_notify(Wait::tick);
  EXPECT_EQ(by_delay.size(), 50u);  // ten events come after their poller was freed
  EXPECT_EQ(by_delay, by_tick);
}

/// now() and every poller's rounds after each return of run_until().
std::vector<std::uint64_t> rounds_per_slice(Wait wait) {
  Crowd crowd(wait, 40);
  Engine& e = crowd.engine();
  std::vector<std::uint64_t> out;
  const auto record = [&] {
    out.push_back(static_cast<std::uint64_t>(e.now()));
    for (std::size_t i = 0; i < std::size(Crowd::kPhases); ++i) out.push_back(crowd.rounds(i));
  };
  // Zero-length slices and slices ending on, before and between ticks, while
  // the busy poller keeps the lane from rotating whole and after it stops.
  for (const Time t : {0, 149, 150, 151, 1'000, 1'000, 4'321, 6'020, 9'999, 10'020}) {
    e.run_until(t);
    record();
  }
  // A callback stops the engine mid-slice.
  e.at(12'345, [&e] { e.stop(); });
  e.run_until(50'000);
  EXPECT_EQ(e.now(), 12'345);
  record();
  e.run_until(20'000);
  record();
  crowd.finish();
  return out;
}

TEST(PollTimer, RoundsExactWhenRunUntilReturns) {
  EXPECT_EQ(rounds_per_slice(Wait::delay), rounds_per_slice(Wait::tick));

  // run() returns once only unnotified timers remain, with every round
  // reported: a poller starting at `phase` ran at phase, phase + 150, ...
  Crowd crowd(Wait::tick, 20);
  crowd.engine().at(7'777, [] {});
  crowd.engine().run();
  EXPECT_EQ(crowd.engine().now(), 7'777);
  for (std::size_t i = 0; i < std::size(Crowd::kPhases); ++i) {
    EXPECT_EQ(crowd.rounds(i), 1 + static_cast<std::uint64_t>(7'777 - Crowd::kPhases[i]) / 150)
        << "poller " << i;
  }
  crowd.finish();
}

}  // namespace
}  // namespace nvmeshare::sim
