// Unit tests for the discrete-event engine and coroutine primitives.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <queue>
#include <random>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace nvmeshare::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, RunsEventsInTimestampOrder) {
  Engine e;
  std::vector<int> order;
  e.at(30, [&] { order.push_back(3); });
  e.at(10, [&] { order.push_back(1); });
  e.at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, EqualTimestampsAreFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    e.at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, RunUntilAdvancesClockEvenWhenQueueDrains) {
  Engine e;
  e.at(10, [] {});
  e.run_until(100);
  EXPECT_EQ(e.now(), 100);
}

TEST(Engine, RunUntilDoesNotRunLaterEvents) {
  Engine e;
  bool late = false;
  e.at(200, [&] { late = true; });
  e.run_until(100);
  EXPECT_FALSE(late);
  EXPECT_EQ(e.pending_events(), 1u);
  e.run_until(200);
  EXPECT_TRUE(late);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 5) e.after(10, chain);
  };
  e.after(10, chain);
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 50);
}

TEST(Engine, StopHaltsProcessing) {
  Engine e;
  int count = 0;
  e.at(1, [&] { ++count; });
  e.at(2, [&] {
    ++count;
    e.stop();
  });
  e.at(3, [&] { ++count; });
  e.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Delay, SuspendsForExactDuration) {
  Engine e;
  Time resumed_at = -1;
  [](Engine& eng, Time& out) -> Task {
    co_await delay(eng, 123);
    out = eng.now();
  }(e, resumed_at);
  e.run();
  EXPECT_EQ(resumed_at, 123);
}

TEST(Delay, ZeroDelayDoesNotSuspend) {
  Engine e;
  bool ran = false;
  [](Engine& eng, bool& out) -> Task {
    co_await delay(eng, 0);
    out = true;
  }(e, ran);
  EXPECT_TRUE(ran);  // ran eagerly, before e.run()
}

TEST(FuturePromise, DeliversValue) {
  Engine e;
  Promise<int> p(e);
  int got = 0;
  [](Engine&, Promise<int> promise, int& out) -> Task {
    out = co_await promise.future();
  }(e, p, got);
  EXPECT_EQ(got, 0);
  p.set(42);
  e.run();
  EXPECT_EQ(got, 42);
}

TEST(FuturePromise, ValueBeforeAwaitIsImmediate) {
  Engine e;
  Promise<int> p(e);
  p.set(7);
  EXPECT_TRUE(p.future().ready());
  int got = 0;
  [](Promise<int> promise, int& out) -> Task { out = co_await promise.future(); }(p, got);
  EXPECT_EQ(got, 7);
}

Co<int> add_one_after(Engine& eng, int a, Duration d) {
  co_await delay(eng, d);
  co_return a + 1;
}

Co<int> two_steps(Engine& eng) {
  const int x = co_await add_one_after(eng, 1, 10);
  co_return co_await add_one_after(eng, x, 5);
}

TEST(Co, StepsResumeTheirCallerInline) {
  Engine e;
  int got = 0;
  Time at = 0;
  [](Engine& eng, int& out, Time& when) -> Task {
    out = co_await two_steps(eng);
    when = eng.now();
  }(e, got, at);
  e.run();
  EXPECT_EQ(got, 3);
  EXPECT_EQ(at, 15);
  // Only the two delays: handing a value back to the caller queues nothing.
  EXPECT_EQ(e.events_processed(), 2u);
}

TEST(Co, StepThatNeverSuspendsFinishesBeforeTheCallerReturns) {
  Engine e;
  int got = 0;
  [](Engine& eng, int& out) -> Task { out = co_await add_one_after(eng, 41, 0); }(e, got);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(e.pending_events(), 0u);
}

// --- spawn -------------------------------------------------------------------

/// One producer of a spawn soup: it delays through `steps`, logging after
/// each, and yields `value`. Its consumer first waits `consumer_delay` (so
/// the value may be ready before it awaits) and logs what it got.
struct SoupJob {
  Time start = 0;
  std::vector<Duration> steps;
  Duration consumer_delay = 0;
  int value = 0;
};

struct SoupEntry {
  Time t;
  int who;
  char what;
  bool operator==(const SoupEntry&) const = default;
};
using SoupLog = std::vector<SoupEntry>;

/// The hand-built triad spawn replaces: wrapper, Task, Promise.
Task soup_task(Engine& eng, const SoupJob& job, SoupLog& log, Promise<int> promise) {
  for (const Duration d : job.steps) {
    co_await delay(eng, d);
    log.push_back({eng.now(), job.value, 'p'});
  }
  promise.set(job.value);
}

Future<int> soup_triad(Engine& eng, const SoupJob& job, SoupLog& log) {
  Promise<int> promise(eng);
  soup_task(eng, job, log, promise);
  return promise.future();
}

Co<int> soup_step(Engine& eng, const SoupJob& job, SoupLog& log) {
  for (const Duration d : job.steps) {
    co_await delay(eng, d);
    log.push_back({eng.now(), job.value, 'p'});
  }
  co_return job.value;
}

Task soup_consumer(Engine& eng, const SoupJob& job, SoupLog& log, bool use_spawn) {
  Future<int> f = use_spawn ? spawn(eng, soup_step(eng, job, log)) : soup_triad(eng, job, log);
  co_await delay(eng, job.consumer_delay);
  const int v = co_await f;
  log.push_back({eng.now(), v, 'c'});
}

/// Run the soup; returns the log and the number of events processed.
std::pair<SoupLog, std::uint64_t> run_soup(const std::vector<SoupJob>& jobs,
                                           const std::vector<Time>& noise, bool use_spawn) {
  Engine eng;
  SoupLog log;
  for (const SoupJob& job : jobs) {
    eng.at(job.start, [&eng, &job, &log, use_spawn] { soup_consumer(eng, job, log, use_spawn); });
  }
  for (std::size_t i = 0; i < noise.size(); ++i) {
    eng.at(noise[i], [&eng, &log, i] { log.push_back({eng.now(), static_cast<int>(i), 'n'}); });
  }
  eng.run();
  return {std::move(log), eng.events_processed()};
}

TEST(Spawn, MatchesAHandBuiltTaskAndPromiseOnEventSoups) {
  for (std::uint32_t seed = 1; seed <= 50; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&](int n) { return static_cast<Duration>(rng() % static_cast<unsigned>(n)); };
    std::vector<SoupJob> jobs(40);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SoupJob& job = jobs[i];
      job.start = pick(20);
      job.steps.resize(static_cast<std::size_t>(pick(4)));  // zero steps: never suspends
      for (Duration& d : job.steps) d = pick(3) * 5;      // zero delays included
      job.consumer_delay = pick(3) * 5;
      job.value = static_cast<int>(i);
    }
    std::vector<Time> noise(60);
    for (Time& t : noise) t = pick(40);
    const auto triad = run_soup(jobs, noise, /*use_spawn=*/false);
    const auto spawned = run_soup(jobs, noise, /*use_spawn=*/true);
    ASSERT_EQ(spawned.first, triad.first) << "seed " << seed;
    ASSERT_EQ(spawned.second, triad.second) << "seed " << seed;
  }
}

/// Queues a log entry at the current time when destroyed.
struct LogsOnDestroy {
  Engine& eng;
  std::vector<char>& log;
  ~LogsOnDestroy() {
    eng.at(eng.now(), [&out = log] { out.push_back('d'); });
  }
};

Co<int> value_then_locals(Engine& eng, std::vector<char>& log) {
  LogsOnDestroy local{eng, log};
  co_await delay(eng, 10);
  co_return 5;
}

TEST(Spawn, FulfilsTheFutureBeforeTheBodysLocalsDie) {
  Engine e;
  std::vector<char> log;
  int got = 0;
  [](Engine& eng, std::vector<char>& out, int& v) -> Task {
    v = co_await spawn(eng, value_then_locals(eng, out));
    out.push_back('c');
  }(e, log, got);
  e.run();
  EXPECT_EQ(got, 5);
  // The consumer's wake-up was queued at the co_return, ahead of the event
  // the local's destructor queued afterwards.
  EXPECT_EQ(log, (std::vector<char>{'c', 'd'}));
}

TEST(Spawn, BodyThatNeverSuspendsLeavesTheFutureReadyAndCostsNoEvent) {
  Engine e;
  Future<int> f = spawn(e, add_one_after(e, 41, 0));
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_EQ(f.try_take(), std::optional<int>(42));
  e.run();
  EXPECT_EQ(e.events_processed(), 0u);
}

TEST(Spawn, DroppedFutureStillLetsTheBodyFinish) {
  Engine e;
  bool finished = false;
  bool destroyed = false;
  struct Flag {
    bool& set;
    ~Flag() { set = true; }
  };
  (void)spawn(e, [](Engine& eng, bool& done, bool& gone) -> Co<int> {
    Flag flag{gone};
    co_await delay(eng, 10);
    done = true;
    co_return 1;
  }(e, finished, destroyed));
  EXPECT_FALSE(finished);
  e.run();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(destroyed);
}

TEST(Event, WakesAllWaiters) {
  Engine e;
  Event ev(e);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    [](Event& event, int& count) -> Task {
      co_await event.wait();
      ++count;
    }(ev, woken);
  }
  e.run();
  EXPECT_EQ(woken, 0);
  ev.set();
  e.run();
  EXPECT_EQ(woken, 3);
}

TEST(Event, WaitOnSetEventReturnsImmediately) {
  Engine e;
  Event ev(e);
  ev.set();
  bool done = false;
  [](Event& event, bool& out) -> Task {
    co_await event.wait();
    out = true;
  }(ev, done);
  EXPECT_TRUE(done);
}

TEST(Event, WaitForTimesOut) {
  Engine e;
  Event ev(e);
  bool fired = true;
  [](Event& event, bool& out) -> Task { out = co_await event.wait_for(100); }(ev, fired);
  e.run();
  EXPECT_FALSE(fired);           // timed out
  EXPECT_EQ(e.now(), 100);
}

TEST(Event, WaitForSucceedsBeforeTimeout) {
  Engine e;
  Event ev(e);
  bool fired = false;
  [](Event& event, bool& out) -> Task { out = co_await event.wait_for(100); }(ev, fired);
  e.after(50, [&] { ev.set(); });
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Mailbox, FifoOrder) {
  Engine e;
  Mailbox<int> box(e);
  box.push(1);
  box.push(2);
  box.push(3);
  std::vector<int> got;
  [](Mailbox<int>& b, std::vector<int>& out) -> Task {
    for (int i = 0; i < 3; ++i) {
      auto v = co_await b.pop();
      out.push_back(*v);
    }
  }(box, got);
  e.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Mailbox, PopWakesOnPush) {
  Engine e;
  Mailbox<int> box(e);
  int got = 0;
  [](Mailbox<int>& b, int& out) -> Task {
    auto v = co_await b.pop();
    out = *v;
  }(box, got);
  e.run();
  EXPECT_EQ(got, 0);
  box.push(99);
  e.run();
  EXPECT_EQ(got, 99);
}

TEST(Mailbox, PopForTimesOutWithNullopt) {
  Engine e;
  Mailbox<int> box(e);
  bool got_value = true;
  [](Mailbox<int>& b, bool& out) -> Task {
    auto v = co_await b.pop_for(250);
    out = v.has_value();
  }(box, got_value);
  e.run();
  EXPECT_FALSE(got_value);
  EXPECT_EQ(e.now(), 250);
}

TEST(Semaphore, LimitsConcurrency) {
  Engine e;
  Semaphore sem(e, 2);
  int active = 0;
  int peak = 0;
  for (int i = 0; i < 5; ++i) {
    [](Engine& eng, Semaphore& s, int& act, int& pk) -> Task {
      co_await s.acquire();
      ++act;
      pk = std::max(pk, act);
      co_await delay(eng, 10);
      --act;
      s.release();
    }(e, sem, active, peak);
  }
  e.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, TryAcquire) {
  Engine e;
  Semaphore sem(e, 1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

TEST(Event, SetDuringTimeoutRaceResumesExactlyOnce) {
  // The event fires at the same instant the timeout expires. The waiter
  // must resume exactly once, and the tie is deterministic: the timeout
  // event was enqueued first (at suspension time), so it wins FIFO order.
  Engine e;
  Event ev(e);
  int resumes = 0;
  bool fired = false;
  [](Event& event, int& n, bool& out) -> Task {
    out = co_await event.wait_for(100);
    ++n;
  }(ev, resumes, fired);
  e.at(100, [&] { ev.set(); });
  e.run();
  EXPECT_EQ(resumes, 1);
  EXPECT_FALSE(fired);      // the timeout won the tie...
  EXPECT_TRUE(ev.is_set()); // ...but the set() still happened
}

TEST(Mailbox, OnePushWakesExactlyOneOfTwoWaiters) {
  Engine e;
  Mailbox<int> box(e);
  int got_value = 0;
  int resumed_empty = 0;
  for (int i = 0; i < 2; ++i) {
    [](Mailbox<int>& b, int& value, int& empty) -> Task {
      auto v = co_await b.pop_for(1000);
      if (v) {
        value = *v;
      } else {
        ++empty;
      }
    }(box, got_value, resumed_empty);
  }
  box.push(7);
  e.run();
  EXPECT_EQ(got_value, 7);
  EXPECT_EQ(resumed_empty, 1);  // the other waiter timed out with nullopt
}

TEST(Semaphore, BulkReleaseWakesMultipleWaiters) {
  Engine e;
  Semaphore sem(e, 0);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    [](Semaphore& s, int& n) -> Task {
      co_await s.acquire();
      ++n;
    }(sem, woken);
  }
  e.run();
  EXPECT_EQ(woken, 0);
  sem.release(2);
  e.run();
  EXPECT_EQ(woken, 2);
  sem.release(1);
  e.run();
  EXPECT_EQ(woken, 3);
}

TEST(FuturePromise, TryTakeConsumesOnce) {
  Engine e;
  Promise<int> p(e);
  auto f = p.future();
  EXPECT_FALSE(f.try_take().has_value());
  p.set(5);
  auto v = f.try_take();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
}

// --- lifetimes of pooled states and wait nodes ---------------------------------
// These run under AddressSanitizer in tools/ci_asan.sh, where the pool hands
// every block back to the global allocator: a timeout event or a stale
// promise handle touching a freed frame or state is reported there.

/// Flags its destruction: lives in a coroutine frame to observe when the
/// frame is destroyed.
struct FrameProbe {
  bool* destroyed;
  ~FrameProbe() { *destroyed = true; }
};

TEST(Lifetime, WaitForWokenBySetOutlivesItsFrameUntilTheTimeout) {
  Engine e;
  Event ev(e);
  bool fired = false;
  bool destroyed = false;
  Time destroyed_at = -1;
  [](Engine& eng, Event& event, bool& out, bool& gone, Time& gone_at) -> Task {
    {
      FrameProbe probe{&gone};
      out = co_await event.wait_for(1000);
    }
    co_await delay(eng, 1);
    gone_at = eng.now();
  }(e, ev, fired, destroyed, destroyed_at);
  e.at(10, [&] { ev.set(); });
  e.run_until(500);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(destroyed_at, 11);  // the frame finished long before the timeout
  EXPECT_EQ(e.pending_events(), 1u);  // the timeout event is still armed
  e.run();
  EXPECT_EQ(e.now(), 1000);  // and fires harmlessly after the frame is gone
}

TEST(Lifetime, PopForWokenByPushOutlivesItsFrameUntilTheTimeout) {
  Engine e;
  Mailbox<int> box(e);
  std::optional<int> got;
  bool finished = false;
  [](Mailbox<int>& b, std::optional<int>& out, bool& done) -> Task {
    FrameProbe probe{&done};
    out = co_await b.pop_for(1000);
  }(box, got, finished);
  e.at(10, [&] { box.push(9); });
  e.run_until(500);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 9);
  EXPECT_TRUE(finished);
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_EQ(e.now(), 1000);
  // The stale node the timeout left behind does not swallow the next push.
  box.push(4);
  EXPECT_EQ(box.try_pop(), std::optional<int>(4));
}

TEST(Lifetime, FutureOutlivesItsPromise) {
  Engine e;
  Future<int> f;
  {
    Promise<int> p(e);
    f = p.future();
    p.set(11);
  }
  ASSERT_TRUE(f.valid());
  int got = 0;
  [](Future<int> fut, int& out) -> Task { out = co_await fut; }(f, got);
  EXPECT_EQ(got, 11);
}

TEST(Lifetime, PromiseDestroyedUnset) {
  Engine e;
  Future<std::vector<int>> f;
  {
    Promise<std::vector<int>> p(e);
    f = p.future();
  }
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.ready());
  EXPECT_FALSE(f.try_take().has_value());
  { Promise<std::vector<int>> never_read(e); }
}

TEST(Lifetime, PromiseCopiesFireAfterTheTaskEnded) {
  Engine e;
  Future<int> f;
  bool task_done = false;
  [](Engine& eng, Future<int>& out, bool& done) -> Task {
    Promise<int> p(eng);
    out = p.future();
    eng.after(50, [p]() mutable { p.set(3); });
    eng.after(80, [p]() { EXPECT_TRUE(p.is_set()); });
    co_await delay(eng, 1);
    done = true;
  }(e, f, task_done);
  e.run_until(10);
  EXPECT_TRUE(task_done);
  EXPECT_FALSE(f.ready());
  e.run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.try_take(), std::optional<int>(3));
}

TEST(Determinism, SameScheduleTwice) {
  auto run_once = []() {
    Engine e;
    std::vector<int> order;
    Event ev(e);
    Mailbox<int> box(e);
    for (int i = 0; i < 4; ++i) {
      [](Engine& eng, Event& event, Mailbox<int>& b, std::vector<int>& out, int id) -> Task {
        co_await delay(eng, 10 * (id % 2));
        co_await event.wait();
        b.push(id);
        out.push_back(id);
      }(e, ev, box, order, i);
    }
    e.after(50, [&] { ev.set(); });
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- calendar-queue vs reference-heap property sweep --------------------------
//
// The calendar queue must fire events in exactly the order the old binary
// heap did: ascending (timestamp, insertion-seq). Both sides replay the same
// deterministic program — event ids are allocated in schedule order, and an
// event's children (count + deltas) are a pure hash of (round, id) — so as
// long as both fire ids in the same order, the two id streams stay in
// lockstep. The delta mix deliberately covers same-bucket ties, exact bucket
// boundaries, the window edge, and the overflow list.

namespace wheelprop {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

Duration delta_of(std::uint64_t round, std::uint64_t id, std::uint64_t k) {
  const std::uint64_t h = mix(round * 1'000'003 + id * 131 + k);
  switch (h % 8) {
    case 0: return 0;
    case 1: return static_cast<Duration>(mix(h) % 4);            // same bucket
    case 2: return static_cast<Duration>(mix(h) % 200);          // near buckets
    case 3: return static_cast<Duration>(mix(h) % 5000);
    case 4: return static_cast<Duration>(mix(h) % 300'000);      // window edge
    case 5: return static_cast<Duration>(mix(h) % 3'000'000);    // overflow
    case 6: return 128 * static_cast<Duration>(mix(h) % 3000);   // bucket boundary
    default: return static_cast<Duration>(mix(h) % 100'000'000);  // far future
  }
}

std::uint64_t fanout_of(std::uint64_t round, std::uint64_t id) {
  return mix(round * 7 + id * 31 + 5) % 3;  // 0..2 children per event
}

struct WheelSide {
  Engine eng;
  std::vector<std::uint64_t> fired;
  std::uint64_t next_id = 0;
  std::uint64_t round = 0;
  std::uint64_t budget = 0;  // stop expanding once this many ids allocated

  void schedule(Duration d) {
    const std::uint64_t id = next_id++;
    eng.after(d, [this, id]() { fire(id); });
  }
  void fire(std::uint64_t id) {
    fired.push_back(id);
    if (next_id >= budget) return;
    const std::uint64_t n = fanout_of(round, id);
    for (std::uint64_t k = 0; k < n; ++k) schedule(delta_of(round, id, k));
  }
};

/// Reference implementation: the old heap core's exact semantics, including
/// (t, seq) tie-break, the t < now clamp, and run_until's clock advance.
struct HeapSide {
  struct Ev {
    Time t;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Cmp {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Cmp> q;
  Time now = 0;
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> fired;
  std::uint64_t next_id = 0;
  std::uint64_t round = 0;
  std::uint64_t budget = 0;

  void schedule(Duration d) {
    const Time t = now + d;
    q.push({t < now ? now : t, seq++, next_id++});
  }
  void fire(const Ev& e) {
    now = e.t;
    fired.push_back(e.id);
    if (next_id >= budget) return;
    const std::uint64_t n = fanout_of(round, e.id);
    for (std::uint64_t k = 0; k < n; ++k) schedule(delta_of(round, e.id, k));
  }
  void run_until(Time t) {
    while (!q.empty() && q.top().t <= t) {
      Ev e = q.top();
      q.pop();
      fire(e);
    }
    if (now < t) now = t;
  }
  void run() {
    while (!q.empty()) {
      Ev e = q.top();
      q.pop();
      fire(e);
    }
  }
};

}  // namespace wheelprop

TEST(CalendarQueueProperty, MatchesReferenceHeapOver1kSeededRounds) {
  using namespace wheelprop;
  for (std::uint64_t round = 0; round < 1000; ++round) {
    WheelSide wheel;
    HeapSide heap;
    wheel.round = heap.round = round;
    wheel.budget = heap.budget = 400;

    for (int i = 0; i < 40; ++i) {
      const Duration d = delta_of(round, 1'000'000 + i, 0);
      wheel.schedule(d);
      heap.schedule(d);
    }

    // Interleave run_until steps with roots scheduled from *outside* any
    // callback — now() sits wherever the previous step left it, possibly
    // mid-window after an early drain. This is the interleaving that
    // exposes cursor-placement bugs a pure run() sweep cannot.
    std::mt19937_64 driver(round ^ 0xabcdef);
    for (int s = 0; s < 6; ++s) {
      for (int j = 0; j < 3; ++j) {
        const Duration d = delta_of(round, 2'000'000 + s * 10 + j, 0);
        wheel.schedule(d);
        heap.schedule(d);
      }
      const Duration step = static_cast<Duration>(driver() % 2'000'000);
      wheel.eng.run_until(wheel.eng.now() + step);
      heap.run_until(heap.now + step);
      ASSERT_EQ(wheel.eng.pending_events(), heap.q.size())
          << "round " << round << " step " << s;
      ASSERT_EQ(wheel.eng.now(), heap.now) << "round " << round << " step " << s;
    }
    wheel.eng.run();
    heap.run();
    ASSERT_EQ(wheel.fired, heap.fired) << "firing order diverged in round " << round;
  }
}

TEST(CalendarQueueProperty, StopAndRerunResumesInOrder) {
  using namespace wheelprop;
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    e.after(100 * (i % 4), [&order, i]() { order.push_back(i); });
  }
  e.after(100, [&e]() { e.stop(); });
  e.run();
  EXPECT_TRUE(e.stopped());
  EXPECT_LT(order.size(), 8u);
  e.run();  // resume: remaining events fire in the same global order
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order, (std::vector<int>{0, 4, 1, 5, 2, 6, 3, 7}));
}

// Regression: run_until that drains early must leave the dispatch cursor at
// the last *popped* position, not parked on the next (future) bucket. If the
// cursor moves on a peek, events scheduled afterwards — at t >= now() but
// before that future bucket, e.g. exactly one 128 ns bucket ahead — land
// "behind" the cursor, where the wrapped bitmap scan misorders or skips
// them. Seen in the wild as a mailbox request vanishing between poll rounds.
TEST(Engine, ScheduleAfterEarlyDrainAtBucketBoundaryKeepsOrder) {
  Engine e;
  std::vector<int> order;
  // One far event parks in a future bucket; run_until(t) with t well before
  // it drains nothing but advances now() to t.
  e.after(10'000, [&order]() { order.push_back(99); });
  EXPECT_EQ(e.run_until(1'000), 0u);
  EXPECT_EQ(e.now(), 1'000);
  // Schedule between now() and the far event, straddling bucket boundaries
  // of the 128 ns wheel (1024 and 1152 are exact boundaries; 1100 is not).
  e.after(24, [&order]() { order.push_back(0); });    // t=1024, boundary
  e.after(100, [&order]() { order.push_back(1); });   // t=1100
  e.after(152, [&order]() { order.push_back(2); });   // t=1152, boundary
  e.after(0, [&order]() { order.push_back(3); });     // t=1000, same slot as now
  e.run();
  EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2, 99}));
  EXPECT_EQ(e.now(), 10'000);
}

}  // namespace
}  // namespace nvmeshare::sim
