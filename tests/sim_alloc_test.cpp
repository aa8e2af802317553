// The coroutine primitives' steady state makes no heap allocation: frames,
// promise states and timed wait nodes come from the size-class pool
// (sim/pool.hpp), wait lists are intrusive and a mailbox keeps its ring.
//
// This binary replaces the global operator new with a counting one. Each
// scenario runs three identical rounds on one engine; the first two warm
// the pool, the event arena and any container capacity, and the third must
// not call global operator new at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "sim/engine.hpp"
#include "sim/pool.hpp"
#include "sim/task.hpp"

namespace {
std::uint64_t g_allocations = 0;

void* counted(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nvmeshare::sim {
namespace {

constexpr int kRounds = 10'000;

/// Global operator new calls made by the third of three runs of `round`.
template <typename F>
std::uint64_t steady_state_allocations(Engine& engine, F&& round) {
  round();
  engine.run();
  round();
  engine.run();
  const std::uint64_t before = g_allocations;
  round();
  engine.run();
  return g_allocations - before;
}

class SimAlloc : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!pool::kEnabled) GTEST_SKIP() << "the pool passes through under AddressSanitizer";
  }
  Engine engine;
};

TEST_F(SimAlloc, PromiseFutureRoundTrips) {
  int sum = 0;
  auto consumer = [](Engine& e, int& out) -> Task {
    for (int i = 0; i < kRounds; ++i) {
      Promise<int> p(e);
      Future<int> f = p.future();
      e.after(3, [p]() mutable { p.set(1); });
      out += co_await f;
    }
  };
  EXPECT_EQ(steady_state_allocations(engine, [&] { consumer(engine, sum); }), 0u);
  EXPECT_EQ(sum, 3 * kRounds);
}

TEST_F(SimAlloc, TaskSpawnAndFinish) {
  int finished = 0;
  auto child = [](Engine& e, int& done) -> Task {
    co_await delay(e, 2);
    ++done;
  };
  auto round = [&] {
    for (int i = 0; i < 1000; ++i) child(engine, finished);
  };
  EXPECT_EQ(steady_state_allocations(engine, round), 0u);
  EXPECT_EQ(finished, 3000);
}

Co<int> value_after_delay(Engine& e, int v) {
  co_await delay(e, 2);
  co_return v;
}

TEST_F(SimAlloc, SpawnedAndInlineSteps) {
  int sum = 0;
  auto consumer = [](Engine& e, int& out) -> Task {
    const auto step = value_after_delay;
    for (int i = 0; i < 1000; ++i) {
      out += co_await spawn(e, step(e, 1));
      out += co_await step(e, 1);
      (void)spawn(e, step(e, 0));  // dropped Future: the frame still frees itself
    }
  };
  EXPECT_EQ(steady_state_allocations(engine, [&] { consumer(engine, sum); }), 0u);
  EXPECT_EQ(sum, 3 * 2000);
}

TEST_F(SimAlloc, DelayLoop) {
  auto loop = [](Engine& e) -> Task {
    for (int i = 0; i < kRounds; ++i) co_await delay(e, 5);
  };
  EXPECT_EQ(steady_state_allocations(engine, [&] { loop(engine); }), 0u);
  EXPECT_EQ(engine.now(), 3 * 5 * kRounds);
}

TEST_F(SimAlloc, EventWaitSetAndWaitForBothOutcomes) {
  Event ev(engine);
  int fired = 0;
  int timed_out = 0;
  auto waiter = [](Event& e, int& fired, int& timed_out) -> Task {
    for (int i = 0; i < 1000; ++i) {
      co_await e.wait();
      e.reset();
      // Set 4 ns in: wait_for(10) wins; never set again: wait_for(10) times out.
      if (co_await e.wait_for(10)) ++fired;
      e.reset();
      if (!co_await e.wait_for(10)) ++timed_out;
    }
  };
  auto setter = [](Engine& eng, Event& e) -> Task {
    for (int i = 0; i < 1000; ++i) {
      co_await delay(eng, 1);
      e.set();
      co_await delay(eng, 4);
      e.set();
      co_await delay(eng, 20);
    }
  };
  auto round = [&] {
    waiter(ev, fired, timed_out);
    setter(engine, ev);
  };
  EXPECT_EQ(steady_state_allocations(engine, round), 0u);
  EXPECT_EQ(fired, 3000);
  EXPECT_EQ(timed_out, 3000);
}

TEST_F(SimAlloc, MailboxPushPopAndPopFor) {
  Mailbox<int> box(engine);
  long sum = 0;
  int empty = 0;
  auto consumer = [](Mailbox<int>& b, long& sum, int& empty) -> Task {
    for (int i = 0; i < 1000; ++i) {
      std::optional<int> v = co_await b.pop();
      sum += v.value_or(0);
      v = co_await b.pop_for(10);  // pushed 4 ns in: delivered
      sum += v.value_or(0);
      v = co_await b.pop_for(10);  // nothing comes: times out
      if (!v) ++empty;
    }
  };
  auto producer = [](Engine& e, Mailbox<int>& b) -> Task {
    for (int i = 0; i < 1000; ++i) {
      co_await delay(e, 1);
      b.push(1);
      co_await delay(e, 4);
      b.push(2);
      co_await delay(e, 20);
    }
  };
  auto round = [&] {
    consumer(box, sum, empty);
    producer(engine, box);
  };
  EXPECT_EQ(steady_state_allocations(engine, round), 0u);
  EXPECT_EQ(sum, 3 * 3 * 1000);
  EXPECT_EQ(empty, 3000);
}

TEST_F(SimAlloc, ContendedSemaphore) {
  Semaphore sem(engine, 2);
  int done = 0;
  auto worker = [](Engine& e, Semaphore& s, int& done) -> Task {
    for (int i = 0; i < 100; ++i) {
      co_await s.acquire();
      co_await delay(e, 3);
      s.release();
    }
    ++done;
  };
  auto round = [&] {
    for (int w = 0; w < 16; ++w) worker(engine, sem, done);
  };
  EXPECT_EQ(steady_state_allocations(engine, round), 0u);
  EXPECT_EQ(done, 48);
  EXPECT_EQ(sem.available(), 2);
}

}  // namespace
}  // namespace nvmeshare::sim
