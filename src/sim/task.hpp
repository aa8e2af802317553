// C++20 coroutine primitives on top of the discrete-event Engine.
//
// Conventions:
//  * A step that produces a result is a Co<T> and delivers it with
//    `co_return`. The caller picks how it runs: `co_await step(...)` runs it
//    inline (no engine event), `co_await spawn(engine, step(...))` starts it
//    as a task of its own whose completion wakes the caller through the
//    engine queue (one event). Write `spawn` where that engine hop is
//    wanted, so it stays visible at the call site.
//  * Promise is only for producers that are not coroutines: I/O callbacks
//    and tables of in-flight operations that something else resolves.
//  * Task is an eager, detached coroutine with no result: it runs to its
//    first suspension point when called and owns its own frame (destroyed
//    at completion). Long-lived pollers must observe a stop flag / event so
//    the frame is released before the simulation ends.
//  * Apart from Co's inline edges, all wake-ups are funneled through the
//    Engine queue (never resumed inline), which keeps interleavings
//    deterministic and prevents unbounded recursion in completion chains.
//  * Single-threaded: none of these types are thread-safe; they don't need
//    to be.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/pool.hpp"
#include "sim/ring.hpp"

namespace nvmeshare::sim {

// --- Task --------------------------------------------------------------------

/// Fire-and-forget coroutine. `Task f() { co_await ...; }` starts executing
/// immediately when called. Frames come from the size-class pool
/// (sim/pool.hpp), so a warm simulation spawns tasks without heap traffic.
struct Task {
  struct promise_type {
    Task get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() { std::terminate(); }

    static void* operator new(std::size_t size) { return pool::allocate(size); }
    static void operator delete(void* p, std::size_t size) noexcept {
      pool::deallocate(p, size);
    }
  };
};

// --- delay -------------------------------------------------------------------

/// `co_await delay(engine, 100_ns)` suspends the current task for `d`
/// simulated nanoseconds.
struct DelayAwaiter {
  Engine& engine;
  Duration d;

  bool await_ready() const noexcept { return d <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.after(d, [h]() { h.resume(); });
  }
  void await_resume() const noexcept {}
};

inline DelayAwaiter delay(Engine& engine, Duration d) { return {engine, d}; }

// --- poll_tick ---------------------------------------------------------------

/// `co_await poll_tick(engine, timer, period)` is `delay(engine, period)` for
/// a fixed-cadence poller: the tick takes the same (t, seq) slot, but the
/// engine skips it unless `timer` was notified since the round began (see
/// PollTimer). Resuming clears the notification, before the round reads.
struct PollTickAwaiter {
  Engine& engine;
  PollTimer& timer;
  Duration period;

  bool await_ready() const noexcept { return period <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    assert(timer.engine_ == &engine && "poll timer belongs to another engine");
    engine.arm(timer, period, h);
  }
  void await_resume() const noexcept { timer.notified_ = false; }
};

inline PollTickAwaiter poll_tick(Engine& engine, PollTimer& timer, Duration period) {
  return {engine, timer, period};
}

// --- yield -------------------------------------------------------------------

/// Re-queue the current task at the current timestamp (lets other pending
/// events at `now` run first).
inline DelayAwaiter yield_now(Engine& engine) { return {engine, 0}; }

namespace detail {

/// Base of pool-allocated objects with an intrusive, non-atomic reference
/// count (an engine and everything on it live on one thread).
struct Counted {
  std::uint32_t refs = 0;

  static void* operator new(std::size_t size) { return pool::allocate(size); }
  static void operator delete(void* p, std::size_t size) noexcept {
    pool::deallocate(p, size);
  }
};

/// Owning handle to a Counted object; the last handle deletes it.
template <typename T>
class Ref {
 public:
  struct Adopt {};

  Ref() = default;
  explicit Ref(T* p) noexcept : p_(p) {
    if (p_ != nullptr) ++p_->refs;
  }
  /// Take over a reference the caller already counted.
  Ref(T* p, Adopt) noexcept : p_(p) {}
  Ref(const Ref& other) noexcept : Ref(other.p_) {}
  Ref(Ref&& other) noexcept : p_(std::exchange(other.p_, nullptr)) {}
  Ref& operator=(Ref other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~Ref() {
    if (p_ != nullptr && --p_->refs == 0) delete p_;
  }

  T* operator->() const noexcept { return p_; }
  T& operator*() const noexcept { return *p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }

 private:
  T* p_ = nullptr;
};

/// Resume `h` from the engine queue at the current time.
inline void resume_later(Engine& engine, std::coroutine_handle<> h) {
  engine.at(engine.now(), [h]() { h.resume(); });
}

/// A single suspended waiter. The wake-up path and an optional timeout
/// path share it so exactly one of them resumes the coroutine.
struct WaitNode : Counted {
  std::coroutine_handle<> h;
  WaitNode* next = nullptr;
  bool resumed = false;
  bool timed_out = false;
};

inline void wake(Engine& engine, WaitNode& node, bool timed_out) {
  if (node.resumed) return;
  node.resumed = true;
  node.timed_out = timed_out;
  resume_later(engine, node.h);
}

/// FIFO of suspended waiters, linked through the nodes; holds one
/// reference on each node it links.
class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;
  ~WaitList() {
    while (pop()) {
    }
  }

  void push(WaitNode& node) noexcept {
    ++node.refs;
    node.next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = &node;
    } else {
      head_ = &node;
    }
    tail_ = &node;
  }

  /// Unlink the oldest waiter (empty Ref when none); the list's reference
  /// moves to the caller.
  Ref<WaitNode> pop() noexcept {
    WaitNode* node = head_;
    if (node == nullptr) return {};
    head_ = node->next;
    if (head_ == nullptr) tail_ = nullptr;
    node->next = nullptr;
    return Ref<WaitNode>(node, Ref<WaitNode>::Adopt{});
  }

 private:
  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
};

/// The suspension behind Event::wait and Mailbox::pop. An untimed wait
/// links a node that lives here, in the suspended coroutine's frame: the
/// list unlinks it before resuming the frame. A timed wait links a pooled
/// node instead, because its timeout event still fires after a wake-up
/// resumed the frame and possibly destroyed it.
class Waiter {
 public:
  Waiter() { local_.refs = 1; }  // the frame's own reference; never dropped
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;
  ~Waiter() { assert(local_.refs == 1 && "untimed waiter still linked"); }

  void suspend(Engine& engine, WaitList& list, std::coroutine_handle<> h, Duration timeout) {
    if (timeout >= 0) pooled_ = Ref<WaitNode>(new WaitNode);
    WaitNode& n = node();
    n.h = h;
    list.push(n);
    if (timeout >= 0) {
      engine.after(timeout, [&engine, n = pooled_]() { wake(engine, *n, /*timed_out=*/true); });
    }
  }

  [[nodiscard]] bool timed_out() const noexcept {
    return pooled_ ? pooled_->timed_out : local_.timed_out;
  }

 private:
  WaitNode& node() noexcept { return pooled_ ? *pooled_ : local_; }

  WaitNode local_;
  Ref<WaitNode> pooled_;
};

template <typename T>
struct FutureState : Counted {
  explicit FutureState(Engine& e) noexcept : engine(&e) {}
  Engine* engine;
  std::optional<T> value;
  std::coroutine_handle<> waiter;

  /// Store the value; a parked waiter resumes from the engine queue.
  void set(T v) {
    assert(!value.has_value() && "future set twice");
    value.emplace(std::move(v));
    if (auto h = std::exchange(waiter, nullptr)) resume_later(*engine, h);
  }
};

}  // namespace detail

// --- Future / Promise ----------------------------------------------------------

/// One-shot value channel: a producer sets the value once; a single consumer
/// `co_await`s it. Copyable handles share one pooled state. A coroutine
/// producer is a Co<T> started by spawn(); Promise is for producers that are
/// not coroutines (callbacks, tables of in-flight operations).
template <typename T>
class Future;

template <typename T>
class Co;

template <typename T>
Future<T> spawn(Engine& engine, Co<T> body);

template <typename T>
class Promise {
 public:
  explicit Promise(Engine& engine) : state_(new State(engine)) {}

  /// Fulfill the future. Must be called exactly once.
  void set(T value) { state_->set(std::move(value)); }

  [[nodiscard]] bool is_set() const noexcept { return state_->value.has_value(); }

  [[nodiscard]] Future<T> future() const { return Future<T>(state_); }

 private:
  friend class Future<T>;
  using State = detail::FutureState<T>;
  detail::Ref<State> state_;
};

template <typename T>
class Future {
 public:
  Future() = default;

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(state_); }
  [[nodiscard]] bool ready() const noexcept { return state_ && state_->value.has_value(); }

  /// Non-blocking: take the value if ready.
  [[nodiscard]] std::optional<T> try_take() {
    if (!ready()) return std::nullopt;
    std::optional<T> out = std::move(state_->value);
    return out;
  }

  // Awaitable interface: `T result = co_await future;`
  bool await_ready() const noexcept { return ready(); }
  void await_suspend(std::coroutine_handle<> h) noexcept {
    assert(state_ && !state_->waiter && "future supports a single waiter");
    state_->waiter = h;
  }
  T await_resume() {
    assert(ready());
    T out = std::move(*state_->value);
    return out;
  }

 private:
  friend class Promise<T>;
  friend Future spawn<T>(Engine&, Co<T>);
  explicit Future(detail::Ref<detail::FutureState<T>> state) : state_(std::move(state)) {}
  detail::Ref<detail::FutureState<T>> state_;
};

// --- Co / spawn ----------------------------------------------------------------

/// A coroutine step that delivers its result with `co_return`. It runs one
/// of two ways:
///  * `T v = co_await step(...)` runs the body inline until it suspends, and
///    its `co_return` resumes the awaiting coroutine inline (symmetric
///    transfer). No engine event is queued on either edge, so the schedule
///    is exactly that of the body written out in the caller.
///  * `spawn(engine, step(...))` starts the body at once as a task of its
///    own and returns a Future for its result (see spawn()).
/// Lazy: a Co that is neither awaited nor spawned never runs.
template <typename T>
class [[nodiscard]] Co {
 public:
  struct promise_type {
    std::optional<T> value;
    std::coroutine_handle<> parent;
    detail::Ref<detail::FutureState<T>> spawned;  ///< set by spawn()

    Co get_return_object() noexcept {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    /// Inline: transfer to the awaiting coroutine. Spawned: nobody awaits
    /// the frame, so it runs off the end and frees itself.
    struct FinalAwaiter {
      bool spawned;
      bool await_ready() const noexcept { return spawned; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        return h.promise().parent;
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {static_cast<bool>(spawned)}; }
    /// Runs at the `co_return`, before the body's locals are destroyed.
    void return_value(T v) {
      if (spawned) {
        spawned->set(std::move(v));
      } else {
        value.emplace(std::move(v));
      }
    }
    [[noreturn]] void unhandled_exception() { std::terminate(); }

    static void* operator new(std::size_t size) { return pool::allocate(size); }
    static void operator delete(void* p, std::size_t size) noexcept {
      pool::deallocate(p, size);
    }
  };

  Co(Co&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&&) = delete;
  ~Co() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    h_.promise().parent = parent;
    return h_;
  }
  T await_resume() { return std::move(*h_.promise().value); }

 private:
  friend Future<T> spawn<T>(Engine&, Co<T>);
  explicit Co(std::coroutine_handle<promise_type> h) noexcept : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

/// Start `body` now, as an eager task with one pooled frame: it runs inline
/// until its first suspension. Its `co_return` fulfils the returned Future
/// the way Promise::set does (a parked consumer resumes from the engine
/// queue, one event; a consumer that has not suspended yet finds the value
/// ready and queues nothing). The frame frees itself after the `co_return`
/// whether or not the Future is still held.
template <typename T>
Future<T> spawn(Engine& engine, Co<T> body) {
  detail::Ref<detail::FutureState<T>> state(new detail::FutureState<T>(engine));
  const auto h = std::exchange(body.h_, nullptr);
  h.promise().spawned = state;
  h.resume();
  return Future<T>(std::move(state));
}

// --- Event -------------------------------------------------------------------

/// Manual-reset event with any number of waiters and optional timeout.
class Event {
 public:
  explicit Event(Engine& engine) : engine_(engine) {}

  void set() {
    set_ = true;
    while (auto node = waiters_.pop()) detail::wake(engine_, *node, /*timed_out=*/false);
  }

  void reset() noexcept { set_ = false; }
  [[nodiscard]] bool is_set() const noexcept { return set_; }

  /// Awaitable that completes when the event is set. Result: true if the
  /// event fired, false on timeout (timeout < 0 means wait forever).
  struct WaitAwaiter {
    Event& event;
    Duration timeout;
    detail::Waiter waiter;

    bool await_ready() const noexcept { return event.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      waiter.suspend(event.engine_, event.waiters_, h, timeout);
    }
    bool await_resume() const noexcept { return !waiter.timed_out(); }
  };

  [[nodiscard]] WaitAwaiter wait() { return WaitAwaiter{*this, -1, {}}; }
  [[nodiscard]] WaitAwaiter wait_for(Duration timeout) { return WaitAwaiter{*this, timeout, {}}; }

 private:
  Engine& engine_;
  bool set_ = false;
  detail::WaitList waiters_;
};

// --- Mailbox -----------------------------------------------------------------

/// Unbounded FIFO channel with awaitable pop; the shared-memory mailbox RPC
/// between driver manager and clients, and block-layer dispatch, sit on it.
/// Items sit in a Ring, so a warm mailbox allocates nothing.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : engine_(engine) {}

  void push(T item) {
    ring_.push_back(std::move(item));
    wake_one();
  }

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ring_.empty(); }

  [[nodiscard]] std::optional<T> try_pop() {
    if (ring_.empty()) return std::nullopt;
    std::optional<T> out(std::move(ring_.front()));
    ring_.pop_front();
    return out;
  }

  /// Awaitable pop with optional timeout; resolves to nullopt on timeout.
  struct PopAwaiter {
    Mailbox& box;
    Duration timeout;
    detail::Waiter waiter;

    bool await_ready() const noexcept { return !box.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      waiter.suspend(box.engine_, box.waiters_, h, timeout);
    }
    std::optional<T> await_resume() {
      if (waiter.timed_out()) return std::nullopt;
      // A racing consumer may have drained the queue between wake-up
      // scheduling and resumption; retry contract: nullopt.
      return box.try_pop();
    }
  };

  [[nodiscard]] PopAwaiter pop() { return PopAwaiter{*this, -1, {}}; }
  [[nodiscard]] PopAwaiter pop_for(Duration timeout) { return PopAwaiter{*this, timeout, {}}; }

 private:
  void wake_one() {
    while (auto node = waiters_.pop()) {
      if (!node->resumed) {
        detail::wake(engine_, *node, /*timed_out=*/false);
        return;
      }
    }
  }

  Engine& engine_;
  Ring<T> ring_;
  detail::WaitList waiters_;
};

// --- Semaphore ----------------------------------------------------------------

/// Counting semaphore; models bounded resources such as in-flight request
/// slots (queue depth) and NVMe media channel parallelism.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::int64_t initial) : engine_(engine), count_(initial) {}

  [[nodiscard]] std::int64_t available() const noexcept { return count_; }

  void release(std::int64_t n = 1) {
    count_ += n;
    while (count_ > 0) {
      auto node = waiters_.pop();
      if (!node) break;
      if (node->resumed) continue;
      --count_;
      detail::wake(engine_, *node, /*timed_out=*/false);
    }
  }

  struct AcquireAwaiter {
    Semaphore& sem;
    detail::Waiter waiter;

    bool await_ready() const noexcept {
      if (sem.count_ > 0) {
        --sem.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      waiter.suspend(sem.engine_, sem.waiters_, h, /*timeout=*/-1);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] AcquireAwaiter acquire() { return AcquireAwaiter{*this, {}}; }

  [[nodiscard]] bool try_acquire() noexcept {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

 private:
  Engine& engine_;
  std::int64_t count_;
  detail::WaitList waiters_;
};

}  // namespace nvmeshare::sim
