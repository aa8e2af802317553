// Deterministic discrete-event simulation engine.
//
// The whole cluster (hosts, NICs, switch chips, the NVMe controller) runs on
// one Engine. Every state change is an event at a simulated-nanosecond
// timestamp; ties are broken by insertion order, so a given seed always
// produces the same interleaving. Single-threaded by construction — the
// parallelism the paper exploits (multiple hosts driving independent queue
// pairs) is modeled as concurrent *simulated* activities, not OS threads.
//
// The event core is built for wall-clock speed (docs/performance.md):
//
//  - a calendar queue (bucketed timer wheel) instead of a binary heap.
//    Time is divided into 2^kSlotShift-ns buckets; a window of kSlots
//    consecutive buckets is live at once, and anything scheduled past the
//    window waits in an overflow list. Because every event in the window
//    is strictly earlier than every overflow event, the overflow is only
//    consulted when the wheel drains — schedule and dispatch are O(1) on
//    the hot path (a bitmap scan finds the next non-empty bucket).
//  - an intrusive node arena: event nodes come from a chunked free list
//    and callables are constructed into fixed inline storage in the node,
//    so the steady-state schedule/dispatch cycle performs no heap
//    allocation (oversized callables fall back to one heap box).
//
//  - poll timers: a fixed-cadence poller waits on a PollTimer instead of a
//    delay node. Its tick takes the same (t, seq) key the node would have
//    taken and waits in the FIFO lane of its period, merged with the wheel
//    in dispatch order. A lane needs no comparisons to stay sorted: a tick
//    is pushed at (round time + period, newest seq), and every tick already
//    in the lane was pushed at an earlier round, so it is due no later. A
//    tick nobody notified is an empty poll round: it runs no callable and
//    is not counted as an event, but it still consumes the seq the round's
//    follow-up delay would have taken and counts as a round for the
//    poller, so every other event keeps its (t, seq). When a
//    whole lane is unnotified and its last tick precedes everything else,
//    the engine rotates the lane k periods in one pass, which is exactly
//    k rounds of single elisions. Otherwise it elides the successive lane
//    heads in one loop, one round each, until a head is notified or stops
//    preceding the next event, the other lanes and the run limit.
//    Skipped rounds reach the poller's counter lazily: a timer counts them
//    and hands the count over inside notify(), which every tick that fires
//    went through, and when run()/run_until() returns. So the counter is
//    exact during the poller's own round, after notify() returns and
//    whenever the engine is not running; inside another component's event
//    it may lag.
//
// Determinism invariants, identical to the original heap-based core:
// events fire in ascending (timestamp, insertion-seq) order; per-bucket
// lists are kept (t, seq)-sorted, and the overflow refill re-sorts by
// (t, seq) before reinserting, so FIFO among equal timestamps holds
// everywhere.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace nvmeshare::sim {

class Engine;

/// The wake-up of one fixed-cadence poller (docs/performance.md,
/// "Event-skipping pollers"). The poller awaits `poll_tick(engine, timer,
/// period)` where it used to await `delay(engine, period)`.
///
/// Contract: a round that finds nothing to do only reads memory, so the
/// engine may skip it. Every change a round can observe must therefore call
/// notify() — a write into polled memory, a stop request, work arriving or
/// draining. The first tick after a notify() is dispatched as a real event;
/// the round clears the flag when it resumes, before it reads anything.
/// Over-notifying is always safe; a missed notify() changes the run.
class PollTimer {
 public:
  /// Receives the number of rounds the engine elided, so the poller's own
  /// round counter stays exact. The engine holds the count back and calls
  /// the hook inside notify() of a waiting timer, so before the tick that
  /// notify() makes real fires (an owner that notifies on its way out is
  /// called while still alive, and never again), and for every waiting
  /// timer when run() or run_until() returns. The count is therefore exact
  /// during the poller's own round, after notify() returns and whenever the
  /// engine is not running; read from another component's event it may lag.
  /// The hook must not touch the engine.
  using RoundHook = void (*)(void* ctx, std::uint64_t rounds);

  explicit PollTimer(Engine& engine, RoundHook on_elided = nullptr,
                     void* ctx = nullptr) noexcept
      : engine_(&engine), on_elided_(on_elided), ctx_(ctx) {}
  ~PollTimer();
  PollTimer(const PollTimer&) = delete;
  PollTimer& operator=(const PollTimer&) = delete;

  /// Something the next round reads has changed: run the next tick.
  void notify() noexcept;
  /// Forget a pending notify(); for a round that starts without a tick
  /// (after waking from an idle park) and reads everything anyway.
  void clear() noexcept {
    assert(!waiting_ && "clear() while a tick is pending");
    notified_ = false;
  }
  [[nodiscard]] bool notified() const noexcept { return notified_; }
  /// A tick is pending in the engine.
  [[nodiscard]] bool waiting() const noexcept { return waiting_; }

 private:
  friend class Engine;
  friend struct PollTickAwaiter;

  /// Hand the skipped rounds over to the hook.
  void report() noexcept {
    if (skipped_ == 0) return;
    const std::uint64_t rounds = skipped_;
    skipped_ = 0;
    if (on_elided_ != nullptr) on_elided_(ctx_, rounds);
  }

  Engine* engine_;
  RoundHook on_elided_;
  void* ctx_;
  std::coroutine_handle<> waiter_;
  Time due_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t skipped_ = 0;  ///< elided rounds not yet reported
  PollTimer* next_ = nullptr;  ///< next tick in the lane
  std::uint32_t lane_ = UINT32_MAX;  ///< lane of the last arm(), kept for re-arms
  bool notified_ = false;
  bool waiting_ = false;
};

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `fn` (any void() callable) at absolute time `t` (>= now()).
  template <typename F>
  void at(Time t, F&& fn) {
    EvNode* node = make_node(t);
    bind_callable(node, std::forward<F>(fn));
    enqueue(node);
  }

  /// Schedule `fn` after `d` nanoseconds (d >= 0).
  template <typename F>
  void after(Duration d, F&& fn) {
    at(now_ + d, std::forward<F>(fn));
  }

  /// Run until no events remain or stop() is called. Poll timers nobody
  /// notified do not keep it running: nothing could ever notify them.
  void run();

  /// Run events with timestamp <= `t`; afterwards now() == t (even if the
  /// queue drained early). Returns number of events processed.
  std::uint64_t run_until(Time t);

  /// Convenience: run_until(now() + d).
  std::uint64_t run_for(Duration d) { return run_until(now_ + d); }

  /// Ask run()/run_until() to return after the current event.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Real events dispatched; elided poll ticks are not counted.
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }
  /// Scheduled events plus poll timers waiting for their tick.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    std::size_t n = live_nodes_;
    for (const Lane& lane : lanes_) n += lane.size;
    return n;
  }
  /// Poll ticks that fired with nobody notified: rounds skipped without
  /// running the poller.
  [[nodiscard]] std::uint64_t ticks_elided() const noexcept { return ticks_elided_; }

 private:
  friend class PollTimer;
  friend struct PollTickAwaiter;

  // Wheel geometry: 2048 buckets of 128 ns cover a 262 us window — wide
  // enough that doorbell stores, switch hops, media service, poll
  // intervals, and retry backoffs all land in the wheel; only ms-scale
  // watchdogs visit the overflow list.
  static constexpr unsigned kSlotShift = 7;            ///< 128 ns per bucket
  static constexpr std::size_t kSlots = 2048;          ///< live window, power of two
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  static constexpr std::size_t kBitmapWords = kSlots / 64;
  /// Inline callable storage. Sized for the largest hot-path captures
  /// (fabric delivery lambdas carrying a small vector plus a resolved
  /// target); anything bigger takes the heap-box fallback.
  static constexpr std::size_t kInlineBytes = 88;
  static constexpr std::size_t kChunkNodes = 1024;  ///< arena growth; > a QD 32x4 run's events

  /// One scheduled event: intrusive list node + type-erased callable. Fields are
  /// set on use (make_node, bind_callable), so a fresh chunk stays untouched.
  struct EvNode {
    Time t;
    std::uint64_t seq;  ///< FIFO among equal timestamps
    EvNode* next;
    void (*run)(EvNode*);   ///< invoke, then destroy the callable
    void (*drop)(EvNode*);  ///< destroy without invoking (teardown)
    alignas(std::max_align_t) std::byte storage[kInlineBytes];
  };
  struct Bucket {
    EvNode* head = nullptr;
    EvNode* tail = nullptr;
  };

  template <typename F>
  static void bind_callable(EvNode* node, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "event callable must be void()");
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(node->storage)) Fn(std::forward<F>(fn));
      node->run = [](EvNode* n) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(n->storage));
        (*f)();
        f->~Fn();
      };
      node->drop = [](EvNode* n) {
        std::launder(reinterpret_cast<Fn*>(n->storage))->~Fn();
      };
    } else {
      ::new (static_cast<void*>(node->storage)) Fn*(new Fn(std::forward<F>(fn)));
      node->run = [](EvNode* n) {
        Fn* f = *std::launder(reinterpret_cast<Fn**>(n->storage));
        (*f)();
        delete f;
      };
      node->drop = [](EvNode* n) {
        delete *std::launder(reinterpret_cast<Fn**>(n->storage));
      };
    }
  }

  [[nodiscard]] static std::uint64_t slot_of(Time t) noexcept {
    return static_cast<std::uint64_t>(t) >> kSlotShift;
  }

  [[nodiscard]] EvNode* make_node(Time t);
  void enqueue(EvNode* node);
  void insert_bucket(std::uint64_t abs_slot, EvNode* node);
  /// The earliest scheduled event, or nullptr. Never moves the window: a
  /// poll tick due before this event may still schedule earlier ones.
  [[nodiscard]] EvNode* peek_node();
  /// Unlink `head`, which peek_node() just returned.
  [[nodiscard]] EvNode* take_node(EvNode* head);
  /// Jump the window to the earliest overflow event and move everything
  /// that now fits into the wheel (the wheel must be empty).
  void refill(Time min_t);
  [[nodiscard]] std::uint64_t scan_bitmap(std::uint64_t start_phys) const;
  void recycle(EvNode* node) noexcept;
  void drop_all() noexcept;
  /// Dispatch events and ticks with t <= limit in (t, seq) order until
  /// stop(); with `until_idle`, also return once only unnotified timers
  /// remain. Returns the number of events dispatched.
  std::uint64_t dispatch(Time limit, bool until_idle);

  // --- poll timers ------------------------------------------------------------
  /// The waiting timers of one poll period, in (due, seq) order.
  struct Lane {
    Duration period = 0;
    PollTimer* head = nullptr;
    PollTimer* tail = nullptr;
    std::size_t size = 0;
    std::size_t notified = 0;  ///< waiting timers with notify() set
  };

  void arm(PollTimer& timer, Duration period, std::coroutine_handle<> h);
  /// Resume the poller of the notified timer `first_`.
  void fire_tick(PollTimer& timer);
  /// Elide unnotified ticks of the lane of `first_` that precede the next
  /// real event `head`, every other lane and `limit`: rotate the whole lane
  /// when its last tick comes first, else take its heads one round each.
  /// False if `timer`'s tick cannot move: its next one would pass the end
  /// of time.
  bool elide_ticks(PollTimer& timer, const EvNode* head, Time limit);
  /// Hand every waiting timer's skipped rounds over to its hook.
  void report_all() noexcept;
  /// The lane of `period`: the timer's last one (`hint`), another existing
  /// one, or a new one. Lanes live as long as the engine.
  [[nodiscard]] std::uint32_t lane_for(std::uint32_t hint, Duration period);
  void push(Lane& lane, PollTimer& timer) noexcept;
  void pop(Lane& lane) noexcept;
  /// Recompute `first_` from the lane heads.
  void find_first() noexcept;
  [[nodiscard]] static bool earlier(const PollTimer& a, const PollTimer& b) noexcept {
    return a.due_ < b.due_ || (a.due_ == b.due_ && a.seq_ < b.seq_);
  }

  // --- calendar wheel -------------------------------------------------------
  std::unique_ptr<Bucket[]> buckets_;        ///< kSlots, indexed abs_slot & kSlotMask
  std::uint64_t bitmap_[kBitmapWords] = {};  ///< non-empty buckets (physical index)
  std::vector<EvNode*> overflow_;            ///< events past the window, unordered
  EvNode* overflow_min_ = nullptr;           ///< earliest (t, seq) in overflow_
  std::uint64_t peek_phys_ = 0;              ///< bucket of the last peek_node()
  std::vector<EvNode*> refill_scratch_;
  std::uint64_t window_slot_ = 0;  ///< abs slot of the window base
  std::uint64_t cursor_slot_ = 0;  ///< abs slot the dispatch cursor reached
  std::size_t wheel_count_ = 0;    ///< events currently in buckets

  // --- node arena -----------------------------------------------------------
  std::vector<std::unique_ptr<EvNode[]>> chunks_;
  std::size_t chunk_used_ = kChunkNodes;  ///< forces the first chunk allocation
  EvNode* free_list_ = nullptr;
  std::size_t live_nodes_ = 0;  ///< scheduled and not yet fired

  // --- poll timers ------------------------------------------------------------
  std::vector<Lane> lanes_;      ///< one per period ever armed
  PollTimer* first_ = nullptr;   ///< earliest lane head: the next tick
  std::uint64_t ticks_elided_ = 0;

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

inline void PollTimer::notify() noexcept {
  if (notified_) return;
  notified_ = true;
  if (waiting_) {
    ++engine_->lanes_[lane_].notified;
    report();
  }
}

// A pending tick holds the timer's address, and only the tick resumes the
// frame the timer lives in; the engine's teardown clears `waiting_`.
inline PollTimer::~PollTimer() { assert(!waiting_ && "poll timer destroyed with a tick pending"); }

}  // namespace nvmeshare::sim
