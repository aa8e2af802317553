#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/log.hpp"
#include "sim/pool.hpp"

namespace nvmeshare::sim {

namespace {
// The logger stamps messages with the most recently constructed engine's
// clock; simulations use one engine at a time.
Engine* g_logging_engine = nullptr;

long long log_time_provider() {
  return g_logging_engine ? static_cast<long long>(g_logging_engine->now()) : -1;
}
}  // namespace

namespace {
/// Distinct poll periods a simulation waits on before the lane list grows
/// (client poller, target reactor, manager mailbox, local driver).
constexpr std::size_t kLaneReserve = 8;
/// Events past the wheel window (command deadlines, ms-scale watchdogs) a
/// simulation holds before the overflow list grows.
constexpr std::size_t kOverflowReserve = 1024;
}  // namespace

Engine::Engine() : buckets_(std::make_unique<Bucket[]>(kSlots)) {
  lanes_.reserve(kLaneReserve);
  overflow_.reserve(kOverflowReserve);
  refill_scratch_.reserve(kOverflowReserve);
  g_logging_engine = this;
  log::set_time_provider(&log_time_provider);
}

Engine::~Engine() {
  drop_all();
  if (g_logging_engine == this) {
    g_logging_engine = nullptr;
    log::set_time_provider(nullptr);
  }
}

Engine::EvNode* Engine::make_node(Time t) {
  assert(t >= now_ && "cannot schedule into the past");
  static_assert(pool::block_size(sizeof(EvNode)) == sizeof(EvNode),
                "size-class rounding must not grow an event node");
  EvNode* node = ::new (pool::allocate(sizeof(EvNode))) EvNode;
  node->t = t < now_ ? now_ : t;
  node->seq = seq_++;
  node->next = nullptr;
  return node;
}

void Engine::recycle(EvNode* node) noexcept { pool::deallocate(node, sizeof(EvNode)); }

void Engine::enqueue(EvNode* node) {
  ++live_nodes_;
  const std::uint64_t slot = slot_of(node->t);
  if (slot >= window_slot_ + kSlots && wheel_count_ == 0) {
    // Poll ticks carried the clock past a drained window: rebase it on now
    // (every pending event is at or after now), or everything scheduled
    // from here would detour through the overflow list.
    refill(now_);
  }
  if (slot >= window_slot_ + kSlots) {
    overflow_.push_back(node);
    // The newest seq: earlier only if strictly earlier in time.
    if (overflow_min_ == nullptr || node->t < overflow_min_->t) overflow_min_ = node;
    return;
  }
  // t >= now_ guarantees slot >= cursor_slot_, so the event is never
  // inserted behind the dispatch cursor.
  insert_bucket(slot, node);
}

void Engine::insert_bucket(std::uint64_t abs_slot, EvNode* node) {
  const std::uint64_t phys = abs_slot & kSlotMask;
  Bucket& b = buckets_[phys];
  node->next = nullptr;
  if (b.head == nullptr) {
    b.head = b.tail = node;
    bitmap_[phys >> 6] |= 1ull << (phys & 63);
  } else if (b.tail->t <= node->t) {
    // Common case: appended events carry the latest (t, seq), so FIFO
    // order among equal timestamps is the tail position.
    b.tail->next = node;
    b.tail = node;
  } else {
    // Rare: an earlier timestamp landed behind a later one in the same
    // 128 ns bucket — walk to the position after everything <= t.
    EvNode** link = &b.head;
    while (*link != nullptr && (*link)->t <= node->t) link = &(*link)->next;
    node->next = *link;
    *link = node;
  }
  ++wheel_count_;
}

std::uint64_t Engine::scan_bitmap(std::uint64_t start_phys) const {
  // Wrapped scan from the cursor. Physical slots "behind" the cursor are
  // guaranteed empty (the cursor passed them and inserts clamp to
  // t >= now), so the first set bit in wrap order is the earliest bucket.
  std::uint64_t w = start_phys >> 6;
  std::uint64_t word = bitmap_[w] & (~0ull << (start_phys & 63));
  for (std::size_t i = 0; i <= kBitmapWords; ++i) {
    if (word != 0) {
      return (w << 6) + static_cast<std::uint64_t>(std::countr_zero(word));
    }
    w = (w + 1) & (kBitmapWords - 1);
    word = bitmap_[w];
  }
  assert(false && "scan_bitmap on an empty wheel");
  return 0;
}

void Engine::refill(Time min_t) {
  // The wheel is empty, so every physical bucket is free and the window
  // can be rebased with no rotation bookkeeping.
  window_slot_ = slot_of(min_t);
  cursor_slot_ = window_slot_;
  refill_scratch_.clear();
  std::size_t kept = 0;
  overflow_min_ = nullptr;
  for (EvNode* node : overflow_) {
    if (slot_of(node->t) < window_slot_ + kSlots) {
      refill_scratch_.push_back(node);
    } else {
      overflow_[kept++] = node;
      if (overflow_min_ == nullptr || node->t < overflow_min_->t ||
          (node->t == overflow_min_->t && node->seq < overflow_min_->seq)) {
        overflow_min_ = node;
      }
    }
  }
  overflow_.resize(kept);
  // Reinsert in (t, seq) order so every bucket append hits the O(1) tail
  // path and FIFO among equal timestamps survives the detour.
  std::sort(refill_scratch_.begin(), refill_scratch_.end(),
            [](const EvNode* a, const EvNode* b) {
              if (a->t != b->t) return a->t < b->t;
              return a->seq < b->seq;
            });
  for (EvNode* node : refill_scratch_) insert_bucket(slot_of(node->t), node);
  refill_scratch_.clear();
}

Engine::EvNode* Engine::peek_node() {
  // Every wheel event precedes every overflow event, so the overflow only
  // matters once the wheel drained.
  if (wheel_count_ == 0) return overflow_min_;
  peek_phys_ = scan_bitmap(cursor_slot_ & kSlotMask);
  return buckets_[peek_phys_].head;
}

Engine::EvNode* Engine::take_node(EvNode* head) {
  if (wheel_count_ == 0) {
    // `head` is the earliest overflow event and is due now: rebase the
    // window on it.
    refill(head->t);
    peek_phys_ = scan_bitmap(cursor_slot_ & kSlotMask);
  }
  // The cursor is committed only when an event is taken: parking it on a
  // later bucket would let inserts at t >= now but before that bucket land
  // behind the cursor, where the wrapped bitmap scan would misorder them.
  const std::uint64_t phys = peek_phys_;
  cursor_slot_ += (phys - (cursor_slot_ & kSlotMask)) & kSlotMask;
  Bucket& b = buckets_[phys];
  assert(b.head == head);
  b.head = head->next;
  if (b.head == nullptr) {
    b.tail = nullptr;
    bitmap_[phys >> 6] &= ~(1ull << (phys & 63));
  }
  --wheel_count_;
  --live_nodes_;
  return head;
}

std::uint64_t Engine::dispatch(Time limit, bool until_idle) {
  std::uint64_t n = 0;
  while (!stopped_) {
    EvNode* head = peek_node();
    if (first_ != nullptr) {
      PollTimer& timer = *first_;
      if (head == nullptr || timer.due_ < head->t ||
          (timer.due_ == head->t && timer.seq_ < head->seq)) {
        if (timer.due_ > limit) break;
        if (timer.notified_) {
          fire_tick(timer);
          ++n;
          continue;
        }
        // Nothing can notify a timer any more: only unnotified ticks remain.
        if (head == nullptr && until_idle &&
            std::none_of(lanes_.begin(), lanes_.end(),
                         [](const Lane& lane) { return lane.notified != 0; })) {
          break;
        }
        if (elide_ticks(timer, head, limit)) continue;
        // Its next tick would pass the end of time: it never comes.
      }
    }
    if (head == nullptr || head->t > limit) break;
    EvNode* node = take_node(head);
    now_ = node->t;
    ++processed_;
    ++n;
    node->run(node);
    recycle(node);
  }
  report_all();
  return n;
}

void Engine::run() {
  stopped_ = false;
  (void)dispatch(std::numeric_limits<Time>::max(), /*until_idle=*/true);
}

std::uint64_t Engine::run_until(Time t) {
  stopped_ = false;
  const std::uint64_t n = dispatch(t, /*until_idle=*/false);
  // A tick due by `t` that could not be elided (its next tick would pass the
  // end of time) still waits, and a later notify() fires it at its own due
  // time: the clock stops there.
  const Time to = first_ != nullptr ? std::min(t, first_->due_) : t;
  if (!stopped_ && now_ < to) now_ = to;
  return n;
}

// --- poll timers -----------------------------------------------------------------

void Engine::arm(PollTimer& timer, Duration period, std::coroutine_handle<> h) {
  assert(!timer.waiting_ && "poll timer armed twice");
  // The key the delay node of the same round would have taken.
  timer.due_ = now_ + period;
  timer.seq_ = seq_++;
  timer.waiter_ = h;
  timer.waiting_ = true;
  timer.lane_ = lane_for(timer.lane_, period);
  Lane& lane = lanes_[timer.lane_];
  if (timer.notified_) ++lane.notified;
  push(lane, timer);
  if (first_ == nullptr || earlier(timer, *first_)) first_ = &timer;
}

std::uint32_t Engine::lane_for(std::uint32_t hint, Duration period) {
  if (hint < lanes_.size() && lanes_[hint].period == period) return hint;
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].period == period) return i;
  }
  lanes_.push_back(Lane{period});
  return static_cast<std::uint32_t>(lanes_.size() - 1);
}

void Engine::push(Lane& lane, PollTimer& timer) noexcept {
  // Every tick in the lane was pushed at an earlier round of dispatch order,
  // so it is due no later than this one and carries an older seq.
  assert(lane.tail == nullptr || earlier(*lane.tail, timer));
  timer.next_ = nullptr;
  if (lane.tail == nullptr) {
    lane.head = &timer;
  } else {
    lane.tail->next_ = &timer;
  }
  lane.tail = &timer;
  ++lane.size;
}

void Engine::pop(Lane& lane) noexcept {
  lane.head = lane.head->next_;
  if (lane.head == nullptr) lane.tail = nullptr;
  --lane.size;
}

void Engine::find_first() noexcept {
  first_ = nullptr;
  for (const Lane& lane : lanes_) {
    if (lane.head != nullptr && (first_ == nullptr || earlier(*lane.head, *first_))) {
      first_ = lane.head;
    }
  }
}

void Engine::fire_tick(PollTimer& timer) {
  Lane& lane = lanes_[timer.lane_];
  pop(lane);
  --lane.notified;
  find_first();
  timer.waiting_ = false;
  now_ = timer.due_;
  ++processed_;
  // Only a notified tick fires, and notify() of a waiting timer already
  // handed its skipped rounds over: the round starts with the count exact.
  assert(timer.skipped_ == 0);
  timer.waiter_.resume();
}

namespace {
constexpr Time kNever = std::numeric_limits<Time>::max();

/// Ticks after the one at `from`, `period` apart, that are strictly before
/// `bound` (kNever: none) and at or before `last`.
std::uint64_t more_rounds(Time from, Time bound, Time last, Duration period) {
  const Time span = std::min(last - from, bound - from - 1);
  return span > 0 ? static_cast<std::uint64_t>(span / period) : 0;
}
}  // namespace

bool Engine::elide_ticks(PollTimer& timer, const EvNode* head, Time limit) {
  Lane& lane = lanes_[timer.lane_];
  const Duration period = lane.period;
  // The last tick this call may elide: due in the run, and with a next
  // tick that does not pass the end of time (run_until(max)).
  const Time last = std::min(limit, kNever - period);
  // The earliest key outside this lane: the next event or another lane
  // head. Eliding moves neither.
  Time bound_t = head != nullptr ? head->t : kNever;
  std::uint64_t bound_seq = head != nullptr ? head->seq : UINT64_MAX;
  for (const Lane& other : lanes_) {
    const PollTimer* h = other.head;
    if (&other != &lane && h != nullptr &&
        (h->due_ < bound_t || (h->due_ == bound_t && h->seq_ < bound_seq))) {
      bound_t = h->due_;
      bound_seq = h->seq_;
    }
  }
  // A tick of this lane comes next if it precedes that key and is due in the run.
  const auto next = [=](const PollTimer& t) {
    return t.due_ <= last && (t.due_ < bound_t || (t.due_ == bound_t && t.seq_ < bound_seq));
  };
  if (timer.due_ > last) return false;  // `timer` comes first: only `last` can stop it
  if (lane.notified == 0 && next(*lane.tail)) {
    // Whole-lane rotation. Every tick in the lane is due within one period
    // of the first, so single elisions would take the lane's timers in turn,
    // one round each, until the last tick of a rotation reaches the next
    // key or passes `limit`: k rotations are k * size single elisions, and
    // timer i ends with the seq its last one would have taken. Every later
    // tick carries a seq newer than every key already waiting, so it
    // precedes a key outside the lane only if it is strictly earlier. A
    // lone timer is a lane of one, whose tick is known to come first.
    const std::uint64_t rounds = more_rounds(lane.tail->due_, bound_t, last, period) + 1;
    std::uint64_t seq = seq_ + (rounds - 1) * lane.size;
    for (PollTimer* t = lane.head; t != nullptr; t = t->next_) {
      t->due_ += static_cast<Time>(rounds) * period;
      t->seq_ = seq++;
      t->skipped_ += rounds;
    }
    seq_ += rounds * lane.size;
    ticks_elided_ += rounds * lane.size;
  } else {
    // Single elisions. A lane holding a notified tick, or whose last tick
    // does not come first, has two or more timers, so each elision is one
    // round: the head's next tick is due no earlier than every other tick
    // in the lane and moves to the tail with the newest seq, as the
    // follow-up delay of its round would have.
    PollTimer* t = &timer;
    do {
      pop(lane);
      t->due_ += period;
      t->seq_ = seq_++;
      ++t->skipped_;
      ++ticks_elided_;
      push(lane, *t);
      t = lane.head;
    } while (!t->notified_ && next(*t));
  }
  find_first();
  return true;
}

void Engine::report_all() noexcept {
  for (const Lane& lane : lanes_) {
    for (PollTimer* t = lane.head; t != nullptr; t = t->next_) t->report();
  }
}

void Engine::drop_all() noexcept {
  for (std::size_t phys = 0; phys < kSlots; ++phys) {
    for (EvNode* node = buckets_[phys].head; node != nullptr;) {
      EvNode* const next = node->next;
      node->drop(node);
      recycle(node);
      node = next;
    }
    buckets_[phys].head = buckets_[phys].tail = nullptr;
  }
  for (EvNode* node : overflow_) {
    node->drop(node);
    recycle(node);
  }
  overflow_.clear();
  overflow_min_ = nullptr;
  wheel_count_ = 0;
  live_nodes_ = 0;
  // Pollers parked on a tick stay parked, like coroutines behind a node.
  for (Lane& lane : lanes_) {
    for (PollTimer* timer = lane.head; timer != nullptr; timer = timer->next_) {
      assert(timer->skipped_ == 0 && "dispatch() returned with rounds unreported");
      timer->waiting_ = false;
    }
  }
  lanes_.clear();
  first_ = nullptr;
}

}  // namespace nvmeshare::sim
