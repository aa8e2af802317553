#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/log.hpp"

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
/// Poll timers a simulation holds before the heap grows (one per client
/// poller, target connection, manager mailbox and local driver).
constexpr std::size_t kTimerReserve = 256;
/// Events past the wheel window (command deadlines, ms-scale watchdogs) a
/// simulation holds before the overflow list grows.
constexpr std::size_t kOverflowReserve = 1024;
}  // namespace

Engine::Engine() : buckets_(std::make_unique<Bucket[]>(kSlots)) {
  timers_.reserve(kTimerReserve);
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
  EvNode* node;
  if (free_list_ != nullptr) {
    node = free_list_;
    free_list_ = node->next;
  } else {
    if (chunk_used_ == kChunkNodes) {
      chunks_.push_back(std::make_unique<EvNode[]>(kChunkNodes));
      chunk_used_ = 0;
    }
    node = &chunks_.back()[chunk_used_++];
  }
  node->t = t < now_ ? now_ : t;
  node->seq = seq_++;
  node->next = nullptr;
  return node;
}

void Engine::recycle(EvNode* node) noexcept {
  node->next = free_list_;
  free_list_ = node;
}

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
    if (!timers_.empty()) {
      PollTimer& timer = *timers_.front();
      if (head == nullptr || timer.due_ < head->t ||
          (timer.due_ == head->t && timer.seq_ < head->seq)) {
        if (timer.due_ > limit) break;
        if (timer.notified_) {
          fire_tick(timer);
          ++n;
          continue;
        }
        // Nothing can notify a timer any more: only unnotified ticks remain.
        if (head == nullptr && until_idle && notified_waiting_ == 0) break;
        elide_ticks(timer, head, limit);
        continue;
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
  return n;
}

void Engine::run() {
  stopped_ = false;
  (void)dispatch(std::numeric_limits<Time>::max(), /*until_idle=*/true);
}

std::uint64_t Engine::run_until(Time t) {
  stopped_ = false;
  const std::uint64_t n = dispatch(t, /*until_idle=*/false);
  if (!stopped_ && now_ < t) now_ = t;
  return n;
}

// --- poll timers -----------------------------------------------------------------

void Engine::arm(PollTimer& timer, Duration period, std::coroutine_handle<> h) {
  assert(!timer.waiting_ && "poll timer armed twice");
  // The key the delay node of the same round would have taken.
  timer.due_ = now_ + period;
  timer.seq_ = seq_++;
  timer.period_ = period;
  timer.waiter_ = h;
  timer.waiting_ = true;
  if (timer.notified_) ++notified_waiting_;
  timers_.push_back(&timer);
  sift_up(timers_.size() - 1);
}

void Engine::fire_tick(PollTimer& timer) {
  timers_.front() = timers_.back();
  timers_.pop_back();
  if (!timers_.empty()) sift_down(0);
  timer.waiting_ = false;
  --notified_waiting_;
  now_ = timer.due_;
  ++processed_;
  timer.waiter_.resume();
}

void Engine::elide_ticks(PollTimer& timer, const EvNode* head, Time limit) {
  // The first tick is known to come first. Each later one carries a seq
  // newer than every key already waiting, so it precedes the next event
  // or the next timer only if it is strictly earlier in time; the
  // follow-up delay of every elided round consumes one seq.
  const Time due = timer.due_;
  const Duration period = timer.period_;
  Time bound = std::numeric_limits<Time>::max();
  if (head != nullptr) bound = head->t;
  for (std::size_t child = 1; child <= 2 && child < timers_.size(); ++child) {
    bound = std::min(bound, timers_[child]->due_);
  }
  auto more = static_cast<std::uint64_t>((limit - due) / period);
  if (bound != std::numeric_limits<Time>::max()) {
    more = std::min(more, bound > due ? static_cast<std::uint64_t>((bound - due - 1) / period)
                                      : std::uint64_t{0});
  }
  // run_until(max) with nothing else pending: stop short of overflowing.
  const auto room = static_cast<std::uint64_t>((std::numeric_limits<Time>::max() - due) / period);
  if (more >= room) more = room - 1;
  const std::uint64_t rounds = more + 1;
  timer.due_ = due + static_cast<Time>(rounds) * period;
  timer.seq_ = seq_ + more;
  seq_ += rounds;
  ticks_elided_ += rounds;
  if (timer.on_elided_ != nullptr) timer.on_elided_(timer.ctx_, rounds);
  sift_down(0);
}

void Engine::sift_up(std::size_t i) noexcept {
  PollTimer* t = timers_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(*t, *timers_[parent])) break;
    timers_[i] = timers_[parent];
    i = parent;
  }
  timers_[i] = t;
}

void Engine::sift_down(std::size_t i) noexcept {
  PollTimer* t = timers_[i];
  const std::size_t n = timers_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(*timers_[child + 1], *timers_[child])) ++child;
    if (!earlier(*timers_[child], *t)) break;
    timers_[i] = timers_[child];
    i = child;
  }
  timers_[i] = t;
}

void Engine::drop_all() noexcept {
  for (std::size_t phys = 0; phys < kSlots; ++phys) {
    for (EvNode* node = buckets_[phys].head; node != nullptr; node = node->next) {
      node->drop(node);
    }
    buckets_[phys].head = buckets_[phys].tail = nullptr;
  }
  for (EvNode* node : overflow_) node->drop(node);
  overflow_.clear();
  overflow_min_ = nullptr;
  wheel_count_ = 0;
  live_nodes_ = 0;
  // Pollers parked on a tick stay parked, like coroutines behind a node.
  for (PollTimer* timer : timers_) timer->waiting_ = false;
  timers_.clear();
  notified_waiting_ = 0;
}

}  // namespace nvmeshare::sim
