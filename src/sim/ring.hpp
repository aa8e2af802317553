// A FIFO whose storage only grows: once a ring has held its peak backlog,
// pushes and pops reuse the same slots and never allocate. Mailboxes, RDMA
// RECV queues and the multiplexer's staging rings sit on it.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace nvmeshare::sim {

template <typename T>
class Ring {
 public:
  void push_back(T&& item) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) % slots_.size()].emplace(std::move(item));
    ++count_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] T& front() noexcept {
    assert(count_ != 0 && "front() of an empty ring");
    return *slots_[head_];
  }

  void pop_front() noexcept {
    assert(count_ != 0 && "pop_front() of an empty ring");
    slots_[head_].reset();
    head_ = (head_ + 1) % slots_.size();
    --count_;
  }

 private:
  void grow() {
    std::vector<std::optional<T>> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) % slots_.size()]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<std::optional<T>> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace nvmeshare::sim
