// Sparse simulated physical memory (DRAM) for one host.
//
// Pages materialize on first write; reads of untouched memory return zeroes,
// like freshly-allocated RAM. All DMA in the simulator ultimately lands
// here, so data-integrity tests observe exactly what a device would have
// written over the fabric. For the same reason a write watch here sees
// every store into a range, whichever path made it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "sim/engine.hpp"

namespace nvmeshare::mem {

class PhysMem {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  /// A memory of `size` bytes starting at physical address 0.
  explicit PhysMem(std::uint64_t size) : size_(size) {}

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Copy bytes out of memory. Fails with out_of_range past the end.
  Status read(std::uint64_t addr, ByteSpan out) const;

  /// Copy bytes into memory.
  Status write(std::uint64_t addr, ConstByteSpan in);

  /// Read a trivially-copyable value.
  template <typename T>
  [[nodiscard]] Result<T> read_pod(std::uint64_t addr) const {
    T v{};
    if (Status st = read(addr, as_writable_bytes_of(v)); !st) return st;
    return v;
  }

  /// Write a trivially-copyable value.
  template <typename T>
  Status write_pod(std::uint64_t addr, const T& v) {
    return write(addr, as_bytes_of(v));
  }

  /// Number of pages that have been materialized (for tests / footprint).
  [[nodiscard]] std::size_t resident_pages() const noexcept { return pages_.size(); }

  /// Notify `timer` after every write that overlaps [addr, addr+len): a
  /// poller skips its empty rounds until memory it polls changes. Returns
  /// the id unwatch() takes.
  std::uint64_t watch(std::uint64_t addr, std::uint64_t len, sim::PollTimer& timer);
  void unwatch(std::uint64_t id) noexcept;

 private:
  using Page = std::array<std::byte, kPageSize>;
  struct Watch {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;  ///< exclusive
    sim::PollTimer* timer = nullptr;
    std::uint64_t id = 0;
  };

  [[nodiscard]] const Page* find_page(std::uint64_t page_index) const;
  Page& materialize_page(std::uint64_t page_index);
  void notify_watches(std::uint64_t addr, std::uint64_t len) noexcept;

  std::uint64_t size_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  std::vector<Watch> watches_;
  std::uint64_t next_watch_id_ = 1;
};

/// A PhysMem write watch, removed on destruction. The memory must outlive
/// the handle.
class WriteWatch {
 public:
  WriteWatch() = default;
  WriteWatch(PhysMem& mem, std::uint64_t addr, std::uint64_t len, sim::PollTimer& timer)
      : mem_(&mem), id_(mem.watch(addr, len, timer)) {}
  WriteWatch(WriteWatch&& other) noexcept
      : mem_(std::exchange(other.mem_, nullptr)), id_(other.id_) {}
  WriteWatch& operator=(WriteWatch&& other) noexcept {
    if (this != &other) {
      reset();
      mem_ = std::exchange(other.mem_, nullptr);
      id_ = other.id_;
    }
    return *this;
  }
  WriteWatch(const WriteWatch&) = delete;
  WriteWatch& operator=(const WriteWatch&) = delete;
  ~WriteWatch() { reset(); }

  void reset() noexcept {
    if (mem_ != nullptr) std::exchange(mem_, nullptr)->unwatch(id_);
  }

 private:
  PhysMem* mem_ = nullptr;
  std::uint64_t id_ = 0;
};

}  // namespace nvmeshare::mem
