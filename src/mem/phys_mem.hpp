// Sparse simulated physical memory (DRAM) for one host.
//
// Pages materialize on first write; reads of untouched memory return zeroes,
// like freshly-allocated RAM. All DMA in the simulator ultimately lands
// here, so data-integrity tests observe exactly what a device would have
// written over the fabric. For the same reason a write watch here sees
// every store into a range, whichever path made it.
//
// The pages sit in a mem::PageTable (mem/page_table.hpp) sized from the
// memory's size: a page lookup is three loads, and the memory pays 4 KiB of
// index per 2 MiB region it ever stored into.
//
// Pages are copy-on-write (mem/page.hpp): a copy or payload install of a
// whole aligned page shares the page instead of copying its bytes, and a
// store into a shared page first gives this memory a copy of its own.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "mem/page.hpp"
#include "mem/page_table.hpp"
#include "mem/payload.hpp"
#include "sim/engine.hpp"

namespace nvmeshare::mem {

class PhysMem {
 public:
  static constexpr std::uint64_t kPageSize = mem::kPageSize;

  /// A memory of `size` bytes starting at physical address 0.
  explicit PhysMem(std::uint64_t size)
      : size_(size), pages_((size + kPageSize - 1) / kPageSize) {}

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Copy bytes out of memory. Fails with out_of_range past the end.
  Status read(std::uint64_t addr, ByteSpan out) const;

  /// Copy bytes into memory.
  Status write(std::uint64_t addr, ConstByteSpan in);

  /// Copy `len` bytes from [src_addr, src_addr+len) of `src` (another
  /// memory or this one) to [dst, dst+len) of this memory, run by run with
  /// no staging buffer; a run that is a whole aligned page on both sides
  /// shares the page. Overlapping ranges copy as memmove does. Source pages
  /// never written read as zeroes; destination pages materialize and
  /// watches fire exactly as for one write() of the range. Either range out
  /// of bounds fails with out_of_range before any byte moves.
  Status copy_from(std::uint64_t dst, const PhysMem& src, std::uint64_t src_addr,
                   std::uint64_t len);

  /// Append [addr, addr+len) to `out`: whole aligned pages by reference
  /// (never-written ones as zeros), the rest copied.
  Status read(std::uint64_t addr, std::uint64_t len, Payload& out) const;

  /// Store the next `len` bytes of `in` at [addr, addr+len), taking each
  /// whole piece that lines up with a whole page by reference. Pages
  /// materialize and watches fire exactly as for write() of the same bytes.
  /// `in` advances only when the range is in bounds and `in` holds `len`
  /// more bytes.
  Status write(std::uint64_t addr, PayloadReader& in, std::uint64_t len);

  /// Call fn(ConstByteSpan) on each page run of [addr, addr+len) in address
  /// order, in place: no byte is copied, and a never-written page reads as
  /// zeros. A range out of bounds fails with out_of_range before fn sees
  /// any byte.
  template <typename Fn>
  Status for_each_run(std::uint64_t addr, std::uint64_t len, Fn&& fn) const {
    if (len == 0) return Status::ok();
    NVS_RETURN_IF_ERROR(check_range(addr, len, "phys read past end of DRAM"));
    for_each_page_run(addr, len, [&](std::uint64_t page, std::uint64_t off, std::uint64_t n) {
      const PageRef& p = pages_.get(page);
      fn(ConstByteSpan((p ? p.data() : kZeros) + off, n));
    });
    return Status::ok();
  }

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
  [[nodiscard]] std::size_t resident_pages() const noexcept { return pages_.resident(); }

  /// Notify `timer` after every write that overlaps [addr, addr+len): a
  /// poller skips its empty rounds until memory it polls changes. Returns
  /// the id unwatch() takes.
  std::uint64_t watch(std::uint64_t addr, std::uint64_t len, sim::PollTimer& timer);
  void unwatch(std::uint64_t id) noexcept;

 private:
  struct Watch {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;  ///< exclusive
    sim::PollTimer* timer = nullptr;
    std::uint64_t id = 0;
  };

  /// What a page that never materialized reads as.
  static constexpr std::byte kZeros[kPageSize] = {};

  [[nodiscard]] Status check_range(std::uint64_t addr, std::uint64_t len,
                                   const char* what) const;
  void notify_watches(std::uint64_t addr, std::uint64_t len) noexcept;

  std::uint64_t size_;
  PageTable pages_;
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
