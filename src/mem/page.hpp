// Reference-counted 4 KiB pages of simulated memory.
//
// A page's bytes are shared by every PageRef to it and never change while
// more than one reference exists: a holder that stores into a shared page
// first takes a copy of its own (PageRef::writable). Moving a whole page
// between memories, the device's media and an in-flight payload is
// therefore a reference copy, and a later store on either side leaves the
// other side's bytes as they were.
//
// The reference count sits after the 4 KiB data block, so taking or
// dropping a reference touches none of the page's data. Pages are
// sim::pool blocks (sim/pool.hpp), like coroutine frames and event nodes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace nvmeshare::mem {

inline constexpr std::uint64_t kPageSize = 4096;

/// One reference to a page, or none (a null reference). Where a page slot
/// may be null, null reads as zeros.
class PageRef {
 public:
  PageRef() = default;
  PageRef(const PageRef& other) noexcept : page_(other.page_) {
    if (page_ != nullptr) ++page_->refs;
  }
  PageRef(PageRef&& other) noexcept : page_(std::exchange(other.page_, nullptr)) {}
  PageRef& operator=(const PageRef& other) noexcept {
    PageRef(other).swap(*this);
    return *this;
  }
  PageRef& operator=(PageRef&& other) noexcept {
    PageRef(std::move(other)).swap(*this);
    return *this;
  }
  ~PageRef() { reset(); }

  void swap(PageRef& other) noexcept { std::swap(page_, other.page_); }

  explicit operator bool() const noexcept { return page_ != nullptr; }
  /// The page's bytes; the reference must not be null.
  [[nodiscard]] const std::byte* data() const noexcept { return page_->bytes; }

  /// This reference's bytes, made its own first: a null reference gets a
  /// new page and a shared one a private copy. With `overwrite` the caller
  /// stores to all kPageSize bytes before reading any, so a new page is
  /// neither zero-filled nor copied into.
  [[nodiscard]] std::byte* writable(bool overwrite);

  void reset() noexcept {
    if (page_ != nullptr && --page_->refs == 0) release(page_);
    page_ = nullptr;
  }

 private:
  struct Page {
    std::byte bytes[kPageSize];
    std::uint32_t refs;
  };
  static_assert(offsetof(Page, refs) == kPageSize);

  static Page* allocate();
  static void release(Page* p) noexcept;

  Page* page_ = nullptr;
};

/// Call fn(page_index, offset, n) for each run of [addr, addr + len) that
/// stays within one page, in address order.
template <typename Fn>
void for_each_page_run(std::uint64_t addr, std::uint64_t len, Fn&& fn) {
  while (len > 0) {
    const std::uint64_t off = addr % kPageSize;
    const std::uint64_t n = std::min(len, kPageSize - off);
    fn(addr / kPageSize, off, n);
    addr += n;
    len -= n;
  }
}

}  // namespace nvmeshare::mem
