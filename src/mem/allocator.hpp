// First-fit free-list allocator over a physical address range. Used for
// carving SISCI segments out of host DRAM: segments must be physically
// contiguous (the paper's segments are linear contiguous regions so that a
// single NTB translation covers them).
#pragma once

#include <cstdint>
#include <map>

#include "common/status.hpp"

namespace nvmeshare::mem {

class RangeAllocator {
 public:
  /// Manages [base, base+size).
  RangeAllocator(std::uint64_t base, std::uint64_t size);

  /// Allocate `size` bytes aligned to `align` (power of two, >= 1).
  Result<std::uint64_t> alloc(std::uint64_t size, std::uint64_t align = 64);

  /// Free a previous allocation by its base address.
  Status free(std::uint64_t addr);

  [[nodiscard]] std::uint64_t bytes_free() const noexcept { return bytes_free_; }
  [[nodiscard]] std::uint64_t bytes_used() const noexcept { return size_ - bytes_free_; }

 private:
  std::uint64_t base_;
  std::uint64_t size_;
  std::uint64_t bytes_free_;
  std::map<std::uint64_t, std::uint64_t> free_;       // start -> length
  std::map<std::uint64_t, std::uint64_t> allocated_;  // start -> length
};

}  // namespace nvmeshare::mem
