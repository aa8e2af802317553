#include "sim/pool.hpp"

namespace nvmeshare::sim::pool::detail {

namespace {

static_assert(kSlabBytes >= kMaxPooled, "a slab must hold the largest block");

/// The uncarved rest of a size class's current slab.
struct Slab {
  std::byte* next = nullptr;
  std::byte* end = nullptr;
};

constinit thread_local Slab t_slab[kClasses];

}  // namespace

constinit thread_local FreeBlock* t_head[kClasses] = {};

void* carve(std::size_t c) {
  const std::size_t bytes = (c + 1) * kGranule;
  Slab& slab = t_slab[c];
  if (static_cast<std::size_t>(slab.end - slab.next) < bytes) {
    // The tail of the old slab, shorter than one block, stays unused.
    slab.next = static_cast<std::byte*>(::operator new(kSlabBytes));
    slab.end = slab.next + kSlabBytes / bytes * bytes;
  }
  void* block = slab.next;
  slab.next += bytes;
  return block;
}

}  // namespace nvmeshare::sim::pool::detail
