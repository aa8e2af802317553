// The simulator's one recycling allocator, for its short-lived, fixed-size
// heap objects: coroutine frames, promise states, timed wait nodes, event
// nodes, pending-command records, payload and transaction records,
// page-table nodes and 4 KiB pages of simulated memory.
//
// Every modeled I/O creates and destroys a handful of these, always of the
// same few sizes, so a warm pool serves them without touching the global
// allocator. Blocks are rounded up to a multiple of kGranule and kept on one
// singly linked freelist per size class. A freelist miss carves the next
// block from its class's slab, one global allocation of kSlabBytes carved
// with a bump pointer, so a growing simulation calls the global allocator
// once per slab and never touches a block before it is first handed out.
// A freed block goes back to the freelist of its class; slabs are never
// returned to the system.
//
//  * Thread-confined: the freelists are thread_local, so engines running on
//    different threads never share allocator state. A block freed on
//    another thread than the one that allocated it simply joins that
//    thread's freelist. The freelists and slab cursors are trivially
//    destructible, so a block freed during static destruction still finds
//    them.
//  * Blocks larger than kMaxPooled bytes go straight to global new/delete.
//  * Under AddressSanitizer the pool passes every request straight through
//    to global new/delete, so a use after free of any pooled object is
//    still caught.
//
// The hot path (a pop or push on a class freelist) is inline; only the
// carving of a fresh block lives in pool.cpp.
#pragma once

#include <cstddef>
#include <new>

namespace nvmeshare::sim::pool {

/// False under AddressSanitizer, where every request goes to global new.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Size-class step; a multiple of every fundamental alignment.
inline constexpr std::size_t kGranule = 16;
/// Largest pooled request: a 4 KiB page of simulated memory and its
/// reference count.
inline constexpr std::size_t kMaxPooled = 4096 + kGranule;
/// Bytes of one slab, the unit in which a size class grows. Four channels at
/// QD 32 hold at most a few hundred blocks of one record class in flight
/// (267 event nodes, 384 80-byte and 254 544-byte blocks), one to three
/// slabs; pages grow 15 to a slab.
inline constexpr std::size_t kSlabBytes = 64 * 1024;

/// Bytes a pooled request of `size` bytes occupies.
[[nodiscard]] constexpr std::size_t block_size(std::size_t size) noexcept {
  return size == 0 ? kGranule : (size + kGranule - 1) / kGranule * kGranule;
}

namespace detail {

inline constexpr std::size_t kClasses = kMaxPooled / kGranule;

struct FreeBlock {
  FreeBlock* next;
};

/// This thread's freelist heads, one per size class.
extern constinit thread_local FreeBlock* t_head[kClasses];

[[nodiscard]] constexpr std::size_t class_of(std::size_t size) noexcept {
  return size == 0 ? 0 : (size - 1) / kGranule;
}

/// A block of size class `c` that was never handed out before.
[[nodiscard]] void* carve(std::size_t c);

}  // namespace detail

/// A block of at least `size` bytes, aligned for any fundamental type.
[[nodiscard]] inline void* allocate(std::size_t size) {
  if (!kEnabled || size > kMaxPooled) return ::operator new(size);
  const std::size_t c = detail::class_of(size);
  detail::FreeBlock* b = detail::t_head[c];
  if (b == nullptr) [[unlikely]] return detail::carve(c);
  detail::t_head[c] = b->next;
  return b;
}

/// Return a block from allocate(); `size` must be the size it was asked for.
inline void deallocate(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  if (!kEnabled || size > kMaxPooled) {
    ::operator delete(p);
    return;
  }
  const std::size_t c = detail::class_of(size);
  detail::t_head[c] = ::new (p) detail::FreeBlock{detail::t_head[c]};
}

}  // namespace nvmeshare::sim::pool
