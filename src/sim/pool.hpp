// Size-class freelist for the simulator's short-lived, fixed-size heap
// objects: coroutine frames, promise states and timed wait nodes.
//
// Every modeled I/O creates and destroys a handful of these, always of the
// same few sizes, so a warm pool serves them without touching the global
// allocator. Blocks are rounded up to a multiple of kGranule and kept on one
// singly linked freelist per size; a freed block goes back to the freelist
// of its size and is never returned to the system while the thread lives.
//
//  * Thread-confined: the freelists are thread_local, so engines running on
//    different threads never share allocator state. A block freed on
//    another thread than the one that allocated it simply joins that
//    thread's freelist.
//  * Blocks larger than kMaxPooled bytes go straight to global new/delete.
//  * Under AddressSanitizer the pool passes every request straight through
//    to global new/delete, so use-after-free on a frame or state is still
//    caught.
#pragma once

#include <cstddef>

namespace nvmeshare::sim::pool {

/// False under AddressSanitizer, where every request goes to global new.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

inline constexpr std::size_t kGranule = 64;
inline constexpr std::size_t kMaxPooled = 4096;

/// A block of at least `size` bytes, aligned for any fundamental type.
[[nodiscard]] void* allocate(std::size_t size);

/// Return a block from allocate(); `size` must be the size it was asked for.
void deallocate(void* p, std::size_t size) noexcept;

}  // namespace nvmeshare::sim::pool
