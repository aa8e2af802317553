#include "sim/pool.hpp"

#include <new>

namespace nvmeshare::sim::pool {

namespace {

constexpr std::size_t kClasses = kMaxPooled / kGranule;

struct FreeBlock {
  FreeBlock* next;
};

struct Freelists {
  FreeBlock* head[kClasses] = {};
  ~Freelists();
};

// Set once this thread's freelists are gone. A block freed after that (say,
// a promise state held by a static object, whose destructor runs after the
// thread_local ones) goes back to the global allocator. The flag has no
// destructor, so it stays readable until the thread ends.
thread_local bool t_dead = false;
thread_local Freelists t_lists;

Freelists::~Freelists() {
  for (FreeBlock*& h : head) {
    while (h != nullptr) {
      FreeBlock* b = h;
      h = b->next;
      ::operator delete(b);
    }
  }
  t_dead = true;
}

[[nodiscard]] constexpr std::size_t class_of(std::size_t size) noexcept {
  return size == 0 ? 0 : (size - 1) / kGranule;
}

}  // namespace

void* allocate(std::size_t size) {
  if (!kEnabled || size > kMaxPooled || t_dead) return ::operator new(size);
  const std::size_t c = class_of(size);
  if (FreeBlock* b = t_lists.head[c]; b != nullptr) {
    t_lists.head[c] = b->next;
    return b;
  }
  return ::operator new((c + 1) * kGranule);
}

void deallocate(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  if (!kEnabled || size > kMaxPooled || t_dead) {
    ::operator delete(p);
    return;
  }
  const std::size_t c = class_of(size);
  auto* b = static_cast<FreeBlock*>(p);
  b->next = t_lists.head[c];
  t_lists.head[c] = b;
}

}  // namespace nvmeshare::sim::pool
