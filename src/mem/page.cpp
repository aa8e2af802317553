#include "mem/page.hpp"

#include <cstring>
#include <new>

#include "sim/pool.hpp"

namespace nvmeshare::mem {

namespace {

struct FreePage {
  FreePage* next;
};

/// Pages one refill carves from a single global allocation, so a growing
/// memory calls the global allocator once per slab, not once per page.
constexpr std::size_t kSlabPages = 16;

// This thread's free pages. Trivially destructible, so a page released
// during static destruction still finds it. Slabs are never returned.
thread_local FreePage* t_free = nullptr;

}  // namespace

PageRef::Page* PageRef::allocate() {
  void* block = nullptr;
  if (!sim::pool::kEnabled) {
    block = ::operator new(sizeof(Page));
  } else {
    if (t_free == nullptr) {
      auto* slab = static_cast<Page*>(::operator new(kSlabPages * sizeof(Page)));
      for (std::size_t i = kSlabPages; i-- > 0;) {
        t_free = ::new (static_cast<void*>(&slab[i])) FreePage{t_free};
      }
    }
    block = std::exchange(t_free, t_free->next);
  }
  Page* p = ::new (block) Page;
  p->refs = 1;
  return p;
}

void PageRef::release(Page* p) noexcept {
  if (!sim::pool::kEnabled) {
    ::operator delete(p);
    return;
  }
  t_free = ::new (static_cast<void*>(p)) FreePage{t_free};
}

std::byte* PageRef::writable(bool overwrite) {
  if (page_ != nullptr && page_->refs == 1) return page_->bytes;
  Page* own = allocate();
  if (!overwrite) {
    if (page_ != nullptr) {
      std::memcpy(own->bytes, page_->bytes, kPageSize);
    } else {
      std::memset(own->bytes, 0, kPageSize);
    }
  }
  reset();
  page_ = own;
  return own->bytes;
}

}  // namespace nvmeshare::mem
