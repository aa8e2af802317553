#include "mem/page.hpp"

#include <cstring>
#include <new>

#include "sim/pool.hpp"

namespace nvmeshare::mem {

PageRef::Page* PageRef::allocate() {
  static_assert(sizeof(Page) <= sim::pool::kMaxPooled, "a page must come from the pool");
  Page* p = ::new (sim::pool::allocate(sizeof(Page))) Page;
  p->refs = 1;
  return p;
}

void PageRef::release(Page* p) noexcept { sim::pool::deallocate(p, sizeof(Page)); }

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
