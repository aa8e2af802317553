#include "mem/page_table.hpp"

#include <algorithm>
#include <new>

#include "sim/pool.hpp"

namespace nvmeshare::mem {

namespace {

template <typename Node>
Node* make_node() {
  static_assert(sizeof(Node) <= sim::pool::kMaxPooled, "a node must come from the pool");
  return ::new (sim::pool::allocate(sizeof(Node))) Node{};
}

template <typename Node>
void drop_node(Node* node) noexcept {
  if (node == nullptr) return;
  node->~Node();
  sim::pool::deallocate(node, sizeof(Node));
}

}  // namespace

const PageRef PageTable::kNull;

PageTable::PageTable(std::uint64_t pages)
    : root_((pages + kFanout * kLeafPages - 1) >> kDirShift) {}

PageTable::~PageTable() {
  for (Span& span : root_) {
    if (span.dir != nullptr) {
      for (Leaf* leaf : span.dir->leaves) drop_node(leaf);
      drop_node(span.dir);
    }
    drop_node(span.masks);
  }
}

PageRef& PageTable::slot(std::uint64_t index) {
  Dir*& dir = root_[index >> kDirShift].dir;
  if (dir == nullptr) dir = make_node<Dir>();
  Leaf*& leaf = dir->leaves[(index / kLeafPages) % kFanout];
  if (leaf == nullptr) leaf = make_node<Leaf>();
  return leaf->slots[index % kLeafPages];
}

void PageTable::set(std::uint64_t index, const PageRef& page) {
  if (!page) {
    clear(index, 1);
    return;
  }
  PageRef& s = slot(index);
  if (!s) ++resident_;
  s = page;
}

void PageTable::clear(std::uint64_t first, std::uint64_t count) noexcept {
  const std::uint64_t end = first + count;
  for (std::uint64_t i = first; i < end;) {
    const Dir* dir = root_[i >> kDirShift].dir;
    if (dir == nullptr) {
      i = ((i >> kDirShift) + 1) << kDirShift;
      continue;
    }
    const std::uint64_t leaf_end = std::min(end, (i / kLeafPages + 1) * kLeafPages);
    if (Leaf* leaf = dir->leaves[(i / kLeafPages) % kFanout]) {
      for (; i < leaf_end; ++i) {
        PageRef& s = leaf->slots[i % kLeafPages];
        if (s) {
          s.reset();
          --resident_;
        }
      }
    }
    i = leaf_end;
  }
}

std::uint64_t PageTable::mask(std::uint64_t leaf) const noexcept {
  const Masks* masks = root_[leaf / kFanout].masks;
  return masks == nullptr ? 0 : masks->of[leaf % kFanout];
}

void PageTable::set_mask(std::uint64_t leaf, std::uint64_t mask) {
  Masks*& masks = root_[leaf / kFanout].masks;
  if (masks == nullptr) {
    if (mask == 0) return;
    masks = make_node<Masks>();
  }
  masks->of[leaf % kFanout] = mask;
}

}  // namespace nvmeshare::mem
