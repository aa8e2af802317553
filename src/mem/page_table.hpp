// A sparse table of page slots indexed by page number: the one page index of
// a host's DRAM (PhysMem) and of a namespace's media (nvme::BlockStore).
//
// Three tiers, no hash. A leaf holds the PageRef slots of one 2 MiB region
// (512 pages). A directory holds the leaves of one 1 GiB region (512
// leaves). The root holds one directory per GiB of capacity and is sized
// when the table is made, 16 bytes per GiB: 128 bytes for an 8 GiB host,
// 5.5 KiB for a 375 GB namespace. Leaves and directories are 4 KiB nodes
// from sim::pool, made by the first store into their region and kept until
// the table goes, so a table pays 4 KiB per 2 MiB region it ever stored
// into and 4 KiB per such GiB, and a lookup is three dependent loads.
//
// Each leaf also has a 64-bit mask its owner may use: the block store marks
// the 32 KiB chunks written in it. The masks of one directory sit in one
// more 4 KiB node, made by the first nonzero mask; a memory never makes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/page.hpp"

namespace nvmeshare::mem {

class PageTable {
 public:
  /// Pages one leaf covers: 2 MiB.
  static constexpr std::uint64_t kLeafPages = 512;

  /// A table of `pages` slots, all null.
  explicit PageTable(std::uint64_t pages);
  ~PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  /// The page in slot `index`; a null reference if none is there. The
  /// reference stays valid until the table goes.
  [[nodiscard]] const PageRef& get(std::uint64_t index) const noexcept {
    const Dir* dir = root_[index >> kDirShift].dir;
    if (dir == nullptr) return kNull;
    const Leaf* leaf = dir->leaves[(index / kLeafPages) % kFanout];
    return leaf == nullptr ? kNull : leaf->slots[index % kLeafPages];
  }

  /// PageRef::writable(overwrite) on slot `index`.
  [[nodiscard]] std::byte* writable(std::uint64_t index, bool overwrite) {
    PageRef& s = slot(index);
    if (!s) ++resident_;
    return s.writable(overwrite);
  }

  /// Make slot `index` refer to `page`; a null page clears the slot.
  void set(std::uint64_t index, const PageRef& page);

  /// Clear slots [first, first + count), skipping regions never stored into.
  void clear(std::uint64_t first, std::uint64_t count) noexcept;

  /// Non-null slots.
  [[nodiscard]] std::size_t resident() const noexcept { return resident_; }

  /// The mask of leaf `leaf` (slot index / kLeafPages); zero until set.
  [[nodiscard]] std::uint64_t mask(std::uint64_t leaf) const noexcept;
  void set_mask(std::uint64_t leaf, std::uint64_t mask);

 private:
  static constexpr std::uint64_t kFanout = 512;
  /// log2 of the slots one directory covers.
  static constexpr unsigned kDirShift = 18;
  static_assert(std::uint64_t{1} << kDirShift == kFanout * kLeafPages);

  struct Leaf {
    PageRef slots[kLeafPages];
  };
  struct Dir {
    Leaf* leaves[kFanout] = {};
  };
  struct Masks {
    std::uint64_t of[kFanout] = {};
  };
  struct Span {
    Dir* dir = nullptr;
    Masks* masks = nullptr;
  };

  /// What an empty slot reads as.
  static const PageRef kNull;

  /// Slot `index`, making its directory and leaf first if needed.
  [[nodiscard]] PageRef& slot(std::uint64_t index);

  std::vector<Span> root_;
  std::size_t resident_ = 0;
};

}  // namespace nvmeshare::mem
