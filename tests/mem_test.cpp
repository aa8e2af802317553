// Unit tests for the memory substrate: sparse DRAM and the page table it
// shares with the NVMe media, range allocator, IOMMU.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "mem/allocator.hpp"
#include "mem/iommu.hpp"
#include "mem/phys_mem.hpp"
#include "nvme/block_store.hpp"
#include "nvme/controller.hpp"
#include "sim/engine.hpp"

namespace nvmeshare::mem {
namespace {

TEST(PhysMem, ReadsZeroBeforeWrite) {
  PhysMem m(1 * MiB);
  Bytes buf(64, std::byte{0xFF});
  ASSERT_TRUE(m.read(1234, buf).is_ok());
  for (auto b : buf) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(m.resident_pages(), 0u);
}

TEST(PhysMem, WriteReadRoundTrip) {
  PhysMem m(1 * MiB);
  Bytes data = make_pattern(300, 42);
  ASSERT_TRUE(m.write(5000, data).is_ok());
  Bytes out(300);
  ASSERT_TRUE(m.read(5000, out).is_ok());
  EXPECT_EQ(data, out);
}

TEST(PhysMem, CrossPageAccess) {
  PhysMem m(1 * MiB);
  Bytes data = make_pattern(3 * 4096, 7);
  const std::uint64_t addr = 4096 - 17;  // straddles three pages
  ASSERT_TRUE(m.write(addr, data).is_ok());
  Bytes out(data.size());
  ASSERT_TRUE(m.read(addr, out).is_ok());
  EXPECT_EQ(data, out);
  EXPECT_EQ(m.resident_pages(), 4u);
}

TEST(PhysMem, OutOfRangeRejected) {
  PhysMem m(8192);
  Bytes buf(64);
  EXPECT_EQ(m.read(8192 - 32, buf).code(), Errc::out_of_range);
  EXPECT_EQ(m.write(8192 - 32, buf).code(), Errc::out_of_range);
  EXPECT_TRUE(m.read(8192 - 64, buf).is_ok());
}

TEST(PhysMem, PodHelpers) {
  PhysMem m(1 * MiB);
  ASSERT_TRUE(m.write_pod(100, std::uint32_t{0xabcd1234}).is_ok());
  auto v = m.read_pod<std::uint32_t>(100);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0xabcd1234u);
}

// --- PhysMem::copy_from ---------------------------------------------------------

TEST(PhysMemCopy, NeverWrittenSourceReadsAsZeros) {
  PhysMem src(1 * MiB);
  PhysMem dst(1 * MiB);
  ASSERT_TRUE(dst.write(100, make_pattern(3 * 4096, 1)).is_ok());
  ASSERT_TRUE(dst.copy_from(100, src, 5000, 3 * 4096).is_ok());
  Bytes out(3 * 4096, std::byte{0xFF});
  ASSERT_TRUE(dst.read(100, out).is_ok());
  for (auto b : out) ASSERT_EQ(b, std::byte{0});
  EXPECT_EQ(src.resident_pages(), 0u);
}

TEST(PhysMemCopy, MaterializesLikeWrite) {
  // A partly written source: the copy must land the same bytes, and leave
  // the destination with the same resident pages, as one write() of what a
  // read() of the source returns.
  PhysMem src(1 * MiB);
  ASSERT_TRUE(src.write(4096 + 7, make_pattern(5000, 2)).is_ok());
  const std::uint64_t len = 4 * 4096 + 300;
  Bytes staged(len);
  ASSERT_TRUE(src.read(3, staged).is_ok());

  PhysMem copied(1 * MiB);
  PhysMem written(1 * MiB);
  ASSERT_TRUE(copied.copy_from(8192 - 11, src, 3, len).is_ok());
  ASSERT_TRUE(written.write(8192 - 11, staged).is_ok());
  EXPECT_EQ(copied.resident_pages(), written.resident_pages());
  EXPECT_EQ(copied.resident_pages(), 6u);
  Bytes a(len);
  Bytes b(len);
  ASSERT_TRUE(copied.read(8192 - 11, a).is_ok());
  ASSERT_TRUE(written.read(8192 - 11, b).is_ok());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, staged);
}

TEST(PhysMemCopy, NotifiesDestinationWatchesOnly) {
  sim::Engine engine;
  PhysMem src(1 * MiB);
  PhysMem dst(1 * MiB);
  sim::PollTimer on_src(engine);
  sim::PollTimer on_dst(engine);
  sim::PollTimer past_dst(engine);
  sim::PollTimer same_mem_elsewhere(engine);
  WriteWatch w1(src, 0, 64 * KiB, on_src);
  WriteWatch w2(dst, 12 * KiB, 4 * KiB, on_dst);
  WriteWatch w3(dst, 16 * KiB, 4 * KiB, past_dst);
  WriteWatch w4(dst, 0, 4 * KiB, same_mem_elsewhere);
  ASSERT_TRUE(src.write(0, make_pattern(8 * KiB, 3)).is_ok());
  on_src.clear();
  ASSERT_TRUE(dst.copy_from(8 * KiB, src, 0, 8 * KiB).is_ok());
  EXPECT_FALSE(on_src.notified());
  EXPECT_TRUE(on_dst.notified());
  EXPECT_FALSE(past_dst.notified());
  EXPECT_FALSE(same_mem_elsewhere.notified());

  // Within one memory, a watch on the source range alone stays quiet.
  ASSERT_TRUE(dst.copy_from(20 * KiB, dst, 0, 4 * KiB).is_ok());
  EXPECT_FALSE(same_mem_elsewhere.notified());
}

TEST(PhysMemCopy, OutOfRangeMovesNothing) {
  sim::Engine engine;
  PhysMem src(8192);
  PhysMem dst(8192);
  sim::PollTimer timer(engine);
  WriteWatch w(dst, 0, 8192, timer);
  ASSERT_TRUE(src.write(0, make_pattern(8192, 4)).is_ok());
  timer.clear();
  // Source past its end, destination past its end, and a length that wraps.
  EXPECT_EQ(dst.copy_from(0, src, 8192 - 32, 64).code(), Errc::out_of_range);
  EXPECT_EQ(dst.copy_from(8192 - 32, src, 0, 64).code(), Errc::out_of_range);
  EXPECT_EQ(dst.copy_from(0, src, 64, UINT64_MAX - 10).code(), Errc::out_of_range);
  EXPECT_EQ(dst.copy_from(UINT64_MAX - 10, src, 0, 64).code(), Errc::out_of_range);
  EXPECT_EQ(dst.resident_pages(), 0u);
  EXPECT_FALSE(timer.notified());
  EXPECT_TRUE(dst.copy_from(0, src, 0, 0).is_ok());
  EXPECT_EQ(dst.resident_pages(), 0u);
}

TEST(PhysMemCopy, OverlappingRangesInOneMemoryCopyLikeMemmove) {
  const Bytes data = make_pattern(3 * 4096, 5);
  for (const std::int64_t shift : {-5000, -4096, -1, 1, 17, 4096, 5000}) {
    SCOPED_TRACE(shift);
    PhysMem m(1 * MiB);
    const std::uint64_t src = 64 * KiB + 3;
    ASSERT_TRUE(m.write(src, data).is_ok());
    const std::uint64_t dst = src + shift;
    ASSERT_TRUE(m.copy_from(dst, m, src, data.size()).is_ok());
    Bytes out(data.size());
    ASSERT_TRUE(m.read(dst, out).is_ok());
    EXPECT_EQ(out, data);
  }
}

TEST(PhysMemCopy, UnalignedOffsetsOnBothSides) {
  PhysMem src(1 * MiB);
  PhysMem dst(1 * MiB);
  const Bytes data = make_pattern(128 * KiB, 6);
  for (const std::uint64_t src_off : {0ull, 1ull, 4095ull, 2049ull}) {
    for (const std::uint64_t dst_off : {0ull, 7ull, 4094ull, 3001ull}) {
      ASSERT_TRUE(src.write(src_off, data).is_ok());
      ASSERT_TRUE(dst.copy_from(256 * KiB + dst_off, src, src_off, data.size()).is_ok());
      Bytes out(data.size());
      ASSERT_TRUE(dst.read(256 * KiB + dst_off, out).is_ok());
      EXPECT_EQ(out, data) << "src +" << src_off << " dst +" << dst_off;
    }
  }
}

// --- sparse page tables: seeded soups against a flat reference ----------------

/// What a memory or namespace must hold: a flat copy of its bytes, by 4 KiB
/// page (a page never stored into reads as zeros), and the pages or chunks
/// it must count resident.
struct Reference {
  static constexpr std::uint64_t kPage = 4096;
  std::map<std::uint64_t, Bytes> pages;
  std::set<std::uint64_t> resident;

  /// Call fn(page, offset, n, done) on each piece of [addr, addr+len) that
  /// stays in one page; `done` counts the bytes before it.
  template <typename Fn>
  static void pieces(std::uint64_t addr, std::uint64_t len, Fn&& fn) {
    for (std::uint64_t done = 0; done < len;) {
      const std::uint64_t off = (addr + done) % kPage;
      const std::uint64_t n = std::min(len - done, kPage - off);
      fn((addr + done) / kPage, off, n, done);
      done += n;
    }
  }
  void store(std::uint64_t addr, ConstByteSpan in) {
    pieces(addr, in.size(), [&](std::uint64_t page, std::uint64_t off, std::uint64_t n,
                                std::uint64_t done) {
      Bytes& bytes = pages[page];
      bytes.resize(kPage);
      std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(done), n,
                  bytes.begin() + static_cast<std::ptrdiff_t>(off));
    });
  }
  void zero(std::uint64_t addr, std::uint64_t len) {
    pieces(addr, len, [&](std::uint64_t page, std::uint64_t off, std::uint64_t n, std::uint64_t) {
      if (auto it = pages.find(page); it != pages.end()) {
        std::fill_n(it->second.begin() + static_cast<std::ptrdiff_t>(off), n, std::byte{0});
      }
    });
  }
  [[nodiscard]] Bytes load(std::uint64_t addr, std::uint64_t len) const {
    Bytes out(len);
    pieces(addr, len, [&](std::uint64_t page, std::uint64_t off, std::uint64_t n,
                          std::uint64_t done) {
      if (auto it = pages.find(page); it != pages.end()) {
        std::copy_n(it->second.begin() + static_cast<std::ptrdiff_t>(off), n,
                    out.begin() + static_cast<std::ptrdiff_t>(done));
      }
    });
    return out;
  }
  /// Mark units [first, last] resident.
  void add(std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t u = first; u <= last; ++u) resident.insert(u);
  }
};

/// An offset of `len` units that fits in `size`, within a few pages of one
/// of `spots`, page-aligned half of the time.
std::uint64_t near(Rng& rng, const std::vector<std::uint64_t>& spots, std::uint64_t len,
                   std::uint64_t size, std::uint64_t page) {
  const std::uint64_t jitter = rng.uniform(8 * page);
  const std::uint64_t spot = spots[rng.uniform(spots.size())] + jitter;
  std::uint64_t at = std::min(spot < 4 * page ? 0 : spot - 4 * page, size - len);
  if (rng.chance(0.5)) at -= at % page;
  return at;
}

/// Spots of a space of `size` units with `per_leaf` units per 2 MiB leaf:
/// its start and end, leaf boundaries, and directory (1 GiB) boundaries.
std::vector<std::uint64_t> spots_of(std::uint64_t size, std::uint64_t per_leaf) {
  std::vector<std::uint64_t> spots{0, size};
  for (const std::uint64_t leaf : {1, 2, 511, 512, 513, 1024}) {
    if (leaf * per_leaf < size) spots.push_back(leaf * per_leaf);
  }
  return spots;
}

/// Two memories, each shadowed by a Reference, under a seeded mix of
/// write, read, copy_from, payload installs and payload reads.
class PhysMemSoup {
 public:
  PhysMemSoup(std::uint64_t size_a, std::uint64_t size_b, std::uint64_t seed)
      : rng_(seed), seed_(seed) {
    for (const std::uint64_t size : {size_a, size_b}) {
      mems_.push_back(std::make_unique<PhysMem>(size));
      refs_.emplace_back();
      spots_.push_back(spots_of(size, 2 * MiB));
    }
  }

  void run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFailure(); ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed_ << " step " << step);
      this->step();
      for (std::size_t m = 0; m < mems_.size(); ++m) {
        ASSERT_EQ(mems_[m]->resident_pages(), refs_[m].resident.size()) << "memory " << m;
      }
    }
  }

 private:
  static constexpr std::uint64_t kPage = PhysMem::kPageSize;

  std::uint64_t length(std::size_t m) {
    const std::uint64_t len =
        rng_.chance(0.5) ? (1 + rng_.uniform(4)) * kPage : 1 + rng_.uniform(3 * kPage);
    return std::min(len, mems_[m]->size());
  }
  std::uint64_t at(std::size_t m, std::uint64_t len) {
    return near(rng_, spots_[m], len, mems_[m]->size(), kPage);
  }
  /// `len` bytes of a fresh pattern, or zeros.
  Bytes data(std::uint64_t len) {
    return rng_.chance(0.2) ? Bytes(len) : make_pattern(len, rng_.next());
  }
  void stored(std::size_t m, std::uint64_t addr, ConstByteSpan in) {
    refs_[m].store(addr, in);
    refs_[m].add(addr / kPage, (addr + in.size() - 1) / kPage);
    expect_holds(m, addr - std::min(addr, kPage), in.size() + 2 * kPage);
  }
  /// Memory `m` reads as its reference over [addr, addr+len), clipped.
  void expect_holds(std::size_t m, std::uint64_t addr, std::uint64_t len) {
    len = std::min(len, mems_[m]->size() - addr);
    Bytes out(len);
    ASSERT_TRUE(mems_[m]->read(addr, out).is_ok());
    ASSERT_EQ(out, refs_[m].load(addr, len)) << "memory " << m << " at " << addr;
  }

  void step() {
    const std::size_t m = rng_.uniform(2);
    const std::size_t other = rng_.uniform(2);
    PhysMem& mem = *mems_[m];
    const std::uint64_t len = length(m);
    const std::uint64_t addr = at(m, len);
    switch (rng_.uniform(6)) {
      case 0: {
        const Bytes in = data(len);
        ASSERT_TRUE(mem.write(addr, in).is_ok());
        stored(m, addr, in);
        break;
      }
      case 1:
        expect_holds(m, addr, len);
        break;
      case 2: {
        const std::uint64_t n = std::min(len, mems_[other]->size());
        const std::uint64_t from = at(other, n);
        const Bytes moved = refs_[other].load(from, n);
        ASSERT_TRUE(mem.copy_from(addr, *mems_[other], from, n).is_ok());
        stored(m, addr, moved);
        break;
      }
      case 3: {
        // A payload of shared pages read from a memory, or of copied bytes.
        mem::Payload payload;
        Bytes in;
        if (rng_.chance(0.5) && len <= mems_[other]->size()) {
          const std::uint64_t from = at(other, len);
          ASSERT_TRUE(mems_[other]->read(from, len, payload).is_ok());
          in = refs_[other].load(from, len);
        } else {
          in = data(len);
          payload = mem::Payload::copy_of(in);
        }
        mem::PayloadReader reader(payload);
        ASSERT_TRUE(mem.write(addr, reader, len).is_ok());
        stored(m, addr, in);
        break;
      }
      case 4: {
        mem::Payload out;
        ASSERT_TRUE(mem.read(addr, len, out).is_ok());
        ASSERT_EQ(out.to_bytes(), refs_[m].load(addr, len));
        break;
      }
      default: {
        Bytes runs;
        ASSERT_TRUE(mem.for_each_run(addr, len, [&](ConstByteSpan run) {
                         runs.insert(runs.end(), run.begin(), run.end());
                       }).is_ok());
        ASSERT_EQ(runs, refs_[m].load(addr, len));
        break;
      }
    }
  }

  Rng rng_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<PhysMem>> mems_;
  std::vector<Reference> refs_;
  std::vector<std::vector<std::uint64_t>> spots_;
};

TEST(PageTableSoup, PhysMemMatchesFlatReference) {
  // An 8 GiB host beside a two-page memory, and a memory whose end lies
  // inside a leaf beside the 8 GiB one.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const bool small = seed % 2 == 1;
    PhysMemSoup soup(8 * GiB, small ? 8192 : 3 * GiB + 5000, seed);
    soup.run(300);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
  }
}

/// A namespace shadowed by a Reference (bytes, and the 32 KiB chunks it
/// must count resident) under a seeded mix of writes (copied bytes, shared
/// pages, zeros), reads and Write Zeroes over whole and partial chunks.
class BlockStoreSoup {
 public:
  BlockStoreSoup(std::uint64_t capacity_blocks, std::uint32_t block_size, std::uint64_t seed)
      : store_(capacity_blocks, block_size),
        source_(64 * KiB),
        rng_(seed),
        seed_(seed),
        spots_(spots_of(capacity_blocks, 2 * MiB / block_size)) {
    EXPECT_TRUE(source_.write(0, make_pattern(source_.size(), seed)).is_ok());
  }

  void run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFailure(); ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed_ << " step " << step);
      this->step();
      ASSERT_EQ(store_.resident_chunks(), ref_.resident.size());
    }
  }

 private:
  static constexpr std::uint64_t kChunk = 32 * KiB;

  std::uint64_t bs() const { return store_.block_size(); }
  /// [slba, slba+n) reads as the reference, with a chunk of margin.
  void expect_holds(std::uint64_t slba, std::uint64_t n) {
    const std::uint64_t margin = kChunk / bs();
    const std::uint64_t first = slba - std::min(slba, margin);
    const std::uint64_t count = std::min(n + 2 * margin, store_.capacity_blocks() - first);
    mem::Payload out;
    ASSERT_TRUE(store_.read(first, static_cast<std::uint32_t>(count), out).is_ok());
    ASSERT_EQ(out.to_bytes(), ref_.load(first * bs(), count * bs())) << "at LBA " << first;
  }

  void step() {
    const std::uint64_t chunk_blocks = kChunk / bs();
    std::uint64_t n = rng_.chance(0.5) ? (1 + rng_.uniform(3)) * chunk_blocks
                                       : 1 + rng_.uniform(3 * chunk_blocks);
    const int op = static_cast<int>(rng_.uniform(4));
    // A Write Zeroes sometimes spans a whole leaf and more.
    if (op == 2 && rng_.chance(0.2)) n = 1 + rng_.uniform(4 * MiB / bs());
    n = std::min(n, store_.capacity_blocks());
    std::uint64_t slba = near(rng_, spots_, n, store_.capacity_blocks(), mem::kPageSize / bs());
    if (op == 2 && rng_.chance(0.5)) {
      // Whole chunks.
      slba -= slba % chunk_blocks;
      n = std::min(std::max(n - n % chunk_blocks, chunk_blocks), store_.capacity_blocks() - slba);
    }
    const auto nblocks = static_cast<std::uint32_t>(n);
    const std::uint64_t pos = slba * bs();
    const std::uint64_t bytes = n * bs();
    switch (op) {
      case 0:
      case 1: {
        mem::Payload payload;
        Bytes in;
        const std::uint64_t kind = rng_.uniform(3);
        if (kind == 0 && bytes <= source_.size()) {
          ASSERT_TRUE(source_.read(0, bytes, payload).is_ok());
          in.resize(bytes);
          ASSERT_TRUE(source_.read(0, in).is_ok());
        } else if (kind == 1) {
          payload.append_zeros(bytes);
          in.resize(bytes);
        } else {
          in = make_pattern(bytes, rng_.next());
          payload = mem::Payload::copy_of(in);
        }
        ASSERT_TRUE(store_.write(slba, nblocks, payload).is_ok());
        ref_.store(pos, in);
        ref_.add(pos / kChunk, (pos + bytes - 1) / kChunk);
        expect_holds(slba, n);
        break;
      }
      case 2: {
        ASSERT_TRUE(store_.write_zeroes(slba, nblocks).is_ok());
        ref_.zero(pos, bytes);
        // Chunks the range covers whole are no longer resident.
        const std::uint64_t first = (pos + kChunk - 1) / kChunk;
        const std::uint64_t end = (pos + bytes) / kChunk;
        if (first < end) {
          ref_.resident.erase(ref_.resident.lower_bound(first), ref_.resident.lower_bound(end));
        }
        expect_holds(slba, std::min<std::uint64_t>(n, 4 * chunk_blocks));
        break;
      }
      default:
        expect_holds(slba, n);
        break;
    }
  }

  nvme::BlockStore store_;
  PhysMem source_;  ///< where shared pages come from
  Reference ref_;
  Rng rng_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> spots_;
};

TEST(PageTableSoup, BlockStoreMatchesFlatReference) {
  struct Shape {
    std::uint64_t capacity_blocks;
    std::uint32_t block_size;
  };
  // The default 375 GB namespace (its last LBA is a spot), one that ends
  // inside its first leaf, and one of 4 KiB blocks ending inside a leaf
  // past its first directory.
  const Shape shapes[] = {{nvme::Controller::Config{}.capacity_blocks, 512},
                          {1000, 512},
                          {(1 * GiB + 40 * KiB) / 4096, 4096}};
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      BlockStoreSoup soup(shape.capacity_blocks, shape.block_size, seed);
      soup.run(300);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "capacity " << shape.capacity_blocks << " seed " << seed;
    }
  }
}

TEST(RangeAllocator, AllocatesAligned) {
  RangeAllocator a(0x1000, 1 * MiB);
  auto p = a.alloc(100, 256);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p % 256, 0u);
  EXPECT_GE(*p, 0x1000u);
}

TEST(RangeAllocator, ExhaustsAndRecovers) {
  RangeAllocator a(0, 4096);
  auto p1 = a.alloc(4096, 1);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(a.alloc(1, 1).error_code(), Errc::resource_exhausted);
  ASSERT_TRUE(a.free(*p1).is_ok());
  EXPECT_TRUE(a.alloc(4096, 1).has_value());
}

TEST(RangeAllocator, CoalescesFreedNeighbors) {
  RangeAllocator a(0, 3 * 4096);
  auto p1 = a.alloc(4096, 4096);
  auto p2 = a.alloc(4096, 4096);
  auto p3 = a.alloc(4096, 4096);
  ASSERT_TRUE(p1 && p2 && p3);
  ASSERT_TRUE(a.free(*p1).is_ok());
  ASSERT_TRUE(a.free(*p3).is_ok());
  ASSERT_TRUE(a.free(*p2).is_ok());  // middle free must merge all three
  EXPECT_TRUE(a.alloc(3 * 4096, 1).has_value());
}

TEST(RangeAllocator, DoubleFreeRejected) {
  RangeAllocator a(0, 4096);
  auto p = a.alloc(64, 64);
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(a.free(*p).is_ok());
  EXPECT_EQ(a.free(*p).code(), Errc::not_found);
}

TEST(RangeAllocator, BadArgsRejected) {
  RangeAllocator a(0, 4096);
  EXPECT_EQ(a.alloc(0, 64).error_code(), Errc::invalid_argument);
  EXPECT_EQ(a.alloc(64, 3).error_code(), Errc::invalid_argument);  // non-pow2
}

TEST(RangeAllocator, AccountsBytes) {
  RangeAllocator a(0, 8192);
  EXPECT_EQ(a.bytes_free(), 8192u);
  auto p = a.alloc(100, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(a.bytes_used(), 100u);
  ASSERT_TRUE(a.free(*p).is_ok());
  EXPECT_EQ(a.bytes_free(), 8192u);
}

TEST(Iommu, MapTranslateUnmap) {
  Iommu iommu;
  auto cost = iommu.map(0x10000, 0x8000, 8192);
  ASSERT_TRUE(cost.has_value());
  EXPECT_GT(*cost, 0);
  auto t = iommu.translate(0x10000 + 5000);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 0x8000u + 5000u);
  auto uncost = iommu.unmap(0x10000);
  ASSERT_TRUE(uncost.has_value());
  EXPECT_EQ(iommu.translate(0x10000).error_code(), Errc::unmapped_address);
}

TEST(Iommu, RejectsOverlap) {
  Iommu iommu;
  ASSERT_TRUE(iommu.map(0x10000, 0x8000, 8192).has_value());
  EXPECT_EQ(iommu.map(0x11000, 0x20000, 4096).error_code(), Errc::already_exists);
  EXPECT_EQ(iommu.map(0xF000, 0x20000, 8192).error_code(), Errc::already_exists);
  EXPECT_TRUE(iommu.map(0x12000, 0x20000, 4096).has_value());
}

TEST(Iommu, RejectsMisaligned) {
  Iommu iommu;
  EXPECT_EQ(iommu.map(0x10001, 0x8000, 4096).error_code(), Errc::invalid_argument);
  EXPECT_EQ(iommu.map(0x10000, 0x8001, 4096).error_code(), Errc::invalid_argument);
  EXPECT_EQ(iommu.map(0x10000, 0x8000, 0).error_code(), Errc::invalid_argument);
}

TEST(Iommu, CostIsAffineInPages) {
  Iommu::Config cfg;
  Iommu iommu(cfg);
  auto one = iommu.map(0x100000, 0, 4096);
  auto four = iommu.map(0x200000, 0x10000, 4 * 4096);
  ASSERT_TRUE(one && four);
  // Fixed setup cost plus a per-page term: four pages cost three extra
  // PTE stores over one page, not 4x the total.
  EXPECT_EQ(*four - *one, 3 * cfg.map_per_page_ns);
  EXPECT_EQ(*one, cfg.map_fixed_ns + cfg.map_per_page_ns);

  auto unmap_one = iommu.unmap(0x100000);
  auto unmap_four = iommu.unmap(0x200000);
  ASSERT_TRUE(unmap_one && unmap_four);
  // Teardown is dominated by the single range invalidation.
  EXPECT_EQ(*unmap_four - *unmap_one, 3 * cfg.unmap_per_page_ns);
}

TEST(Iommu, TranslationAtBoundaries) {
  Iommu iommu;
  ASSERT_TRUE(iommu.map(0x10000, 0x8000, 4096).has_value());
  EXPECT_TRUE(iommu.translate(0x10000).has_value());
  EXPECT_TRUE(iommu.translate(0x10FFF).has_value());
  EXPECT_FALSE(iommu.translate(0x11000).has_value());
  EXPECT_FALSE(iommu.translate(0xFFFF).has_value());
}

}  // namespace
}  // namespace nvmeshare::mem
