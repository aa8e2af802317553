// Unit tests for the memory substrate: sparse DRAM, range allocator, IOMMU.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "mem/allocator.hpp"
#include "mem/iommu.hpp"
#include "mem/phys_mem.hpp"
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
