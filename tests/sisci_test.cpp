// Unit tests for the SISCI-style shared-memory API: segments, exports,
// remote connect, CPU maps and the NTB LUT runs behind them.
#include <gtest/gtest.h>

#include "pcie/fabric.hpp"
#include "sisci/sisci.hpp"
#include "sim/task.hpp"

namespace nvmeshare::sisci {
namespace {

struct ClusterFixture : ::testing::Test {
  ClusterFixture() : fabric(engine) {
    h0 = fabric.add_host("h0", 256 * MiB);
    h1 = fabric.add_host("h1", 256 * MiB);
    cs = fabric.add_cluster_switch("cs");
    ntb0 = *fabric.add_ntb(h0, 32, 1 * MiB);
    ntb1 = *fabric.add_ntb(h1, 32, 1 * MiB);
    (void)fabric.link_chips(fabric.ntb_chip(ntb0), cs);
    (void)fabric.link_chips(fabric.ntb_chip(ntb1), cs);
    cluster = std::make_unique<Cluster>(fabric);
  }

  sim::Engine engine;
  pcie::Fabric fabric;
  pcie::HostId h0 = 0, h1 = 0;
  pcie::ChipId cs = 0;
  pcie::NtbId ntb0 = 0, ntb1 = 0;
  std::unique_ptr<Cluster> cluster;
};

TEST_F(ClusterFixture, CreateAndConnectSegment) {
  auto seg = cluster->create_segment(h0, 42, 64 * KiB);
  ASSERT_TRUE(seg.has_value()) << seg.status().to_string();
  EXPECT_EQ(seg->node(), h0);
  EXPECT_EQ(seg->size(), 64 * KiB);
  EXPECT_EQ(seg->phys_addr() % 4096, 0u);

  auto remote = cluster->connect(h0, 42);
  ASSERT_TRUE(remote.has_value());
  EXPECT_EQ(remote->phys_addr, seg->phys_addr());
  EXPECT_EQ(remote->size, seg->size());
}

TEST_F(ClusterFixture, DuplicateSegmentIdRejected) {
  auto a = cluster->create_segment(h0, 7, 4096);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(cluster->create_segment(h0, 7, 4096).error_code(), Errc::already_exists);
  // Same id on another node is fine (ids are per-node).
  EXPECT_TRUE(cluster->create_segment(h1, 7, 4096).has_value());
}

TEST_F(ClusterFixture, SegmentReleaseUnexports) {
  {
    auto seg = cluster->create_segment(h0, 9, 4096);
    ASSERT_TRUE(seg.has_value());
    EXPECT_EQ(cluster->exported_count(), 1u);
  }
  EXPECT_EQ(cluster->exported_count(), 0u);
  EXPECT_EQ(cluster->connect(h0, 9).error_code(), Errc::not_found);
  // The memory was returned: a segment of the full arena size must fit.
  EXPECT_TRUE(cluster->create_segment(h0, 10, 100 * MiB).has_value());
}

TEST_F(ClusterFixture, SegmentLocalReadWrite) {
  auto seg = cluster->create_segment(h0, 1, 8192);
  ASSERT_TRUE(seg.has_value());
  Bytes data = make_pattern(512, 5);
  ASSERT_TRUE(seg->write(100, data).is_ok());
  Bytes out(512);
  ASSERT_TRUE(seg->read(100, out).is_ok());
  EXPECT_EQ(data, out);
  EXPECT_EQ(seg->write(8192 - 100, data).code(), Errc::out_of_range);
}

TEST_F(ClusterFixture, MapRemoteSegmentMovesRealBytes) {
  auto seg = cluster->create_segment(h1, 3, 64 * KiB);
  ASSERT_TRUE(seg.has_value());
  auto remote = cluster->connect(h1, 3);
  ASSERT_TRUE(remote.has_value());
  auto map = Map::create(*cluster, h0, *remote);
  ASSERT_TRUE(map.has_value()) << map.status().to_string();

  // h0 writes through the NTB window; the bytes appear in h1's segment.
  Bytes data = make_pattern(4096, 77);
  ASSERT_TRUE(fabric.poke(h0, map->addr() + 512, data).is_ok());
  Bytes out(4096);
  ASSERT_TRUE(seg->read(512, out).is_ok());
  EXPECT_EQ(data, out);
}

TEST_F(ClusterFixture, MapLocalSegmentIsDirect) {
  auto seg = cluster->create_segment(h0, 4, 4096);
  ASSERT_TRUE(seg.has_value());
  auto map = Map::create(*cluster, h0, seg->descriptor());
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(map->addr(), seg->phys_addr());  // no NTB window burned
}

TEST_F(ClusterFixture, NtbMappingMultiWindowSegment) {
  // 3 MiB segment with 1 MiB windows: needs 3 consecutive LUT entries.
  auto seg = cluster->create_segment(h1, 5, 3 * MiB);
  ASSERT_TRUE(seg.has_value());
  auto map = Map::create(*cluster, h0, seg->descriptor());
  ASSERT_TRUE(map.has_value());

  // Access near the end, crossing into the third window.
  Bytes data = make_pattern(4096, 99);
  ASSERT_TRUE(fabric.poke(h0, map->addr() + 2 * MiB + 4096, data).is_ok());
  Bytes out(4096);
  ASSERT_TRUE(seg->read(2 * MiB + 4096, out).is_ok());
  EXPECT_EQ(data, out);
}

TEST_F(ClusterFixture, NtbMappingReleaseFreesLutEntries) {
  // A 3 MiB segment maps through a run of three 1 MiB LUT entries; dropping
  // the Map must free the whole run.
  auto seg = cluster->create_segment(h1, 6, 3 * MiB);
  ASSERT_TRUE(seg.has_value());
  EXPECT_TRUE(fabric.ntb_alloc_run(ntb0, 32).has_value());  // all 32 free
  {
    auto map = Map::create(*cluster, h0, seg->descriptor());
    ASSERT_TRUE(map.has_value()) << map.status().to_string();
    EXPECT_FALSE(fabric.ntb_alloc_run(ntb0, 30).has_value());  // three in use
    EXPECT_TRUE(fabric.ntb_alloc_run(ntb0, 29).has_value());
  }
  EXPECT_TRUE(fabric.ntb_alloc_run(ntb0, 32).has_value());  // released
}

TEST_F(ClusterFixture, MapFailsWithoutNtb) {
  // A third host without an NTB adapter cannot map remote memory.
  pcie::HostId h2 = fabric.add_host("h2", 64 * MiB);
  Cluster fresh(fabric);
  auto seg = fresh.create_segment(h0, 11, 4096);
  ASSERT_TRUE(seg.has_value());
  auto map = Map::create(fresh, h2, seg->descriptor());
  EXPECT_FALSE(map.has_value());
  EXPECT_EQ(map.error_code(), Errc::not_found);
}

TEST_F(ClusterFixture, DramAllocRespectedPerHost) {
  auto a = cluster->alloc_dram(h0, 4096);
  auto b = cluster->alloc_dram(h1, 4096);
  ASSERT_TRUE(a && b);
  ASSERT_TRUE(cluster->free_dram(h0, *a).is_ok());
  EXPECT_EQ(cluster->free_dram(h0, *b).code(), Errc::not_found);  // wrong host
}

TEST_F(ClusterFixture, MoveSemantics) {
  auto seg = cluster->create_segment(h0, 20, 4096);
  ASSERT_TRUE(seg.has_value());
  Segment moved = std::move(*seg);
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(cluster->exported_count(), 1u);
  Segment target;
  target = std::move(moved);
  EXPECT_TRUE(target.valid());
  EXPECT_EQ(cluster->exported_count(), 1u);
  target.release();
  EXPECT_EQ(cluster->exported_count(), 0u);
}

}  // namespace
}  // namespace nvmeshare::sisci
