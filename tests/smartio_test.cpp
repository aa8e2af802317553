// Unit tests for the SmartIO service: registry, acquisition semantics,
// BAR windows, DMA windows, hinted allocation, metadata registry.
#include <gtest/gtest.h>

#include "smartio/smartio.hpp"
#include "test_util.hpp"

namespace nvmeshare::smartio {
namespace {

using testutil::small_testbed;
using testutil::Testbed;

TEST(SmartIo, RegistersAndFindsDevice) {
  Testbed tb(small_testbed(2));
  auto info = tb.service().device(tb.device_id());
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->host, 0u);
  EXPECT_EQ(info->name, "nvme0");

  auto by_name = tb.service().find_device("nvme0");
  ASSERT_TRUE(by_name.has_value());
  EXPECT_EQ(by_name->id, tb.device_id());
  EXPECT_EQ(tb.service().find_device("nope").error_code(), Errc::not_found);
  EXPECT_GE(tb.service().list_devices().size(), 1u);
}

TEST(SmartIo, ExclusiveExcludesEveryone) {
  Testbed tb(small_testbed(2));
  auto ex = tb.service().acquire(tb.device_id(), AcquireMode::exclusive);
  ASSERT_TRUE(ex.has_value());
  EXPECT_EQ(tb.service().acquire(tb.device_id(), AcquireMode::shared).error_code(),
            Errc::permission_denied);
  EXPECT_EQ(tb.service().acquire(tb.device_id(), AcquireMode::exclusive).error_code(),
            Errc::permission_denied);
  ex->release();
  EXPECT_TRUE(tb.service().acquire(tb.device_id(), AcquireMode::shared).has_value());
}

TEST(SmartIo, SharedBlocksExclusive) {
  Testbed tb(small_testbed(2));
  auto s1 = tb.service().acquire(tb.device_id(), AcquireMode::shared);
  auto s2 = tb.service().acquire(tb.device_id(), AcquireMode::shared);
  ASSERT_TRUE(s1 && s2);
  EXPECT_EQ(tb.service().acquire(tb.device_id(), AcquireMode::exclusive).error_code(),
            Errc::permission_denied);
  s1->release();
  s2->release();
  EXPECT_TRUE(tb.service().acquire(tb.device_id(), AcquireMode::exclusive).has_value());
}

TEST(SmartIo, DowngradeLetsOthersIn) {
  Testbed tb(small_testbed(2));
  auto ex = tb.service().acquire(tb.device_id(), AcquireMode::exclusive);
  ASSERT_TRUE(ex.has_value());
  ASSERT_TRUE(ex->downgrade_to_shared().is_ok());
  EXPECT_EQ(ex->mode(), AcquireMode::shared);
  EXPECT_TRUE(tb.service().acquire(tb.device_id(), AcquireMode::shared).has_value());
  // Double downgrade is rejected.
  EXPECT_FALSE(ex->downgrade_to_shared().is_ok());
}

TEST(SmartIo, ReleaseOnDestruction) {
  Testbed tb(small_testbed(2));
  {
    auto ex = tb.service().acquire(tb.device_id(), AcquireMode::exclusive);
    ASSERT_TRUE(ex.has_value());
  }
  EXPECT_TRUE(tb.service().acquire(tb.device_id(), AcquireMode::exclusive).has_value());
}

TEST(SmartIo, BarWindowLocalIsDirect) {
  Testbed tb(small_testbed(2));
  auto ref = tb.service().acquire(tb.device_id(), AcquireMode::shared);
  ASSERT_TRUE(ref.has_value());
  auto bar = ref->map_bar(0, 0);
  ASSERT_TRUE(bar.has_value());
  auto raw = tb.fabric().bar_address(tb.nvme_endpoint(), 0);
  EXPECT_EQ(bar->addr(), *raw);
}

TEST(SmartIo, BarWindowRemoteReachesRegisters) {
  Testbed tb(small_testbed(2));
  auto ref = tb.service().acquire(tb.device_id(), AcquireMode::shared);
  ASSERT_TRUE(ref.has_value());
  auto bar = ref->map_bar(1, 0);
  ASSERT_TRUE(bar.has_value()) << bar.status().to_string();

  // Reading CAP through the window from host 1 returns the register value.
  Bytes out(8);
  ASSERT_TRUE(tb.fabric().peek(1, bar->addr() + nvme::reg::kCap, out).is_ok());
  const auto cap = load_pod<std::uint64_t>(out);
  EXPECT_EQ(cap & 0xFFFF, nvme::Controller::kMaxQueueEntries - 1u);  // MQES
}

TEST(SmartIo, DmaWindowLocalSegmentIsDirect) {
  Testbed tb(small_testbed(2));
  auto ref = tb.service().acquire(tb.device_id(), AcquireMode::shared);
  auto seg = tb.cluster().create_segment(0, 100, 64 * KiB);  // device host
  ASSERT_TRUE(ref && seg);
  auto win = ref->map_for_device(seg->descriptor());
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->device_addr(), seg->phys_addr());
}

TEST(SmartIo, DmaWindowRemoteSegmentTranslates) {
  Testbed tb(small_testbed(2));
  auto ref = tb.service().acquire(tb.device_id(), AcquireMode::shared);
  auto seg = tb.cluster().create_segment(1, 100, 64 * KiB);  // remote to device
  ASSERT_TRUE(ref && seg);
  auto win = ref->map_for_device(seg->descriptor());
  ASSERT_TRUE(win.has_value()) << win.status().to_string();
  EXPECT_NE(win->device_addr(), seg->phys_addr());

  // An access by the device host's address space lands in host 1's memory.
  auto resolved = tb.fabric().resolve(0, win->device_addr() + 128, 16);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->host, 1u);
  EXPECT_EQ(resolved->addr, seg->phys_addr() + 128);
}

TEST(SmartIo, HintPlacesSqDeviceSideCqLocal) {
  Testbed tb(small_testbed(3));
  // Requesting node 2; device lives in node 0.
  auto sq_node = tb.service().resolve_hint(2, tb.device_id(), AccessHint::sq());
  auto cq_node = tb.service().resolve_hint(2, tb.device_id(), AccessHint::cq());
  auto data_node = tb.service().resolve_hint(2, tb.device_id(), AccessHint::data());
  ASSERT_TRUE(sq_node && cq_node && data_node);
  EXPECT_EQ(*sq_node, 0u);    // device-side memory
  EXPECT_EQ(*cq_node, 2u);    // polled locally
  EXPECT_EQ(*data_node, 2u);  // touched by the CPU on every request

  auto seg = tb.service().create_segment_hinted(2, 55, 4096, tb.device_id(),
                                                AccessHint::sq());
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ(seg->node(), 0u);
}

TEST(SmartIo, MetadataRegistry) {
  Testbed tb(small_testbed(2));
  EXPECT_EQ(tb.service().device_metadata(tb.device_id()).error_code(), Errc::not_found);
  ASSERT_TRUE(tb.service().set_device_metadata(tb.device_id(), 1, 0xABC).is_ok());
  auto meta = tb.service().device_metadata(tb.device_id());
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->first, 1u);
  EXPECT_EQ(meta->second, 0xABCu);
  ASSERT_TRUE(tb.service().clear_device_metadata(tb.device_id()).is_ok());
  EXPECT_FALSE(tb.service().device_metadata(tb.device_id()).has_value());
}

TEST(SmartIo, UnregisterRemovesDeviceUnlessBorrowed) {
  Testbed tb(small_testbed(2));
  {
    auto ref = tb.service().acquire(tb.device_id(), AcquireMode::shared);
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(tb.service().unregister_device(tb.device_id()).code(),
              Errc::permission_denied);
  }
  ASSERT_TRUE(tb.service().set_device_metadata(tb.device_id(), 0, 1).is_ok());
  ASSERT_TRUE(tb.service().unregister_device(tb.device_id()).is_ok());
  EXPECT_EQ(tb.service().device(tb.device_id()).error_code(), Errc::not_found);
  EXPECT_EQ(tb.service().device_metadata(tb.device_id()).error_code(), Errc::not_found);
  EXPECT_EQ(tb.service().unregister_device(tb.device_id()).code(), Errc::not_found);
}

TEST(SmartIo, UnknownDeviceRejected) {
  Testbed tb(small_testbed(2));
  EXPECT_EQ(tb.service().acquire(999, AcquireMode::shared).error_code(), Errc::not_found);
  EXPECT_EQ(tb.service().device(999).error_code(), Errc::not_found);
  EXPECT_EQ(tb.service().set_device_metadata(999, 0, 1).code(), Errc::not_found);
}

}  // namespace
}  // namespace nvmeshare::smartio
