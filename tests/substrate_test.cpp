// Substrate-neutrality suite: the same driver stack brought up over both
// interconnect substrates — the paper's PCIe/NTB fabric and the CXL
// pooled-memory model — must attach, move data correctly, and recover from
// faults. Plus the debug-build backdoor seal guard: after bring-up no
// production path may cheat through zero-latency cross-host peek/poke.
#include <gtest/gtest.h>

#include <string>

#include "cxl/pool.hpp"
#include "fabric/substrate.hpp"
#include "fault/fault.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

TestbedConfig substrate_testbed(fabric::SubstrateKind kind, std::uint32_t hosts) {
  TestbedConfig cfg = small_testbed(hosts);
  cfg.substrate = kind;
  return cfg;
}

class SubstrateTest : public ::testing::TestWithParam<fabric::SubstrateKind> {
 protected:
  [[nodiscard]] TestbedConfig config(std::uint32_t hosts) const {
    return substrate_testbed(GetParam(), hosts);
  }
};

// --- bring-up and data path --------------------------------------------------------

TEST_P(SubstrateTest, RemoteClientAttachesAndMovesData) {
  Testbed tb(config(2));
  auto stack = bring_up(tb, /*manager_node=*/0, /*client_node=*/1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  // Production steady state: no more backdoor traffic from here on.
  tb.substrate().seal_backdoors();
  write_read_verify(tb, *stack->client, 1, /*lba=*/64, 4096, /*seed=*/0xAB);
  write_read_verify(tb, *stack->client, 1, /*lba=*/1024, 32 * 1024, /*seed=*/0xCD);
  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
}

TEST_P(SubstrateTest, LocalClientMovesData) {
  Testbed tb(config(1));
  auto stack = bring_up(tb, 0, 0);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  tb.substrate().seal_backdoors();
  write_read_verify(tb, *stack->client, 0, /*lba=*/8, 8192, /*seed=*/0x77);
  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
}

TEST_P(SubstrateTest, TwoClientsShareOneDevice) {
  Testbed tb(config(3));
  auto mgr = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(mgr.has_value()) << mgr.status().to_string();
  auto c1 = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), {}));
  ASSERT_TRUE(c1.has_value()) << c1.status().to_string();
  auto c2 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), {}));
  ASSERT_TRUE(c2.has_value()) << c2.status().to_string();

  tb.substrate().seal_backdoors();
  // Disjoint LBA ranges; each client must read back its own pattern.
  write_read_verify(tb, **c1, 1, /*lba=*/0, 16 * 1024, /*seed=*/0x11);
  write_read_verify(tb, **c2, 2, /*lba=*/4096, 16 * 1024, /*seed=*/0x22);
  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
}

// --- recovery ----------------------------------------------------------------------

// A link flap mid-workload: commands in flight time out, the client runs
// queue-level recovery, and verified I/O passes once the link is back. The
// same plan drives the NTB cable-pull path and the CXL port-down path
// through Substrate::set_host_link.
TEST_P(SubstrateTest, RecoversFromLinkFlap) {
  auto plan = fault::parse_plan("seed=11;ntb_link_down:host=1,at=300us,for=400us");
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  fault::Injector::global().configure(std::move(*plan));

  driver::Client::Config cc;
  cc.cmd_timeout_ns = 500'000;
  cc.cmd_retry_limit = 5;
  cc.retry_backoff_ns = 50'000;

  Testbed tb(config(2));
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  fabric::Substrate* sub = &tb.substrate();
  fault::Injector::global().arm(tb.engine(),
                                {.set_ntb_link = [sub](std::uint32_t host, bool up) {
                                  (void)sub->set_host_link(host, up);
                                }});

  workload::JobSpec spec;
  spec.name = "linkflap";
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.block_bytes = 4096;
  spec.queue_depth = 4;
  spec.ops = 2000;
  spec.seed = 99;
  spec.verify = true;
  auto result = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
  fault::Injector::global().disarm();
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->verify_failures, 0u);

  // The flap actually happened, and the stack survived it.
  write_read_verify(tb, *stack->client, 1, /*lba=*/2048, 4096, /*seed=*/0x5A);
}

// --- write watches -----------------------------------------------------------------

// Event-skipping pollers trust Substrate::watch_writes to report every store
// into the memory they poll, on every write path.
TEST_P(SubstrateTest, WriteWatchSeesEveryWritePath) {
  Testbed tb(config(2));
  fabric::Substrate& sub = tb.substrate();
  sim::Engine& engine = tb.engine();
  auto base = tb.cluster().alloc_dram(1, 4096, 4096);
  ASSERT_TRUE(base.has_value()) << base.status().to_string();
  const std::uint64_t lo = *base + 1024;  // watched: [lo, lo + 64)
  sim::PollTimer timer(engine);
  auto watch = sub.watch_writes(1, lo, 64, timer);
  ASSERT_TRUE(watch.has_value()) << watch.status().to_string();
  const Bytes data(32, std::byte{0x5a});

  // Each write lands (posted writes at their arrival time); then the flag
  // must match whether the write touched [lo, lo + 64).
  auto check = [&](bool expect_notify, const char* what) {
    engine.run_until(engine.now() + 100'000);
    EXPECT_EQ(timer.notified(), expect_notify) << what;
    timer.clear();
  };

  ASSERT_TRUE(sub.post_write(sub.cpu(1), lo + 40, data).has_value());
  check(true, "posted write overlapping the end");
  ASSERT_TRUE(sub.post_write(sub.cpu(1), lo - 32, data).has_value());
  check(false, "posted write ending one byte before the range");
  ASSERT_TRUE(sub.post_write(sub.cpu(1), lo + 64, data).has_value());
  check(false, "posted write starting right after the range");
  const fabric::SgEntry sg[] = {{*base, 16}, {lo + 60, 16}};
  ASSERT_TRUE(sub.write_sg(sub.cpu(1), sg, data).has_value());
  check(true, "scatter write with one chunk inside");
  ASSERT_TRUE(sub.poke(1, lo, data).is_ok());
  check(true, "poke");
  ASSERT_TRUE(sub.host_dram(1).write(lo + 8, data).is_ok());
  check(true, "direct store into the backing memory");

  for (const char* plan_text : {"seed=3;flip_dma_bits:src=1,dst=1,nth=1,count=1",
                                "seed=3;torn_dma_write:src=1,dst=1,nth=1,count=1"}) {
    auto plan = fault::parse_plan(plan_text);
    ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
    fault::Injector::global().configure(std::move(*plan));
    const auto& fs = fault::Injector::global().stats();
    const std::uint64_t damaged = fs.bit_flips.value() + fs.torn_writes.value();
    ASSERT_TRUE(sub.post_write(sub.cpu(1), lo, data).has_value());
    EXPECT_EQ(fs.bit_flips.value() + fs.torn_writes.value(), damaged + 1) << plan_text;
    check(true, plan_text);
    fault::Injector::global().disarm();
  }

  watch->reset();
  ASSERT_TRUE(sub.post_write(sub.cpu(1), lo, data).has_value());
  ASSERT_TRUE(sub.poke(1, lo, data).is_ok());
  check(false, "write after unwatch");
}

TEST_P(SubstrateTest, WriteWatchOnSharedMemory) {
  // The CXL pool is one memory behind every host's HDM window; on NTB the
  // same role is played by another host's DRAM seen through a window.
  Testbed tb(config(2));
  fabric::Substrate& sub = tb.substrate();
  sim::Engine& engine = tb.engine();
  sim::PollTimer timer(engine);
  std::uint64_t viewer_addr = 0;  // the range as host 1 sees it
  std::uint64_t owner_addr = 0;   // the range in host 0's space (NTB only)
  fabric::Window window;
  if (GetParam() == fabric::SubstrateKind::cxl) {
    viewer_addr = cxl::PoolFabric::kPoolBase + 0x10000;
    owner_addr = viewer_addr;
  } else {
    auto base = tb.cluster().alloc_dram(0, 4096, 4096);
    ASSERT_TRUE(base.has_value()) << base.status().to_string();
    auto w = sub.map_window(fabric::MapIntent::cpu, 1, 0, *base, 4096);
    ASSERT_TRUE(w.has_value()) << w.status().to_string();
    window = std::move(*w);
    viewer_addr = window.addr();
    owner_addr = *base;
  }
  auto watch = sub.watch_writes(1, viewer_addr, 128, timer);
  ASSERT_TRUE(watch.has_value()) << watch.status().to_string();

  const Bytes data(16, std::byte{0x11});
  // A store by another host, addressed in its own space.
  ASSERT_TRUE(sub.post_write(sub.cpu(0), owner_addr + 112, data).has_value());
  engine.run_until(engine.now() + 100'000);
  EXPECT_TRUE(timer.notified());
  timer.clear();
  ASSERT_TRUE(sub.post_write(sub.cpu(0), owner_addr + 128, data).has_value());
  engine.run_until(engine.now() + 100'000);
  EXPECT_FALSE(timer.notified());
}

TEST_P(SubstrateTest, WriteWatchRejectsDeviceRegisters) {
  Testbed tb(config(1));
  sim::PollTimer timer(tb.engine());
  auto bar = tb.substrate().bar_address(tb.nvme_endpoint(), 0);
  ASSERT_TRUE(bar.has_value()) << bar.status().to_string();
  EXPECT_FALSE(tb.substrate().watch_writes(0, *bar, 64, timer).has_value());
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, SubstrateTest,
                         ::testing::Values(fabric::SubstrateKind::ntb,
                                           fabric::SubstrateKind::cxl),
                         [](const auto& info) {
                           return std::string(fabric::substrate_name(info.param));
                         });

// --- backdoor seal guard (satellite: debug-build peek/poke assertion) --------------

class BackdoorGuardTest : public ::testing::TestWithParam<fabric::SubstrateKind> {};

TEST_P(BackdoorGuardTest, SealedCrossHostBackdoorIsRejected) {
#ifdef NDEBUG
  GTEST_SKIP() << "backdoor guard compiles out in release builds";
#else
  Testbed tb(substrate_testbed(GetParam(), 2));
  fabric::Substrate& sub = tb.substrate();

  // A window from host 1 onto the device's BAR (the device lives in host
  // 0): a backdoor access through it crosses hosts on both substrates —
  // through the NTB aperture on PCIe, over CXL.io p2p on the pool.
  auto ref = tb.service().acquire(tb.device_id(), smartio::AcquireMode::shared);
  ASSERT_TRUE(ref.has_value()) << ref.status().to_string();
  auto bar = ref->map_bar(/*node=*/1, /*bar=*/0);
  ASSERT_TRUE(bar.has_value()) << bar.status().to_string();
  const std::uint64_t cap_addr = bar->addr() + nvme::reg::kCap;

  // Unsealed (bring-up): cross-host peek is allowed and reads the register.
  Bytes got(8);
  ASSERT_TRUE(sub.peek(1, cap_addr, got).is_ok());
  EXPECT_NE(load_pod<std::uint64_t>(got), 0u);
  const std::uint64_t violations_before = sub.stats().backdoor_violations.value();

  sub.seal_backdoors();

  // Same-host backdoor access stays legal (test assertions on local state).
  auto addr = tb.cluster().alloc_dram(/*node=*/1, 4096, 4096);
  ASSERT_TRUE(addr.has_value());
  Bytes word(8, std::byte{0x42});
  EXPECT_TRUE(sub.poke(1, *addr, word).is_ok());
  EXPECT_TRUE(sub.peek(1, *addr, got).is_ok());

  // Cross-host access is now a contract violation: rejected and counted.
  Status st = sub.peek(1, cap_addr, got);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st, Status(Errc::permission_denied, ""));
  st = sub.peek(1, cap_addr, got);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(sub.stats().backdoor_violations.value(), violations_before + 2);

  // unseal (e.g. for a post-mortem dump) restores the bring-up behavior.
  sub.unseal_backdoors();
  EXPECT_TRUE(sub.peek(1, cap_addr, got).is_ok());
#endif
}

// The production stack itself must never trip the guard: a full bring-up,
// I/O, and teardown with sealed backdoors records zero violations. (The
// remote-client data-path test above also checks this; this one pins the
// manager-side admin path on host 0.)
TEST_P(BackdoorGuardTest, ProductionPathsStaySealedClean) {
#ifdef NDEBUG
  GTEST_SKIP() << "backdoor guard compiles out in release builds";
#else
  Testbed tb(substrate_testbed(GetParam(), 2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  tb.substrate().seal_backdoors();

  write_read_verify(tb, *stack->client, 1, /*lba=*/512, 16 * 1024, /*seed=*/0x3C);

  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
#endif
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, BackdoorGuardTest,
                         ::testing::Values(fabric::SubstrateKind::ntb,
                                           fabric::SubstrateKind::cxl),
                         [](const auto& info) {
                           return std::string(fabric::substrate_name(info.param));
                         });

}  // namespace
}  // namespace nvmeshare
