// Property-based and parameterized sweeps: invariants that must hold for
// whole families of configurations, not single examples.
#include <gtest/gtest.h>

#include <map>

#include "driver/local_driver.hpp"
#include "integrity/integrity.hpp"
#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "pcie/fabric.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

// --- queue-size sweep: ring wraparound and phase tags for any size ---------------

class QueueSizeSweep : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(QueueSizeSweep, ManyOpsThroughTinyQueues) {
  const std::uint16_t entries = GetParam();
  Testbed tb(small_testbed(2));
  driver::Client::Config cc;
  cc.queue_entries = entries;
  cc.queue_depth = std::min<std::uint32_t>(entries - 1u, 4u);
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  // Enough operations to wrap the ring several times over.
  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.ops = entries * 6u;
  spec.queue_depth = cc.queue_depth;
  spec.verify = true;
  spec.seed = entries;
  auto result = tb.wait(workload::run_job(tb.cluster(), *stack->client, 1, spec), 120_s);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->ops_completed, entries * 6u);
  EXPECT_EQ(result->errors, 0u);
  EXPECT_EQ(result->verify_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Rings, QueueSizeSweep,
                         ::testing::Values<std::uint16_t>(2, 3, 4, 5, 8, 16, 64));

// --- block-size sweep: PRP handling across every descriptor shape ---------------

class BlockSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BlockSizeSweep, WriteReadVerifyRemote) {
  const std::uint32_t bytes = GetParam();
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value());
  // Two disjoint locations per size, one low and one high.
  write_read_verify(tb, *stack->client, 1, 64, bytes, 0x5000 + bytes);
  write_read_verify(tb, *stack->client, 1, 262144, bytes, 0x6000 + bytes);
}

INSTANTIATE_TEST_SUITE_P(Prp, BlockSizeSweep,
                         ::testing::Values<std::uint32_t>(
                             512,          // sub-page: PRP1 only
                             4096,         // exactly one page
                             4608,         // just over one page: PRP2 as data pointer
                             8192,         // exactly two pages
                             8704,         // just over two: smallest PRP list
                             61440,        // 15 pages
                             131072));     // MDTS: full 32-page PRP list

// --- randomized array-consistency property against an in-memory model -----------

class DeviceModelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeviceModelFuzz, DeviceBehavesLikeAnArrayOfBlocks) {
  const std::uint64_t seed = GetParam();
  Testbed tb(small_testbed(1));
  auto drv = tb.wait(
      driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), &tb.irq(0), {}));
  ASSERT_TRUE(drv.has_value());
  block::BlockDevice& dev = **drv;

  Rng rng(seed);
  constexpr std::uint64_t kRegionBlocks = 4096;  // 2 MiB working set
  std::map<std::uint64_t, std::uint8_t> model;   // block -> fill byte
  const std::uint64_t arena = *tb.cluster().alloc_dram(0, 256 * KiB, 4096);

  for (int op = 0; op < 120; ++op) {
    const std::uint32_t nblocks = static_cast<std::uint32_t>(rng.uniform(64) + 1);
    const std::uint64_t lba = rng.uniform(kRegionBlocks - nblocks);
    const std::uint64_t bytes = nblocks * 512ull;
    // Odd-but-legal buffer offsets exercise PRP1 offset handling.
    const std::uint64_t buffer = arena + rng.uniform(16) * 512;
    const bool is_write = rng.chance(0.6);

    if (is_write) {
      const auto fill = static_cast<std::uint8_t>(rng.uniform(255) + 1);
      Bytes data(bytes, std::byte{fill});
      ASSERT_TRUE(tb.fabric().host_dram(0).write(buffer, data).is_ok());
      auto done = do_io(tb, dev, {block::Op::write, lba, nblocks, buffer});
      ASSERT_TRUE(done.has_value() && done->status.is_ok()) << done->status.to_string();
      for (std::uint64_t b = 0; b < nblocks; ++b) model[lba + b] = fill;
    } else {
      auto done = do_io(tb, dev, {block::Op::read, lba, nblocks, buffer});
      ASSERT_TRUE(done.has_value() && done->status.is_ok()) << done->status.to_string();
      Bytes out(bytes);
      ASSERT_TRUE(tb.fabric().host_dram(0).read(buffer, out).is_ok());
      for (std::uint64_t b = 0; b < nblocks; ++b) {
        auto it = model.find(lba + b);
        const auto expected = it == model.end() ? std::uint8_t{0} : it->second;
        for (std::uint64_t i = 0; i < 512; ++i) {
          ASSERT_EQ(out[b * 512 + i], std::byte{expected})
              << "op " << op << " block " << lba + b << " byte " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceModelFuzz, ::testing::Values(1, 2, 3, 4, 5));

// --- determinism: identical seeds -> identical measurements ----------------------

class DeterminismSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismSweep, TwoIdenticalClustersAgreeExactly) {
  const std::uint64_t seed = GetParam();
  auto run_once = [&]() -> std::vector<sim::Duration> {
    Testbed tb(small_testbed(2));
    auto stack = bring_up(tb, 0, 1);
    EXPECT_TRUE(stack.has_value());
    workload::JobSpec spec;
    spec.pattern = workload::JobSpec::Pattern::randrw;
    spec.ops = 80;
    spec.queue_depth = 3;
    spec.seed = seed;
    auto result = tb.wait(workload::run_job(tb.cluster(), *stack->client, 1, spec), 120_s);
    EXPECT_TRUE(result.has_value());
    return result->total_latency.samples();
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep, ::testing::Values(11, 22, 33));

// --- WRR arbitration sweep: no weight corner may starve a class -----------------

struct WrrCase {
  std::uint8_t lpw, mpw, hpw;           // 0-based weight fields (weight = field + 1)
  nvme::SqPriority a, b;                 // the two clients' priority classes
};

class WrrWeightSweep : public ::testing::TestWithParam<WrrCase> {};

TEST_P(WrrWeightSweep, BothClientsCompleteVerifiedIoUnderWrr) {
  const WrrCase p = GetParam();
  Testbed tb(small_testbed(3));
  driver::Manager::Config mc;
  mc.enable_wrr = true;
  mc.wrr_low_weight = p.lpw;
  mc.wrr_medium_weight = p.mpw;
  mc.wrr_high_weight = p.hpw;
  auto mgr = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), mc));
  ASSERT_TRUE(mgr.has_value()) << mgr.status().to_string();

  driver::Client::Config ca;
  ca.qos_class = p.a;
  auto client_a = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), ca));
  ASSERT_TRUE(client_a.has_value()) << client_a.status().to_string();
  driver::Client::Config cb;
  cb.qos_class = p.b;
  auto client_b = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), cb));
  ASSERT_TRUE(client_b.has_value()) << client_b.status().to_string();

  // Both clients hammer the device at once; every corner of the weight
  // space must complete both verified jobs (a zero weight field still
  // means weight 1, so even the lowest class keeps making progress).
  auto make_spec = [](std::uint64_t seed, sisci::NodeId node) {
    workload::JobSpec spec;
    spec.name = "wrr-n" + std::to_string(node);
    spec.pattern = workload::JobSpec::Pattern::randrw;
    spec.ops = 120;
    spec.queue_depth = 4;
    spec.verify = true;
    spec.seed = seed;
    spec.region_offset_blocks = node * 4096;  // disjoint working sets
    spec.region_blocks = 4096;
    return spec;
  };
  auto fa = workload::run_job(tb.cluster(), **client_a, 1, make_spec(p.lpw * 100 + 1, 1));
  auto fb = workload::run_job(tb.cluster(), **client_b, 2, make_spec(p.hpw * 100 + 2, 2));
  auto ra = tb.wait(std::move(fa), 120_s);
  auto rb = tb.wait(std::move(fb), 120_s);
  ASSERT_TRUE(ra.has_value()) << ra.status().to_string();
  ASSERT_TRUE(rb.has_value()) << rb.status().to_string();
  for (const auto* r : {&*ra, &*rb}) {
    EXPECT_EQ(r->ops_completed, 120u);
    EXPECT_EQ(r->errors, 0u);
    EXPECT_EQ(r->verify_failures, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Weights, WrrWeightSweep,
    ::testing::Values(
        // all-zero weight fields: every weighted class at weight 1
        WrrCase{0, 0, 0, nvme::SqPriority::high, nvme::SqPriority::low},
        // the default shape
        WrrCase{0, 1, 3, nvme::SqPriority::high, nvme::SqPriority::low},
        // maximal field values
        WrrCase{255, 255, 255, nvme::SqPriority::low, nvme::SqPriority::low},
        // all-urgent corner: strict priority, weighted classes idle
        WrrCase{0, 1, 3, nvme::SqPriority::urgent, nvme::SqPriority::urgent},
        // inverted weights: low outweighs high, both still finish
        WrrCase{7, 1, 0, nvme::SqPriority::medium, nvme::SqPriority::high}));

// --- protection information survives every data path ------------------------------

// One verified random-rw job with the full PI pipeline on (PRACT writes,
// PRCHK reads, client shadow verify) must behave exactly like an
// integrity-off run — zero errors, zero verify failures — on both data
// paths, and the integrity counters must show the tuples actually flowed.
class PiDataPathSweep : public ::testing::TestWithParam<driver::Client::DataPath> {};

TEST_P(PiDataPathSweep, VerifiedJobRunsCleanWithPiEnabled) {
  Testbed tb([] {
    TestbedConfig cfg = small_testbed(2);
    cfg.nvme.pi_enabled = true;
    return cfg;
  }());
  driver::Client::Config cc;
  cc.pi_verify = true;
  cc.data_path = GetParam();
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  const std::uint64_t gen0 = integrity::stats().pi_generated.value();
  const std::uint64_t ver0 = integrity::stats().pi_verified.value();
  const std::uint64_t fail0 = integrity::stats().client_verify_failures.value();

  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.ops = 200;
  spec.queue_depth = 4;
  spec.region_blocks = 512;  // small region so reads revisit written blocks
  spec.verify = true;
  auto result = tb.wait(workload::run_job(tb.cluster(), *stack->client, 1, spec), 120_s);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->errors, 0u);
  EXPECT_EQ(result->verify_failures, 0u);
  EXPECT_GT(integrity::stats().pi_generated.value(), gen0);
  EXPECT_GT(integrity::stats().pi_verified.value(), ver0);
  EXPECT_EQ(integrity::stats().client_verify_failures.value(), fail0);
}

INSTANTIATE_TEST_SUITE_P(DataPaths, PiDataPathSweep,
                         ::testing::Values(driver::Client::DataPath::bounce_buffer,
                                           driver::Client::DataPath::iommu));

TEST(PiDataPaths, NvmeofDigestsRunClean) {
  // Same property over the NVMe-oF path: DDGST on both sides, a verified
  // job, and not a single digest mismatch on an honest fabric.
  Testbed tb(small_testbed(2));
  nvmeof::Target::Config tc;
  tc.data_digest = true;
  auto target =
      tb.wait(nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(), tb.network(), tc));
  ASSERT_TRUE(target.has_value()) << target.status().to_string();
  nvmeof::Initiator::Config ic;
  ic.data_digest = true;
  auto initiator =
      tb.wait(nvmeof::Initiator::connect(tb.cluster(), tb.network(), **target, 1, ic));
  ASSERT_TRUE(initiator.has_value()) << initiator.status().to_string();

  const std::uint64_t dig0 = integrity::stats().digests_generated.value();
  const std::uint64_t err0 = integrity::stats().digest_errors.value();

  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.ops = 200;
  spec.queue_depth = 4;
  spec.region_blocks = 512;
  spec.verify = true;
  auto result = tb.wait(workload::run_job(tb.cluster(), **initiator, 1, spec), 120_s);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->errors, 0u);
  EXPECT_EQ(result->verify_failures, 0u);
  EXPECT_GT(integrity::stats().digests_generated.value(), dig0);
  EXPECT_EQ(integrity::stats().digest_errors.value(), err0);
}

// --- determinism under corruption faults ------------------------------------------

class CorruptionDeterminismSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorruptionDeterminismSweep, SameSeedCorruptionRunsAgreeExactly) {
  // The whole integrity pipeline — seeded bit flips, shadow-tuple verify
  // failures, retries, the background scrubber — must be as reproducible
  // as a fault-free run: identical seeds, identical latency samples and
  // identical outcomes. A flip that lands on a CQE can legitimately fail an
  // op (a corrupted status is not retryable); the pin is that both runs
  // fail the exact same way, not that every run is clean.
  const std::uint64_t seed = GetParam();
  struct Outcome {
    std::vector<sim::Duration> samples;
    std::uint64_t errors = 0;
    std::uint64_t verify_failures = 0;
    bool operator==(const Outcome&) const = default;
  };
  auto run_once = [&]() -> Outcome {
    Testbed tb([] {
      TestbedConfig cfg = with_faults(small_testbed(2),
                                      "seed=13;flip_dma_bits:src=0,dst=1,nth=20,count=3;"
                                      "torn_dma_write:src=0,dst=1,class=dram,nth=90,count=1");
      cfg.nvme.pi_enabled = true;
      return cfg;
    }());
    driver::Client::Config cc;
    cc.pi_verify = true;
    cc.cmd_timeout_ns = 500'000;
    cc.cmd_retry_limit = 3;
    cc.retry_backoff_ns = 50'000;
    driver::Manager::Config mc;
    mc.scrub_interval_ns = 100'000;
    auto stack = bring_up(tb, 0, 1, cc, mc);
    EXPECT_TRUE(stack.has_value());
    tb.substrate().arm_faults();

    workload::JobSpec spec;
    spec.pattern = workload::JobSpec::Pattern::randrw;
    spec.ops = 120;
    spec.queue_depth = 3;
    spec.region_blocks = 512;
    spec.verify = true;
    spec.seed = seed;
    auto result = tb.wait(workload::run_job(tb.cluster(), *stack->client, 1, spec), 120_s);
    EXPECT_TRUE(result.has_value());
    return {result->total_latency.samples(), result->errors, result->verify_failures};
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionDeterminismSweep, ::testing::Values(44, 55));

// --- allocator fuzz: no overlap, full recovery ------------------------------------

class AllocatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorFuzz, RandomAllocFreeNeverOverlaps) {
  Rng rng(GetParam());
  mem::RangeAllocator alloc(0x10000, 1 * MiB);
  std::map<std::uint64_t, std::uint64_t> live;  // addr -> size

  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      const std::uint64_t size = rng.uniform(16 * KiB) + 1;
      const std::uint64_t align = 1ull << rng.uniform(13);  // 1..4096
      auto addr = alloc.alloc(size, align);
      if (!addr) continue;  // exhaustion is fine; corruption is not
      EXPECT_EQ(*addr % align, 0u);
      // No overlap with any live allocation.
      auto next = live.lower_bound(*addr);
      if (next != live.end()) {
        EXPECT_LE(*addr + size, next->first);
      }
      if (next != live.begin()) {
        auto prev = std::prev(next);
        EXPECT_LE(prev->first + prev->second, *addr);
      }
      live.emplace(*addr, size);
    } else {
      auto victim = live.begin();
      std::advance(victim, static_cast<long>(rng.uniform(live.size())));
      EXPECT_TRUE(alloc.free(victim->first).is_ok());
      live.erase(victim);
    }
  }
  for (const auto& [addr, size] : live) EXPECT_TRUE(alloc.free(addr).is_ok());
  // Everything returned: the full arena must be allocatable again.
  EXPECT_TRUE(alloc.alloc(1 * MiB, 1).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzz, ::testing::Values(7, 8, 9));

// --- latency model invariants -----------------------------------------------------

TEST(LatencyModelProperties, MonotoneInBytesAndPath) {
  pcie::LatencyModel m;
  sim::Duration prev_read = 0;
  sim::Duration prev_write = 0;
  for (std::uint64_t bytes : {0ull, 64ull, 512ull, 4096ull, 65536ull, 131072ull}) {
    const auto r = m.read_ns(300, 1, bytes);
    const auto w = m.posted_write_ns(300, 1, bytes);
    EXPECT_GE(r, prev_read);
    EXPECT_GE(w, prev_write);
    EXPECT_GT(r, w);  // non-posted reads always cost more than posted writes
    prev_read = r;
    prev_write = w;
  }
  for (sim::Duration path : {0, 100, 500, 1000}) {
    EXPECT_LT(m.read_ns(path, 0, 4096), m.read_ns(path + 120, 0, 4096));
    EXPECT_LT(m.read_ns(path, 0, 4096), m.read_ns(path, 1, 4096));  // NTB crossing costs
  }
}

TEST(LatencyModelProperties, ReadPaysPathTwiceWritesOnce) {
  pcie::LatencyModel m;
  // Adding X ns of path raises a read by 2X and a posted write by X.
  const sim::Duration dx = 500;
  EXPECT_EQ(m.read_ns(1000 + dx, 0, 0) - m.read_ns(1000, 0, 0), 2 * dx);
  EXPECT_EQ(m.posted_write_ns(1000 + dx, 0, 0) - m.posted_write_ns(1000, 0, 0), dx);
}

// --- NTB mapping fuzz ---------------------------------------------------------------

class NtbMappingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NtbMappingFuzz, RandomSegmentsMapAndRoundTrip) {
  Rng rng(GetParam());
  Testbed tb(small_testbed(2));
  for (int round = 0; round < 12; ++round) {
    const std::uint64_t size = (rng.uniform(8) + 1) * 512 * KiB + rng.uniform(3) * 4096;
    auto seg = tb.cluster().create_segment(0, 0x1000 + static_cast<sisci::SegmentId>(round),
                                           size);
    ASSERT_TRUE(seg.has_value());
    auto map = sisci::Map::create(tb.cluster(), 1, seg->descriptor());
    ASSERT_TRUE(map.has_value()) << map.status().to_string();

    // Probe a few random offsets, including near the end. Single accesses
    // may not straddle an NTB window boundary (hardware would split them;
    // the model rejects them), so nudge any straddler back.
    const std::uint64_t window = workload::Testbed::kNtbWindowSize;
    for (int probe = 0; probe < 4; ++probe) {
      const std::uint64_t len = std::min<std::uint64_t>(rng.uniform(4096) + 1, size);
      std::uint64_t off = align_down(rng.uniform(size - len + 1), 4);
      if (off / window != (off + len - 1) / window) {
        off = align_down((off / window + 1) * window - len, 4);
      }
      Bytes data = make_pattern(len, rng.next());
      ASSERT_TRUE(tb.fabric().poke(1, map->addr() + off, data).is_ok())
          << "size=" << size << " off=" << off << " len=" << len;
      Bytes out(len);
      ASSERT_TRUE(seg->read(off, out).is_ok());
      EXPECT_EQ(out, data);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NtbMappingFuzz, ::testing::Values(101, 202));

}  // namespace
}  // namespace nvmeshare
