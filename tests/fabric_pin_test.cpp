// Golden pin for the NTB substrate: the fabric-abstraction refactor must not
// change a single transaction on the PCIe/NTB path. The constants below were
// captured from the pre-refactor seed (PR 8 tree) running this exact
// scenario; the refactored NTB substrate has to reproduce them bit-for-bit —
// final simulated clock, every fabric counter, and the job's latency sums.
//
// If this test fails after an intentional change to the NTB latency model or
// driver instruction stream, re-capture by running with
// NVS_PIN_CAPTURE=1 and paste the printed block.
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

struct PinObservation {
  sim::Time end_time = 0;
  std::uint64_t posted_writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t ntb_translations = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  sim::Duration read_elapsed = 0;
  sim::Duration write_elapsed = 0;
};

/// The pinned scenario: 2 hosts, manager on the device host, client remote,
/// 64 random reads then 64 random writes (4 KiB, QD1), fixed seeds.
PinObservation run_pinned_scenario() {
  PinObservation obs;
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
  if (!stack) return obs;

  workload::JobSpec spec;
  spec.block_bytes = 4096;
  spec.queue_depth = 1;
  spec.ops = 64;
  spec.seed = 2024;

  spec.pattern = workload::JobSpec::Pattern::randread;
  auto rd = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
  EXPECT_TRUE(rd.has_value()) << rd.status().to_string();
  if (rd) {
    EXPECT_EQ(rd->errors, 0u);
    obs.read_ops = rd->ops_completed;
    obs.read_elapsed = rd->elapsed;
  }

  spec.pattern = workload::JobSpec::Pattern::randwrite;
  auto wr = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
  EXPECT_TRUE(wr.has_value()) << wr.status().to_string();
  if (wr) {
    EXPECT_EQ(wr->errors, 0u);
    obs.write_ops = wr->ops_completed;
    obs.write_elapsed = wr->elapsed;
  }

  obs.end_time = tb.engine().now();
  obs.posted_writes = tb.fabric().stats().posted_writes.value();
  obs.reads = tb.fabric().stats().reads.value();
  obs.bytes_written = tb.fabric().stats().bytes_written.value();
  obs.bytes_read = tb.fabric().stats().bytes_read.value();
  obs.ntb_translations = tb.fabric().stats().ntb_translations.value();
  return obs;
}

TEST(FabricPin, NtbPathMatchesPreRefactorSeed) {
  const PinObservation obs = run_pinned_scenario();

  if (std::getenv("NVS_PIN_CAPTURE") != nullptr) {
    std::printf("  constexpr sim::Time kEndTime = %" PRIu64 ";\n"
                "  constexpr std::uint64_t kPostedWrites = %" PRIu64 ";\n"
                "  constexpr std::uint64_t kReads = %" PRIu64 ";\n"
                "  constexpr std::uint64_t kBytesWritten = %" PRIu64 ";\n"
                "  constexpr std::uint64_t kBytesRead = %" PRIu64 ";\n"
                "  constexpr std::uint64_t kNtbTranslations = %" PRIu64 ";\n"
                "  constexpr sim::Duration kReadElapsed = %" PRIu64 ";\n"
                "  constexpr sim::Duration kWriteElapsed = %" PRIu64 ";\n",
                obs.end_time, obs.posted_writes, obs.reads, obs.bytes_written,
                obs.bytes_read, obs.ntb_translations,
                static_cast<std::uint64_t>(obs.read_elapsed),
                static_cast<std::uint64_t>(obs.write_elapsed));
    return;
  }

  // Captured from the pre-refactor seed build (see file comment).
  constexpr sim::Time kEndTime = 22000000;
  constexpr std::uint64_t kPostedWrites = 605;
  constexpr std::uint64_t kReads = 221;
  constexpr std::uint64_t kBytesWritten = 282200;
  constexpr std::uint64_t kBytesRead = 270928;
  constexpr std::uint64_t kNtbTranslations = 647;
  constexpr sim::Duration kReadElapsed = 972660;
  constexpr sim::Duration kWriteElapsed = 1094608;

  EXPECT_EQ(obs.end_time, kEndTime);
  EXPECT_EQ(obs.posted_writes, kPostedWrites);
  EXPECT_EQ(obs.reads, kReads);
  EXPECT_EQ(obs.bytes_written, kBytesWritten);
  EXPECT_EQ(obs.bytes_read, kBytesRead);
  EXPECT_EQ(obs.ntb_translations, kNtbTranslations);
  EXPECT_EQ(obs.read_ops, 64u);
  EXPECT_EQ(obs.write_ops, 64u);
  EXPECT_EQ(obs.read_elapsed, kReadElapsed);
  EXPECT_EQ(obs.write_elapsed, kWriteElapsed);
}

// --- multi-page PRP scenario ---------------------------------------------------------
//
// Second pin: every data path that builds PRPs and SQEs (client bounce,
// client IOMMU, LocalDriver, NVMe-oF target) runs 1-page, 2-page, unaligned
// 3-page and 32-page writes and reads, then flush, write_zeroes and discard,
// at QD 1. A refactor of PRP/SQE construction or completion handling must
// reproduce the clock, the fabric counters, the per-kind latency sums and,
// per operation, the device's non-SQE DMA reads (a read op's only such read
// is its PRP-list fetch; a write's also include the payload fetch).

enum class PrpPath : std::uint8_t { bounce, iommu, local, nvmeof };
constexpr std::array<PrpPath, 4> kPrpPaths = {PrpPath::bounce, PrpPath::iommu, PrpPath::local,
                                              PrpPath::nvmeof};
constexpr std::array<const char*, 4> kPrpPathNames = {"bounce", "iommu", "local", "nvmeof"};

/// One data operation of the scenario: size in 4 KiB pages and the buffer's
/// byte offset from a page boundary.
struct PrpOp {
  std::uint32_t bytes;
  std::uint32_t offset;
};
constexpr std::array<PrpOp, 4> kPrpDataOps = {
    PrpOp{4096, 0}, PrpOp{8192, 0}, PrpOp{8192, 512} /* touches 3 pages */,
    PrpOp{32 * 4096, 0}};
constexpr std::size_t kPrpOpCount = 2 * kPrpDataOps.size() + 3;  // + flush, zeroes, discard

struct PrpPinObservation {
  sim::Time end_time = 0;
  std::uint64_t posted_writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t ntb_translations = 0;
  sim::Duration write_sum = 0;
  sim::Duration read_sum = 0;
  sim::Duration other_sum = 0;
  std::array<std::uint64_t, kPrpOpCount> device_reads{};  ///< non-SQE DMA reads per op
};

PrpPinObservation run_prp_scenario(PrpPath path) {
  PrpPinObservation obs;
  Testbed tb(small_testbed(2));
  Result<Stack> stack = Status(Errc::not_found, "unused");
  std::unique_ptr<driver::LocalDriver> local;
  std::unique_ptr<nvmeof::Target> target;
  std::unique_ptr<nvmeof::Initiator> initiator;
  block::BlockDevice* dev = nullptr;
  sisci::NodeId node = 1;
  switch (path) {
    case PrpPath::bounce:
    case PrpPath::iommu: {
      driver::Client::Config cc;
      if (path == PrpPath::iommu) cc.data_path = driver::Client::DataPath::iommu;
      stack = bring_up(tb, 0, 1, cc);
      EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
      if (stack) dev = stack->client.get();
      break;
    }
    case PrpPath::local: {
      node = 0;
      auto drv = tb.wait(
          driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), &tb.irq(0), {}));
      EXPECT_TRUE(drv.has_value()) << drv.status().to_string();
      if (drv) local = std::move(*drv);
      dev = local.get();
      break;
    }
    case PrpPath::nvmeof: {
      auto t = tb.wait(nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(), tb.network(), {}));
      EXPECT_TRUE(t.has_value()) << t.status().to_string();
      if (!t) return obs;
      target = std::move(*t);
      auto in = tb.wait(nvmeof::Initiator::connect(tb.cluster(), tb.network(), *target, 1, {}));
      EXPECT_TRUE(in.has_value()) << in.status().to_string();
      if (in) initiator = std::move(*in);
      dev = initiator.get();
      break;
    }
  }
  if (dev == nullptr) return obs;

  std::size_t op_index = 0;
  auto run = [&](const block::Request& request, sim::Duration& sum) {
    const std::uint64_t reads_before = tb.fabric().stats().reads.value();
    const std::uint64_t fetches_before = tb.controller().stats().fetch_dma_reads.value();
    auto done = do_io(tb, *dev, request);
    EXPECT_TRUE(done.has_value()) << done.status().to_string();
    if (!done) return;
    EXPECT_TRUE(done->status.is_ok()) << done->status.to_string();
    sum += done->latency_ns;
    obs.device_reads[op_index++] = (tb.fabric().stats().reads.value() - reads_before) -
                                   (tb.controller().stats().fetch_dma_reads.value() -
                                    fetches_before);
  };

  std::uint64_t lba = 4096;
  std::array<std::uint64_t, kPrpDataOps.size()> lbas{};
  for (std::size_t i = 0; i < kPrpDataOps.size(); ++i) {
    const PrpOp op = kPrpDataOps[i];
    const std::uint64_t buf =
        alloc_pattern_buffer(tb, node, op.offset + op.bytes, 0x5000 + i) + op.offset;
    lbas[i] = lba;
    run({block::Op::write, lba, op.bytes / 512, buf}, obs.write_sum);
    lba += op.bytes / 512 + 64;
  }
  for (std::size_t i = 0; i < kPrpDataOps.size(); ++i) {
    const PrpOp op = kPrpDataOps[i];
    const std::uint64_t base = alloc_pattern_buffer(tb, node, op.offset + op.bytes, ~i);
    const std::uint64_t buf = base + op.offset;
    run({block::Op::read, lbas[i], op.bytes / 512, buf}, obs.read_sum);
    Bytes expect = make_pattern(op.offset + op.bytes, 0x5000 + i);
    Bytes got(op.offset + op.bytes);
    EXPECT_TRUE(tb.substrate().host_dram(node).read(base, got).is_ok());
    EXPECT_TRUE(std::equal(expect.begin() + op.offset, expect.end(), got.begin() + op.offset))
        << kPrpPathNames[static_cast<std::size_t>(path)] << " op " << i;
  }
  run({block::Op::flush, 0, 0, 0}, obs.other_sum);
  run({block::Op::write_zeroes, lbas[0], 16, 0}, obs.other_sum);
  const std::uint64_t discard_buf = alloc_pattern_buffer(tb, node, 4096, 0);
  run({block::Op::discard, lbas[3], 64, discard_buf}, obs.other_sum);

  obs.end_time = tb.engine().now();
  obs.posted_writes = tb.fabric().stats().posted_writes.value();
  obs.reads = tb.fabric().stats().reads.value();
  obs.bytes_written = tb.fabric().stats().bytes_written.value();
  obs.bytes_read = tb.fabric().stats().bytes_read.value();
  obs.ntb_translations = tb.fabric().stats().ntb_translations.value();
  return obs;
}

TEST(FabricPin, MultiPagePrpPathsMatchPreRefactorSeed) {
  std::array<PrpPinObservation, kPrpPaths.size()> obs;
  for (std::size_t p = 0; p < kPrpPaths.size(); ++p) obs[p] = run_prp_scenario(kPrpPaths[p]);

  if (std::getenv("NVS_PIN_CAPTURE") != nullptr) {
    std::printf("  const std::array<PrpPinObservation, 4> kExpected = {{\n");
    for (const PrpPinObservation& o : obs) {
      std::printf("      {%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", {",
                  o.end_time, o.posted_writes, o.reads, o.bytes_written, o.bytes_read,
                  o.ntb_translations, static_cast<std::uint64_t>(o.write_sum),
                  static_cast<std::uint64_t>(o.read_sum), static_cast<std::uint64_t>(o.other_sum));
      for (std::size_t i = 0; i < kPrpOpCount; ++i) {
        std::printf("%s%" PRIu64, i == 0 ? "" : ", ", o.device_reads[i]);
      }
      std::printf("}},\n");
    }
    std::printf("  }};\n");
    return;
  }

  // Captured from the tree before PRP/SQE construction was unified.
  const std::array<PrpPinObservation, 4> kExpected = {{
      {13000000, 77, 47, 161312, 153360, 126, 107021, 99262, 35911, {1, 1, 1, 2, 0, 0, 0, 1, 0, 0, 1}},
      {13000000, 77, 49, 161312, 153392, 127, 98304, 90695, 34861, {1, 1, 2, 2, 0, 0, 1, 1, 0, 0, 1}},
      {12000000, 87, 44, 161240, 153196, 0, 83430, 80157, 29692, {1, 1, 2, 2, 0, 0, 1, 1, 0, 0, 1}},
      {13000000, 75, 42, 161180, 153164, 0, 139473, 119514, 51101, {1, 1, 1, 2, 0, 0, 0, 1, 0, 0, 1}},
  }};

  for (std::size_t p = 0; p < kPrpPaths.size(); ++p) {
    SCOPED_TRACE(kPrpPathNames[p]);
    const PrpPinObservation& o = obs[p];
    const PrpPinObservation& e = kExpected[p];
    EXPECT_EQ(o.end_time, e.end_time);
    EXPECT_EQ(o.posted_writes, e.posted_writes);
    EXPECT_EQ(o.reads, e.reads);
    EXPECT_EQ(o.bytes_written, e.bytes_written);
    EXPECT_EQ(o.bytes_read, e.bytes_read);
    EXPECT_EQ(o.ntb_translations, e.ntb_translations);
    EXPECT_EQ(o.write_sum, e.write_sum);
    EXPECT_EQ(o.read_sum, e.read_sum);
    EXPECT_EQ(o.other_sum, e.other_sum);
    EXPECT_EQ(o.device_reads, e.device_reads);
  }
}

}  // namespace
}  // namespace nvmeshare
