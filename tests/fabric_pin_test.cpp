// Golden pins for both substrates. The first guards the PCIe/NTB path: the
// fabric-abstraction refactor must not change a single transaction on it.
// Each pin writes what its scenario leaves behind (final simulated clock,
// every fabric counter, the jobs' latency sums) as a document and compares it
// with tests/golden/ bit for bit. The last pin does the same for the CXL pool
// substrate. After a deliberate change to the latency model or the driver
// instruction stream, `tools/same_seed_docs.sh BUILD_DIR tests/golden`
// rewrites the documents.
#include <gtest/gtest.h>

#include <array>

#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

/// The simulated clock and every fabric counter, each key behind `prefix`.
void add_fabric(GoldenDoc& doc, const std::string& prefix, Testbed& tb) {
  const fabric::Stats& s = tb.substrate().stats();
  doc.add(prefix + "end_time", tb.engine().now())
      .add(prefix + "posted_writes", s.posted_writes.value())
      .add(prefix + "reads", s.reads.value())
      .add(prefix + "bytes_written", s.bytes_written.value())
      .add(prefix + "bytes_read", s.bytes_read.value())
      .add(prefix + "unsupported_requests", s.unsupported_requests.value())
      .add(prefix + "ntb_translations", s.ntb_translations.value())
      .add(prefix + "backdoor_violations", s.backdoor_violations.value());
}

/// The pinned scenario: 2 hosts, manager on the device host, client remote,
/// 64 random reads then 64 random writes (4 KiB, QD1), fixed seeds.
GoldenDoc run_pinned_scenario() {
  GoldenDoc doc;
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
  if (!stack) return doc;

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
    doc.add("read_ops", rd->ops_completed).add("read_elapsed", rd->elapsed);
  }

  spec.pattern = workload::JobSpec::Pattern::randwrite;
  auto wr = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
  EXPECT_TRUE(wr.has_value()) << wr.status().to_string();
  if (wr) {
    EXPECT_EQ(wr->errors, 0u);
    doc.add("write_ops", wr->ops_completed).add("write_elapsed", wr->elapsed);
  }
  add_fabric(doc, "", tb);
  return doc;
}

TEST(FabricPin, NtbPathMatchesPreRefactorSeed) {
  expect_golden("pin_fabric_ntb", run_pinned_scenario().str());
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

/// Adds the path's clock, fabric counters, per-kind latency sums and, per
/// operation, the device's non-SQE DMA reads, each key behind `<path>.`.
void run_prp_scenario(PrpPath path, GoldenDoc& doc) {
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
      if (!t) return;
      target = std::move(*t);
      auto in = tb.wait(nvmeof::Initiator::connect(tb.cluster(), tb.network(), *target, 1, {}));
      EXPECT_TRUE(in.has_value()) << in.status().to_string();
      if (in) initiator = std::move(*in);
      dev = initiator.get();
      break;
    }
  }
  if (dev == nullptr) return;

  sim::Duration write_sum = 0;
  sim::Duration read_sum = 0;
  sim::Duration other_sum = 0;
  std::array<std::uint64_t, kPrpOpCount> device_reads{};
  std::size_t op_index = 0;
  auto run = [&](const block::Request& request, sim::Duration& sum) {
    const std::uint64_t reads_before = tb.fabric().stats().reads.value();
    const std::uint64_t fetches_before = tb.controller().stats().fetch_dma_reads.value();
    auto done = do_io(tb, *dev, request);
    EXPECT_TRUE(done.has_value()) << done.status().to_string();
    if (!done) return;
    EXPECT_TRUE(done->status.is_ok()) << done->status.to_string();
    sum += done->latency_ns;
    device_reads[op_index++] = (tb.fabric().stats().reads.value() - reads_before) -
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
    run({block::Op::write, lba, op.bytes / 512, buf}, write_sum);
    lba += op.bytes / 512 + 64;
  }
  for (std::size_t i = 0; i < kPrpDataOps.size(); ++i) {
    const PrpOp op = kPrpDataOps[i];
    const std::uint64_t base = alloc_pattern_buffer(tb, node, op.offset + op.bytes, ~i);
    const std::uint64_t buf = base + op.offset;
    run({block::Op::read, lbas[i], op.bytes / 512, buf}, read_sum);
    Bytes expect = make_pattern(op.offset + op.bytes, 0x5000 + i);
    Bytes got(op.offset + op.bytes);
    EXPECT_TRUE(tb.substrate().host_dram(node).read(base, got).is_ok());
    EXPECT_TRUE(std::equal(expect.begin() + op.offset, expect.end(), got.begin() + op.offset))
        << kPrpPathNames[static_cast<std::size_t>(path)] << " op " << i;
  }
  run({block::Op::flush, 0, 0, 0}, other_sum);
  run({block::Op::write_zeroes, lbas[0], 16, 0}, other_sum);
  const std::uint64_t discard_buf = alloc_pattern_buffer(tb, node, 4096, 0);
  run({block::Op::discard, lbas[3], 64, discard_buf}, other_sum);

  const std::string prefix = std::string(kPrpPathNames[static_cast<std::size_t>(path)]) + ".";
  add_fabric(doc, prefix, tb);
  doc.add(prefix + "write_sum", write_sum)
      .add(prefix + "read_sum", read_sum)
      .add(prefix + "other_sum", other_sum)
      .add_list(prefix + "device_reads", device_reads);
}

TEST(FabricPin, MultiPagePrpPathsMatchPreRefactorSeed) {
  GoldenDoc doc;
  for (PrpPath path : kPrpPaths) run_prp_scenario(path, doc);
  expect_golden("pin_fabric_prp", doc.str());
}

// --- CXL pool scenario ----------------------------------------------------------------
//
// Third pin: ours-remote on the CXL pooled-memory substrate. QD-1 random
// 4 KiB reads and writes take the pool's load/store port costs; 128 KiB
// reads and writes are above PoolConfig::dsa_threshold and take the DSA
// scatter/gather branch. Pins the clock, every `nvmeshare.fabric.*` counter
// and each job's elapsed time and latency sum.

struct CxlJob {
  workload::JobSpec::Pattern pattern;
  std::uint32_t block_bytes;
};
constexpr std::array<CxlJob, 4> kCxlJobs = {
    CxlJob{workload::JobSpec::Pattern::randread, 4096},
    CxlJob{workload::JobSpec::Pattern::randwrite, 4096},
    CxlJob{workload::JobSpec::Pattern::randread, 128 * 1024},
    CxlJob{workload::JobSpec::Pattern::randwrite, 128 * 1024}};

GoldenDoc run_cxl_scenario() {
  GoldenDoc doc;
  TestbedConfig cfg = small_testbed(2);
  cfg.substrate = fabric::SubstrateKind::cxl;
  Testbed tb(cfg);
  auto stack = bring_up(tb, 0, 1);
  EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
  if (!stack) return doc;

  std::array<sim::Duration, kCxlJobs.size()> elapsed{};
  std::array<sim::Duration, kCxlJobs.size()> latency_sum{};
  for (std::size_t j = 0; j < kCxlJobs.size(); ++j) {
    workload::JobSpec spec;
    spec.pattern = kCxlJobs[j].pattern;
    spec.block_bytes = kCxlJobs[j].block_bytes;
    spec.queue_depth = 1;
    spec.ops = 32;
    spec.seed = 2024 + j;
    auto res = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
    EXPECT_TRUE(res.has_value()) << res.status().to_string();
    if (!res) continue;
    EXPECT_EQ(res->errors, 0u);
    EXPECT_EQ(res->ops_completed, spec.ops);
    elapsed[j] = res->elapsed;
    for (sim::Duration ns : res->total_latency.samples()) latency_sum[j] += ns;
  }
  add_fabric(doc, "", tb);
  doc.add_list("elapsed", elapsed).add_list("latency_sum", latency_sum);
  return doc;
}

TEST(FabricPin, CxlPathMatchesParent) {
  expect_golden("pin_fabric_cxl", run_cxl_scenario().str());
}

}  // namespace
}  // namespace nvmeshare
