// Tests for the extended feature set: Write Zeroes through every driver,
// the SMART/Health log page, DMA failure injection, and multi-device
// clusters.
#include <gtest/gtest.h>

#include "block/sharded_device.hpp"
#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

// --- Write Zeroes through every stack ---------------------------------------------

void check_write_zeroes(Testbed& tb, block::BlockDevice& dev, sisci::NodeId node) {
  const std::uint64_t lba = 5000;
  const std::size_t bytes = 8192;
  const auto nblocks = static_cast<std::uint32_t>(bytes / dev.block_size());

  // Write a pattern, zero the middle half, read the whole range back.
  const std::uint64_t buf = alloc_pattern_buffer(tb, node, bytes, 0x2e2e);
  auto wr = do_io(tb, dev, {block::Op::write, lba, nblocks, buf});
  ASSERT_TRUE(wr.has_value() && wr->status.is_ok());

  auto wz = do_io(tb, dev, {block::Op::write_zeroes, lba + nblocks / 4, nblocks / 2, 0});
  ASSERT_TRUE(wz.has_value());
  ASSERT_TRUE(wz->status.is_ok()) << wz->status.to_string();

  const std::uint64_t rbuf = alloc_pattern_buffer(tb, node, bytes, 1);
  auto rd = do_io(tb, dev, {block::Op::read, lba, nblocks, rbuf});
  ASSERT_TRUE(rd.has_value() && rd->status.is_ok());

  Bytes out(bytes);
  ASSERT_TRUE(tb.fabric().host_dram(node).read(rbuf, out).is_ok());
  Bytes expect = make_pattern(bytes, 0x2e2e);
  const std::size_t zero_from = (nblocks / 4) * dev.block_size();
  const std::size_t zero_len = (nblocks / 2) * dev.block_size();
  std::fill(expect.begin() + static_cast<long>(zero_from),
            expect.begin() + static_cast<long>(zero_from + zero_len), std::byte{0});
  EXPECT_EQ(out, expect);
}

TEST(WriteZeroes, DistributedClientRemote) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value());
  check_write_zeroes(tb, *stack->client, 1);
}

TEST(WriteZeroes, LocalDriver) {
  Testbed tb(small_testbed(1));
  auto drv = tb.wait(
      driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), &tb.irq(0), {}));
  ASSERT_TRUE(drv.has_value());
  check_write_zeroes(tb, **drv, 0);
}

TEST(WriteZeroes, NvmeofInitiator) {
  Testbed tb(small_testbed(2));
  auto target = tb.wait(
      nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(), tb.network(), {}));
  ASSERT_TRUE(target.has_value());
  auto initiator =
      tb.wait(nvmeof::Initiator::connect(tb.cluster(), tb.network(), **target, 1, {}));
  ASSERT_TRUE(initiator.has_value());
  check_write_zeroes(tb, **initiator, 1);
}

// --- Write Zeroes longer than one command ---------------------------------------------

// One NVMe command carries at most 0xFFFF blocks. A 65552-block write_zeroes
// used to be narrowed to its low 16 bits, a valid 16-block command that
// zeroed the first 16 blocks and reported success; the single-command
// backends must refuse it before touching the device.
constexpr std::uint32_t kOversizeZeroes = 0x10000 + 16;

void check_oversize_write_zeroes_rejected(Testbed& tb, block::BlockDevice& dev,
                                          sisci::NodeId node) {
  const std::uint64_t lba = 3000;
  const std::size_t bytes = 8192;
  const auto nblocks = static_cast<std::uint32_t>(bytes / dev.block_size());
  const std::uint64_t buf = alloc_pattern_buffer(tb, node, bytes, 0x7a7a);
  auto wr = do_io(tb, dev, {block::Op::write, lba, nblocks, buf});
  ASSERT_TRUE(wr.has_value() && wr->status.is_ok());

  auto wz = do_io(tb, dev, {block::Op::write_zeroes, lba, kOversizeZeroes, 0});
  ASSERT_TRUE(wz.has_value());
  EXPECT_EQ(wz->status.code(), Errc::invalid_argument) << wz->status.to_string();

  const std::uint64_t rbuf = alloc_pattern_buffer(tb, node, bytes, 1);
  auto rd = do_io(tb, dev, {block::Op::read, lba, nblocks, rbuf});
  ASSERT_TRUE(rd.has_value() && rd->status.is_ok());
  EXPECT_TRUE(buffer_matches(tb, node, rbuf, bytes, 0x7a7a));
}

TEST(WriteZeroes, OversizeRejectedByClient) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value());
  check_oversize_write_zeroes_rejected(tb, *stack->client, 1);
}

TEST(WriteZeroes, OversizeRejectedByLocalDriver) {
  Testbed tb(small_testbed(1));
  auto drv = tb.wait(
      driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), &tb.irq(0), {}));
  ASSERT_TRUE(drv.has_value());
  check_oversize_write_zeroes_rejected(tb, **drv, 0);
}

// --- LBA ranges that wrap around ------------------------------------------------------

// validate_request used to form lba + nblocks before comparing it with the
// capacity, so a request ending past UINT64_MAX wrapped and passed. The
// single-command backends must refuse it before a slot is taken, so no
// command reaches the controller.
void check_wrapping_lba_rejected(Testbed& tb, block::BlockDevice& dev, sisci::NodeId node) {
  const std::uint32_t nblocks = 4;
  const std::uint64_t buf = alloc_pattern_buffer(tb, node, nblocks * dev.block_size(), 0x3c3c);
  const std::uint64_t fetched = tb.controller().stats().commands_fetched.value();
  auto wr = do_io(tb, dev, {block::Op::write, UINT64_MAX - 1, nblocks, buf});
  ASSERT_TRUE(wr.has_value());
  EXPECT_EQ(wr->status.code(), Errc::out_of_range) << wr->status.to_string();
  EXPECT_EQ(tb.controller().stats().commands_fetched.value(), fetched);
}

TEST(LbaWrap, RejectedByClient) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value());
  check_wrapping_lba_rejected(tb, *stack->client, 1);
}

TEST(LbaWrap, RejectedByLocalDriver) {
  Testbed tb(small_testbed(1));
  auto drv = tb.wait(
      driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), &tb.irq(0), {}));
  ASSERT_TRUE(drv.has_value());
  check_wrapping_lba_rejected(tb, **drv, 0);
}

TEST(WriteZeroes, OversizeSplitBySharding) {
  // Striping cuts the same request into per-stripe commands, so the
  // sharded device still accepts it and zeroes the whole range.
  TestbedConfig cfg = small_testbed(2);
  cfg.nvme_devices = 2;
  Testbed tb(cfg);
  auto d0 = tb.wait(
      driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(0), &tb.irq(0), {}));
  ASSERT_TRUE(d0.has_value()) << d0.status().to_string();
  auto d1 = tb.wait(
      driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(1), &tb.irq(1), {}));
  ASSERT_TRUE(d1.has_value()) << d1.status().to_string();
  block::ShardedDevice dev(tb.engine(), {d0->get(), d1->get()}, {});

  // 16 blocks straddling the end of the zeroed range, inside stripe 512,
  // which lives on shard 0 (the driver on host 0, where the buffers are).
  const std::uint64_t lba = kOversizeZeroes - 8;
  const std::size_t bytes = 8192;
  const auto nblocks = static_cast<std::uint32_t>(bytes / dev.block_size());
  const std::uint64_t buf = alloc_pattern_buffer(tb, 0, bytes, 0x5a5a);
  auto wr = do_io(tb, dev, {block::Op::write, lba, nblocks, buf});
  ASSERT_TRUE(wr.has_value() && wr->status.is_ok());

  auto wz = do_io(tb, dev, {block::Op::write_zeroes, 0, kOversizeZeroes, 0});
  ASSERT_TRUE(wz.has_value());
  ASSERT_TRUE(wz->status.is_ok()) << wz->status.to_string();

  const std::uint64_t rbuf = alloc_pattern_buffer(tb, 0, bytes, 1);
  auto rd = do_io(tb, dev, {block::Op::read, lba, nblocks, rbuf});
  ASSERT_TRUE(rd.has_value() && rd->status.is_ok());
  Bytes out(bytes);
  ASSERT_TRUE(tb.fabric().host_dram(0).read(rbuf, out).is_ok());
  Bytes expect = make_pattern(bytes, 0x5a5a);
  std::fill(expect.begin(), expect.begin() + static_cast<long>(bytes / 2), std::byte{0});
  EXPECT_EQ(out, expect);
}

// --- Dataset Management (discard / TRIM) ---------------------------------------------

void check_discard(Testbed& tb, block::BlockDevice& dev, sisci::NodeId node) {
  const std::uint64_t lba = 7000;
  const std::size_t bytes = 16 * KiB;
  const auto nblocks = static_cast<std::uint32_t>(bytes / dev.block_size());

  const std::uint64_t buf = alloc_pattern_buffer(tb, node, bytes, 0x3d3d);
  auto wr = do_io(tb, dev, {block::Op::write, lba, nblocks, buf});
  ASSERT_TRUE(wr.has_value() && wr->status.is_ok());

  // Discard the second half.
  auto dsm = do_io(tb, dev, {block::Op::discard, lba + nblocks / 2, nblocks / 2, 0});
  ASSERT_TRUE(dsm.has_value());
  ASSERT_TRUE(dsm->status.is_ok()) << dsm->status.to_string();

  const std::uint64_t rbuf = alloc_pattern_buffer(tb, node, bytes, 1);
  auto rd = do_io(tb, dev, {block::Op::read, lba, nblocks, rbuf});
  ASSERT_TRUE(rd.has_value() && rd->status.is_ok());
  Bytes out(bytes);
  ASSERT_TRUE(tb.fabric().host_dram(node).read(rbuf, out).is_ok());
  Bytes expect = make_pattern(bytes, 0x3d3d);
  std::fill(expect.begin() + static_cast<long>(bytes / 2), expect.end(), std::byte{0});
  EXPECT_EQ(out, expect);
}

TEST(Discard, DistributedClientRemote) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value());
  check_discard(tb, *stack->client, 1);
}

TEST(Discard, DistributedClientIommuPath) {
  Testbed tb(small_testbed(2));
  driver::Client::Config cc;
  cc.data_path = driver::Client::DataPath::iommu;
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value());
  check_discard(tb, *stack->client, 1);
}

TEST(Discard, LocalDriver) {
  Testbed tb(small_testbed(1));
  auto drv = tb.wait(
      driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), &tb.irq(0), {}));
  ASSERT_TRUE(drv.has_value());
  check_discard(tb, **drv, 0);
}

TEST(Discard, NvmeofInitiator) {
  Testbed tb(small_testbed(2));
  auto target = tb.wait(
      nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(), tb.network(), {}));
  ASSERT_TRUE(target.has_value());
  auto initiator =
      tb.wait(nvmeof::Initiator::connect(tb.cluster(), tb.network(), **target, 1, {}));
  ASSERT_TRUE(initiator.has_value());
  check_discard(tb, **initiator, 1);
}

TEST(Discard, DeallocateReleasesBackingStore) {
  // TRIM of a whole chunk must actually drop the backing memory.
  Testbed tb(small_testbed(1));
  auto drv = tb.wait(
      driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), &tb.irq(0), {}));
  ASSERT_TRUE(drv.has_value());
  const std::uint64_t buf = alloc_pattern_buffer(tb, 0, 64 * KiB, 0x44);
  auto wr = do_io(tb, **drv, {block::Op::write, 0, 128, buf});
  ASSERT_TRUE(wr.has_value() && wr->status.is_ok());
  const std::size_t resident = tb.controller().store().resident_chunks();
  EXPECT_GT(resident, 0u);
  auto dsm = do_io(tb, **drv, {block::Op::discard, 0, 128, 0});
  ASSERT_TRUE(dsm.has_value() && dsm->status.is_ok());
  EXPECT_LT(tb.controller().store().resident_chunks(), resident);
}

// --- SMART / Health log page -------------------------------------------------------

TEST(SmartLog, CountsLiveTraffic) {
  Testbed tb(small_testbed(1));
  auto local = tb.wait(
      driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), &tb.irq(0), {}));
  ASSERT_TRUE(local.has_value());
  write_read_verify(tb, **local, 0, 10, 4096, 0x77);
  write_read_verify(tb, **local, 0, 20, 4096, 0x78);

  // Fetch the SMART log through the admin path of the owning driver.
  auto log_buf = tb.cluster().alloc_dram(0, 4096, 4096);
  ASSERT_TRUE(log_buf.has_value());
  auto cqe = tb.wait((*local)->controller().submit_admin(
      nvme::make_get_log_page(0, nvme::LogPageId::smart_health, 512, *log_buf)));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_TRUE(cqe->ok());

  Bytes payload(512);
  ASSERT_TRUE(tb.fabric().host_dram(0).read(*log_buf, payload).is_ok());
  const auto smart = nvme::parse_smart_log(payload);
  EXPECT_EQ(smart.critical_warning, 0);
  EXPECT_EQ(smart.composite_temperature_k, 310);
  EXPECT_EQ(smart.available_spare_pct, 100);
  EXPECT_EQ(smart.host_read_commands, tb.controller().stats().io_reads);
  EXPECT_EQ(smart.host_write_commands, tb.controller().stats().io_writes);
  EXPECT_GE(smart.host_read_commands, 2u);
  EXPECT_GE(smart.host_write_commands, 2u);
}

// --- DMA failure injection -----------------------------------------------------------

TEST(FaultInjection, UnmappedSqMemoryIsControllerFatal) {
  Testbed tb(small_testbed(1));
  auto ctrl = tb.wait(driver::BareController::init(tb.cluster(), tb.nvme_endpoint(), {}));
  ASSERT_TRUE(ctrl.has_value());

  // An SQ whose base resolves nowhere: the gap between DRAM and MMIO.
  const std::uint64_t bogus = tb.config().dram_per_host + 0x100000;
  auto cq_mem = tb.cluster().alloc_dram(0, 64 * 16, 4096);
  auto qid = tb.wait((*ctrl)->create_queue_pair(bogus, 64, *cq_mem, 64, std::nullopt));
  ASSERT_TRUE(qid.has_value()) << qid.status().to_string();  // creation just records it

  // First doorbell makes the controller fetch from the void -> fatal.
  Bytes db(4);
  store_pod(db, std::uint32_t{1});
  (void)tb.fabric().post_write(tb.fabric().cpu(0), (*ctrl)->sq_doorbell(*qid), std::move(db));
  tb.engine().run_for(1_ms);
  EXPECT_TRUE(tb.controller().is_fatal());
}

TEST(FaultInjection, UnreachableDataBufferCompletesWithTransferError) {
  Testbed tb(small_testbed(1));
  auto ctrl = tb.wait(driver::BareController::init(tb.cluster(), tb.nvme_endpoint(), {}));
  ASSERT_TRUE(ctrl.has_value());
  auto sq_mem = tb.cluster().alloc_dram(0, 64 * 64, 4096);
  auto cq_mem = tb.cluster().alloc_dram(0, 64 * 16, 4096);
  ASSERT_TRUE(tb.fabric()
                  .host_dram(0)
                  .write(*cq_mem, Bytes(64 * 16, std::byte{0}))
                  .is_ok());
  auto qid = tb.wait((*ctrl)->create_queue_pair(*sq_mem, 64, *cq_mem, 64, std::nullopt));
  ASSERT_TRUE(qid.has_value());

  nvme::QueuePair::Config qc;
  qc.qid = *qid;
  qc.sq_size = 64;
  qc.cq_size = 64;
  qc.sq_write_addr = *sq_mem;
  qc.cq_poll_addr = *cq_mem;
  qc.sq_doorbell_addr = (*ctrl)->sq_doorbell(*qid);
  qc.cq_doorbell_addr = (*ctrl)->cq_doorbell(*qid);
  qc.cpu = tb.fabric().cpu(0);
  nvme::QueuePair qp(tb.fabric(), qc);

  // Read whose PRP points into unmapped space: the data DMA fails, but the
  // command must still complete (with a transfer error), and the
  // controller must stay healthy.
  const std::uint64_t bogus = tb.config().dram_per_host + 0x200000;
  auto cid = qp.push(nvme::make_io_rw(false, 0, 1, 0, 8, bogus, 0));
  ASSERT_TRUE(cid.has_value());
  ASSERT_TRUE(qp.ring_sq_doorbell().is_ok());

  std::optional<nvme::CompletionEntry> cqe;
  const sim::Time deadline = tb.engine().now() + 1_s;
  while (!cqe && tb.engine().now() < deadline) {
    tb.engine().run_until(tb.engine().now() + 10_us);
    cqe = qp.poll();
  }
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status(), nvme::kScDataTransferError);
  EXPECT_FALSE(tb.controller().is_fatal());
  EXPECT_TRUE(tb.controller().is_ready());
  EXPECT_EQ(tb.controller().stats().errors_completed, 1u);
}

// --- multi-device clusters ------------------------------------------------------------

TEST(MultiDevice, TwoDevicesTwoManagersOneClientHost) {
  TestbedConfig cfg = small_testbed(3);
  cfg.nvme_devices = 2;  // nvme0 in host 0, nvme1 in host 1
  Testbed tb(cfg);
  ASSERT_EQ(tb.device_count(), 2u);
  EXPECT_EQ(tb.device_host(0), 0u);
  EXPECT_EQ(tb.device_host(1), 1u);
  EXPECT_TRUE(tb.service().find_device("nvme0").has_value());
  EXPECT_TRUE(tb.service().find_device("nvme1").has_value());

  // One manager per device, on the device's own host.
  driver::Manager::Config m1cfg;
  auto m0 = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(0), {}));
  ASSERT_TRUE(m0.has_value()) << m0.status().to_string();
  auto m1 = tb.wait(driver::Manager::start(tb.service(), 1, tb.device_id(1), m1cfg));
  ASSERT_TRUE(m1.has_value()) << m1.status().to_string();

  // Host 2 attaches to BOTH devices (distinct segment namespaces).
  driver::Client::Config c0cfg;
  c0cfg.segment_namespace = 0;
  auto c0 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(0), c0cfg));
  ASSERT_TRUE(c0.has_value()) << c0.status().to_string();
  driver::Client::Config c1cfg;
  c1cfg.segment_namespace = 1;
  auto c1 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(1), c1cfg));
  ASSERT_TRUE(c1.has_value()) << c1.status().to_string();

  // Distinct contents on each device at the same LBA.
  write_read_verify(tb, **c0, 2, 100, 4096, 0xAAAA);
  write_read_verify(tb, **c1, 2, 100, 4096, 0xBBBB);

  // The devices are truly independent: read device 0's LBA back and check
  // it was not clobbered by device 1's write.
  const std::uint64_t rbuf = alloc_pattern_buffer(tb, 2, 4096, 0);
  auto rd = do_io(tb, **c0, {block::Op::read, 100, 8, rbuf});
  ASSERT_TRUE(rd.has_value() && rd->status.is_ok());
  EXPECT_TRUE(buffer_matches(tb, 2, rbuf, 4096, 0xAAAA));

  // Concurrent verified jobs against both devices from the same host.
  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.ops = 150;
  spec.queue_depth = 4;
  spec.verify = true;
  auto j0 = workload::run_job(tb.cluster(), **c0, 2, spec);
  spec.seed = 2;
  auto j1 = workload::run_job(tb.cluster(), **c1, 2, spec);
  auto r0 = tb.wait(std::move(j0), 120_s);
  auto r1 = tb.wait(std::move(j1), 120_s);
  ASSERT_TRUE(r0.has_value() && r1.has_value());
  EXPECT_EQ(r0->errors + r0->verify_failures, 0u);
  EXPECT_EQ(r1->errors + r1->verify_failures, 0u);
}

TEST(MultiDevice, SeparateExclusiveOwnership) {
  TestbedConfig cfg = small_testbed(2);
  cfg.nvme_devices = 2;
  Testbed tb(cfg);
  // Exclusive on device 0 does not block device 1.
  auto ex0 = tb.service().acquire(tb.device_id(0), smartio::AcquireMode::exclusive);
  ASSERT_TRUE(ex0.has_value());
  EXPECT_TRUE(tb.service().acquire(tb.device_id(1), smartio::AcquireMode::exclusive)
                  .has_value());
  EXPECT_FALSE(tb.service().acquire(tb.device_id(0), smartio::AcquireMode::shared)
                   .has_value());
}

}  // namespace
}  // namespace nvmeshare
