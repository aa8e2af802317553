// End-to-end data integrity (docs/MODEL.md §7): checksum vectors, DIF tuple
// generation/verification, BlockStore protection-information storage, and
// controller-level PRACT/PRCHK + vendor-scrub semantics.
#include <gtest/gtest.h>

#include <cstring>

#include "driver/bringup.hpp"
#include "fault/fault.hpp"
#include "integrity/integrity.hpp"
#include "nvme/block_store.hpp"
#include "nvme/queue.hpp"
#include "nvme/spec.hpp"
#include "nvmeof/capsule.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using testutil::Testbed;
using testutil::TestbedConfig;
using testutil::small_testbed;

ConstByteSpan as_bytes(const char* s) {
  return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

// --- checksum vectors -------------------------------------------------------------

TEST(Checksums, Crc16T10DifCheckValue) {
  // The catalogue check value for CRC-16/T10-DIF over "123456789".
  EXPECT_EQ(integrity::crc16_t10dif(as_bytes("123456789")), 0xD0DB);
  EXPECT_EQ(integrity::crc16_t10dif({}), 0x0000);
}

TEST(Checksums, Crc32cCheckValue) {
  // The catalogue check value for CRC-32C (Castagnoli) over "123456789".
  EXPECT_EQ(integrity::crc32c(as_bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(integrity::crc32c({}), 0x00000000u);
}

TEST(Checksums, SensitiveToEveryByte) {
  Bytes data = make_pattern(4096, 99);
  const std::uint16_t guard = integrity::crc16_t10dif(data);
  const std::uint32_t digest = integrity::crc32c(data);
  for (std::size_t i : {std::size_t{0}, std::size_t{2048}, std::size_t{4095}}) {
    Bytes mutated = data;
    mutated[i] ^= std::byte{0x01};
    EXPECT_NE(integrity::crc16_t10dif(mutated), guard) << "byte " << i;
    EXPECT_NE(integrity::crc32c(mutated), digest) << "byte " << i;
  }
}

TEST(Checksums, Crc32cChains) {
  const Bytes data = make_pattern(5000, 42);
  const ConstByteSpan all(data);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{4095}, data.size()}) {
    EXPECT_EQ(integrity::crc32c(all.subspan(cut), integrity::crc32c(all.first(cut))),
              integrity::crc32c(all))
        << "cut " << cut;
  }
}

TEST(Checksums, MemoryDigestIsFlatCrcOverPageRuns) {
  // Four pages: the first and third written, the second and fourth never.
  mem::PhysMem dram(4 * mem::kPageSize);
  const Bytes written = make_pattern(mem::kPageSize, 5);
  ASSERT_TRUE(dram.write(0, written).is_ok());
  ASSERT_TRUE(dram.write(2 * mem::kPageSize, written).is_ok());
  // An unaligned head in page 0 through an unaligned tail in page 3.
  const std::uint64_t addr = 100;
  const std::uint64_t len = 3 * mem::kPageSize + 50 - addr;
  Bytes flat(len);
  ASSERT_TRUE(dram.read(addr, flat).is_ok());
  auto digest = nvmeof::memory_digest(dram, addr, len);
  ASSERT_TRUE(digest.has_value()) << digest.status().to_string();
  EXPECT_EQ(*digest, integrity::crc32c(flat));
  EXPECT_EQ(dram.resident_pages(), 2u);  // digesting materialized nothing

  auto past_end = nvmeof::memory_digest(dram, 4 * mem::kPageSize - 10, 11);
  EXPECT_EQ(past_end.error_code(), Errc::out_of_range);
}

// --- DIF tuples -------------------------------------------------------------------

TEST(ProtectionInfo, GenerateVerifyRoundTrip) {
  Bytes block = make_pattern(512, 7);
  const auto pi = integrity::generate_pi(block, 12345);
  EXPECT_EQ(pi.app_tag, integrity::kDefaultAppTag);
  EXPECT_EQ(pi.ref_tag, 12345u);
  EXPECT_EQ(integrity::verify_pi(pi, block, 12345), integrity::PiCheck::ok);
}

TEST(ProtectionInfo, Type1RefTagIsLowLbaBits) {
  Bytes block(512);
  const auto pi = integrity::generate_pi(block, 0x1'2345'6789ULL);
  EXPECT_EQ(pi.ref_tag, 0x2345'6789u);  // truncated to 32 bits, like Type 1
}

TEST(ProtectionInfo, DetectsEachFieldMismatch) {
  Bytes block = make_pattern(512, 8);
  const auto pi = integrity::generate_pi(block, 500);

  Bytes corrupted = block;
  corrupted[100] ^= std::byte{0x40};
  EXPECT_EQ(integrity::verify_pi(pi, corrupted, 500), integrity::PiCheck::guard_mismatch);

  // Same data read back at the wrong LBA: guard matches, ref tag does not.
  EXPECT_EQ(integrity::verify_pi(pi, block, 501), integrity::PiCheck::ref_tag_mismatch);

  auto wrong_app = pi;
  wrong_app.app_tag = 0x1111;
  EXPECT_EQ(integrity::verify_pi(wrong_app, block, 500),
            integrity::PiCheck::app_tag_mismatch);
}

TEST(ProtectionInfo, ChecksRunInSpecPrecedenceOrder) {
  // Everything wrong at once: guard wins, then app tag, then ref tag.
  Bytes block = make_pattern(512, 9);
  auto pi = integrity::generate_pi(block, 7);
  pi.guard ^= 0xFFFF;
  pi.app_tag ^= 0xFFFF;
  EXPECT_EQ(integrity::verify_pi(pi, block, 8), integrity::PiCheck::guard_mismatch);
  pi.guard = integrity::generate_pi(block, 7).guard;
  EXPECT_EQ(integrity::verify_pi(pi, block, 8), integrity::PiCheck::app_tag_mismatch);
}

TEST(ProtectionInfo, MaskDisablesIndividualChecks) {
  Bytes block = make_pattern(512, 10);
  auto pi = integrity::generate_pi(block, 40);
  Bytes corrupted = block;
  corrupted[0] ^= std::byte{0x01};

  // PRCHK with the guard bit clear must not see the guard mismatch.
  EXPECT_EQ(integrity::verify_pi(pi, corrupted, 40, {.guard = false}),
            integrity::PiCheck::ok);
  EXPECT_EQ(integrity::verify_pi(pi, block, 41, {.ref_tag = false}),
            integrity::PiCheck::ok);
  pi.app_tag = 0x2222;
  EXPECT_EQ(integrity::verify_pi(pi, block, 40, {.app_tag = false}),
            integrity::PiCheck::ok);
}

// --- fault vocabulary stays in sync (X-macro exhaustiveness) ----------------------

TEST(FaultKinds, EveryKindHasANameAndParses) {
  for (std::size_t i = 0; i < fault::kFaultKindCount; ++i) {
    const auto kind = static_cast<fault::FaultKind>(i);
    const char* name = fault::fault_kind_name(kind);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "kind " << i << " missing from the name table";
    // The DSL must accept every kind name the enum knows about.
    auto plan = fault::parse_plan(name);
    ASSERT_TRUE(plan.has_value()) << name << ": " << plan.status().to_string();
    ASSERT_EQ(plan->faults.size(), 1u);
    EXPECT_EQ(plan->faults[0].kind, kind) << name;
  }
}

TEST(FaultKinds, CorruptionKindsParseWithFilters) {
  auto plan = fault::parse_plan(
      "seed=9;flip_dma_bits:src=0,dst=1,nth=4,count=2;"
      "torn_dma_write:dst=1,class=dram,nth=1;stale_read:src=0,prob=0.25,count=0");
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  ASSERT_EQ(plan->faults.size(), 3u);
  EXPECT_EQ(plan->faults[0].kind, fault::FaultKind::flip_dma_bits);
  EXPECT_EQ(plan->faults[0].count, 2u);
  EXPECT_EQ(plan->faults[1].kind, fault::FaultKind::torn_dma_write);
  EXPECT_EQ(plan->faults[1].write_class, fault::WriteClass::dram);
  EXPECT_EQ(plan->faults[2].kind, fault::FaultKind::stale_read);
  EXPECT_DOUBLE_EQ(plan->faults[2].probability, 0.25);
}

// --- BlockStore protection-information storage ------------------------------------

TEST(BlockStorePi, TuplesOnlyExistWhenFormatted) {
  nvme::BlockStore store(1000, 512);
  EXPECT_FALSE(store.pi_enabled());
  store.write_pi(5, {1, 2, 3});  // no-op while unformatted
  EXPECT_FALSE(store.read_pi(5).has_value());

  store.format_with_pi(true);
  EXPECT_TRUE(store.pi_enabled());
  EXPECT_FALSE(store.read_pi(5).has_value());  // format clears, nothing stored yet
  store.write_pi(5, {1, 2, 3});
  ASSERT_TRUE(store.read_pi(5).has_value());
  EXPECT_EQ(*store.read_pi(5), (integrity::ProtectionInfo{1, 2, 3}));

  store.format_with_pi(false);
  EXPECT_FALSE(store.read_pi(5).has_value());
}

TEST(BlockStorePi, ScrubCountsOnlyGenuineMismatches) {
  nvme::BlockStore store(1000, 512);
  store.format_with_pi(true);
  Bytes data = make_pattern(4 * 512, 11);
  ASSERT_TRUE(store.write(100, 4, mem::Payload::copy_of(data)).is_ok());
  for (std::uint64_t b = 0; b < 4; ++b) {
    store.write_pi(100 + b, integrity::generate_pi(
                                ConstByteSpan(data).subspan(b * 512, 512), 100 + b));
  }
  auto clean = store.verify_stored_pi(100, 4);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(*clean, 0u);
  // Deallocated blocks in the range are skipped, not counted as errors.
  auto wide = store.verify_stored_pi(90, 24);
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(*wide, 0u);

  auto bad = *store.read_pi(102);
  bad.guard ^= 0x1;
  store.write_pi(102, bad);
  auto dirty = store.verify_stored_pi(100, 4);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_EQ(*dirty, 1u);
}

TEST(BlockStorePi, PlainOverwriteInvalidatesStoredTuples) {
  // A non-PRACT overwrite changes the data under a stored tuple; the store
  // must drop the tuple (deallocated semantics) instead of leaving a stale
  // one that a later scrub or PRCHK read would flag as corruption.
  nvme::BlockStore store(1000, 512);
  store.format_with_pi(true);
  Bytes data = make_pattern(512, 12);
  ASSERT_TRUE(store.write(50, 1, mem::Payload::copy_of(data)).is_ok());
  store.write_pi(50, integrity::generate_pi(data, 50));
  ASSERT_TRUE(store.write(50, 1, mem::Payload::copy_of(make_pattern(512, 13))).is_ok());
  EXPECT_FALSE(store.read_pi(50).has_value());
  auto scrub = store.verify_stored_pi(50, 1);
  ASSERT_TRUE(scrub.has_value());
  EXPECT_EQ(*scrub, 0u);
}

TEST(BlockStorePi, WriteZeroesDropsTuples) {
  nvme::BlockStore store(1000, 512);
  store.format_with_pi(true);
  Bytes data = make_pattern(512, 14);
  ASSERT_TRUE(store.write(60, 1, mem::Payload::copy_of(data)).is_ok());
  store.write_pi(60, integrity::generate_pi(data, 60));
  ASSERT_TRUE(store.write_zeroes(60, 1).is_ok());
  EXPECT_FALSE(store.read_pi(60).has_value());
}

TEST(BlockStorePi, ScrubRangeChecked) {
  nvme::BlockStore store(100, 512);
  store.format_with_pi(true);
  EXPECT_FALSE(store.verify_stored_pi(100, 1).has_value());
  EXPECT_FALSE(store.verify_stored_pi(~0ull, 8).has_value());  // no u64 wrap
}

// --- controller PRACT / PRCHK / vendor scrub --------------------------------------

/// BareController plus one I/O queue pair against a PI-formatted namespace.
struct PiControllerFixture : ::testing::Test {
  PiControllerFixture() : tb([] {
    TestbedConfig cfg = small_testbed(1);
    cfg.nvme.pi_enabled = true;  // "format with metadata"
    return cfg;
  }()) {
    auto c = tb.wait(driver::BareController::init(tb.cluster(), tb.nvme_endpoint(), {}));
    EXPECT_TRUE(c.has_value()) << c.status().to_string();
    ctrl = std::move(*c);

    auto sq_mem = tb.cluster().alloc_dram(0, 64 * 64, 4096);
    auto cq_mem = tb.cluster().alloc_dram(0, 64 * 16, 4096);
    EXPECT_TRUE(sq_mem && cq_mem);
    auto qid = tb.wait(ctrl->create_queue_pair(*sq_mem, 64, *cq_mem, 64, std::nullopt));
    EXPECT_TRUE(qid.has_value()) << qid.status().to_string();

    nvme::QueuePair::Config qc;
    qc.qid = *qid;
    qc.sq_size = 64;
    qc.cq_size = 64;
    qc.sq_write_addr = *sq_mem;
    qc.cq_poll_addr = *cq_mem;
    qc.sq_doorbell_addr = ctrl->sq_doorbell(*qid);
    qc.cq_doorbell_addr = ctrl->cq_doorbell(*qid);
    qc.cpu = tb.fabric().cpu(0);
    qp = std::make_unique<nvme::QueuePair>(tb.fabric(), qc);

    auto buf = tb.cluster().alloc_dram(0, 4096, 4096);
    EXPECT_TRUE(buf.has_value());
    buf_ = *buf;
  }

  /// Push one I/O command, ring, and poll its completion.
  nvme::CompletionEntry io(nvme::SubmissionEntry e) {
    auto cid = qp->push(e);
    EXPECT_TRUE(cid.has_value());
    EXPECT_TRUE(qp->ring_sq_doorbell().is_ok());
    const sim::Time deadline = tb.engine().now() + 1_s;
    std::optional<nvme::CompletionEntry> cqe;
    while (!cqe && tb.engine().now() < deadline) {
      tb.engine().run_until(tb.engine().now() + 1_us);
      cqe = qp->poll();
    }
    EXPECT_TRUE(cqe.has_value()) << "command never completed";
    EXPECT_TRUE(qp->ring_cq_doorbell().is_ok());
    return cqe.value_or(nvme::CompletionEntry{});
  }

  Result<nvme::CompletionEntry> admin(const nvme::SubmissionEntry& e) {
    return tb.wait(ctrl->submit_admin(e));
  }

  /// Write one pattern block at `lba` (PRACT: the controller generates and
  /// stores the tuple) and return the data written.
  Bytes pract_write(std::uint64_t lba, std::uint64_t seed) {
    Bytes data = make_pattern(512, seed);
    EXPECT_TRUE(tb.fabric().host_dram(0).write(buf_, data).is_ok());
    auto cqe = io(nvme::make_io_rw(true, 1, 1, lba, 1, buf_, 0, nvme::kPrinfoPract));
    EXPECT_TRUE(cqe.ok()) << nvme::status_name(cqe.status());
    return data;
  }

  static constexpr std::uint32_t kPrchkAll =
      nvme::kPrinfoPrchkGuard | nvme::kPrinfoPrchkApp | nvme::kPrinfoPrchkRef;

  Testbed tb;
  std::unique_ptr<driver::BareController> ctrl;
  std::unique_ptr<nvme::QueuePair> qp;
  std::uint64_t buf_ = 0;  // one-block DMA buffer (PRP1 only)
};

TEST_F(PiControllerFixture, PractWriteThenPrchkReadIsClean) {
  Bytes data = pract_write(42, 0xabc);
  ASSERT_TRUE(tb.controller().store().read_pi(42).has_value());
  EXPECT_EQ(*tb.controller().store().read_pi(42), integrity::generate_pi(data, 42));

  auto rd = io(nvme::make_io_rw(false, 2, 1, 42, 1, buf_, 0, kPrchkAll));
  EXPECT_TRUE(rd.ok()) << nvme::status_name(rd.status());
  Bytes out(512);
  ASSERT_TRUE(tb.fabric().host_dram(0).read(buf_, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST_F(PiControllerFixture, CorruptTupleFailsPrchkReadWithSpecStatus) {
  Bytes data = pract_write(43, 0xdef);
  nvme::BlockStore& store = tb.controller().store();

  auto bad = integrity::generate_pi(data, 43);
  bad.guard ^= 0x0001;
  store.write_pi(43, bad);
  EXPECT_EQ(io(nvme::make_io_rw(false, 2, 1, 43, 1, buf_, 0, kPrchkAll)).status(),
            nvme::kScGuardCheckError);

  bad = integrity::generate_pi(data, 43);
  bad.app_tag = 0xBEEF;
  store.write_pi(43, bad);
  EXPECT_EQ(io(nvme::make_io_rw(false, 3, 1, 43, 1, buf_, 0, kPrchkAll)).status(),
            nvme::kScAppTagCheckError);

  bad = integrity::generate_pi(data, 43);
  bad.ref_tag = 44;
  store.write_pi(43, bad);
  EXPECT_EQ(io(nvme::make_io_rw(false, 4, 1, 43, 1, buf_, 0, kPrchkAll)).status(),
            nvme::kScRefTagCheckError);

  // With no PRCHK bits set the same read sails through.
  EXPECT_TRUE(io(nvme::make_io_rw(false, 5, 1, 43, 1, buf_, 0)).ok());
}

TEST_F(PiControllerFixture, DeallocatedBlocksSkipChecks) {
  // Never-written blocks have no tuple; PRCHK reads must not fail on them.
  auto rd = io(nvme::make_io_rw(false, 2, 1, 777, 1, buf_, 0, kPrchkAll));
  EXPECT_TRUE(rd.ok()) << nvme::status_name(rd.status());
}

TEST_F(PiControllerFixture, VendorScrubReportsMismatchCount) {
  Bytes data = pract_write(10, 0x111);
  pract_write(11, 0x222);
  pract_write(12, 0x333);

  auto clean = admin(nvme::make_vendor_scrub(1, 1, 0, 256));
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(clean->ok()) << nvme::status_name(clean->status());
  EXPECT_EQ(clean->dw0, 0u);

  // Corrupt two of the three stored tuples behind the controller's back.
  nvme::BlockStore& store = tb.controller().store();
  for (std::uint64_t lba : {10ull, 12ull}) {
    auto bad = *store.read_pi(lba);
    bad.guard ^= 0x8000;
    store.write_pi(lba, bad);
  }
  auto dirty = admin(nvme::make_vendor_scrub(2, 1, 0, 256));
  ASSERT_TRUE(dirty.has_value());
  EXPECT_EQ(dirty->status(), nvme::kScGuardCheckError);
  EXPECT_EQ(dirty->dw0, 2u);

  // Rewriting the blocks with PRACT heals them.
  pract_write(10, 0x111);
  pract_write(12, 0x333);
  auto healed = admin(nvme::make_vendor_scrub(3, 1, 0, 256));
  ASSERT_TRUE(healed.has_value());
  EXPECT_TRUE(healed->ok());
  EXPECT_EQ(healed->dw0, 0u);
  (void)data;
}

TEST_F(PiControllerFixture, ScrubRejectsOutOfRangeAndOverflow) {
  const std::uint64_t cap = tb.controller().store().capacity_blocks();
  auto oob = admin(nvme::make_vendor_scrub(1, 1, cap, 1));
  ASSERT_TRUE(oob.has_value());
  EXPECT_EQ(oob->status(), nvme::kScLbaOutOfRange);
  auto wrap = admin(nvme::make_vendor_scrub(2, 1, ~0ull - 3, 8));
  ASSERT_TRUE(wrap.has_value());
  EXPECT_EQ(wrap->status(), nvme::kScLbaOutOfRange);
}

}  // namespace
}  // namespace nvmeshare
