// Unit tests for the NVMe controller model: spec structures, bring-up,
// admin command validation, queue mechanics (phase tags, wraparound),
// error reporting, and doorbell robustness.
#include <gtest/gtest.h>

#include "driver/bringup.hpp"
#include "nvme/block_store.hpp"
#include "nvme/queue.hpp"
#include "nvme/spec.hpp"
#include "test_util.hpp"

namespace nvmeshare::nvme {
namespace {

using testutil::Testbed;
using testutil::small_testbed;

TEST(Spec, EntrySizes) {
  EXPECT_EQ(sizeof(SubmissionEntry), 64u);
  EXPECT_EQ(sizeof(CompletionEntry), 16u);
}

TEST(Spec, PhaseBitManipulation) {
  CompletionEntry e;
  e.status_phase = static_cast<std::uint16_t>(kScLbaOutOfRange << 1);
  EXPECT_FALSE(e.phase());
  e.set_phase(true);
  EXPECT_TRUE(e.phase());
  EXPECT_EQ(e.status(), kScLbaOutOfRange);
  e.set_phase(false);
  EXPECT_EQ(e.status(), kScLbaOutOfRange);
}

TEST(Spec, StatusCodeComposition) {
  EXPECT_EQ(kScSuccess, 0);
  EXPECT_EQ(make_status(Sct::generic, 0x80), 0x80);
  EXPECT_EQ(make_status(Sct::command_specific, 0x01), 0x101);
  EXPECT_STREQ(status_name(kScInvalidQueueId), "invalid queue id");
}

TEST(Spec, IdentifyControllerRoundTrip) {
  ControllerInfo info;
  info.mdts_pages_log2 = 5;
  info.num_namespaces = 1;
  Bytes data = build_identify_controller(info);
  ASSERT_EQ(data.size(), 4096u);
  auto parsed = parse_identify_controller(data);
  EXPECT_EQ(parsed.vid, info.vid);
  EXPECT_EQ(parsed.mdts_pages_log2, 5);
  EXPECT_EQ(parsed.num_namespaces, 1u);
  EXPECT_NE(std::string(parsed.model).find("Optane"), std::string::npos);
}

TEST(Spec, IdentifyNamespaceRoundTrip) {
  NamespaceInfo info{123456, 512};
  Bytes data = build_identify_namespace(info);
  auto parsed = parse_identify_namespace(data);
  EXPECT_EQ(parsed.size_blocks, 123456u);
  EXPECT_EQ(parsed.block_size, 512u);
}

TEST(Spec, DoorbellOffsets) {
  EXPECT_EQ(sq_doorbell_offset(0), 0x1000u);
  EXPECT_EQ(cq_doorbell_offset(0), 0x1004u);
  EXPECT_EQ(sq_doorbell_offset(3), 0x1000u + 6 * 4);
  EXPECT_EQ(cq_doorbell_offset(3), 0x1000u + 7 * 4);
}

TEST(Spec, IoCommandBuilder) {
  auto e = make_io_rw(true, 7, 1, 0x1'0000'0001ULL, 8, 0x2000, 0x3000);
  EXPECT_EQ(e.opcode, static_cast<std::uint8_t>(IoOpcode::write));
  EXPECT_EQ(e.cid, 7);
  EXPECT_EQ(e.cdw10, 1u);           // low LBA
  EXPECT_EQ(e.cdw11, 1u);           // high LBA
  EXPECT_EQ(e.cdw12 & 0xFFFF, 7u);  // 0-based block count
}

TEST(Spec, PrpConstructionTable) {
  constexpr std::uint64_t kBase = 0x40000;  // page-aligned buffer start
  constexpr std::uint64_t kList = 0x9000;   // where the caller keeps the list
  struct Case {
    std::uint64_t offset;
    std::uint64_t bytes;
    std::uint64_t pages;  // pages the buffer touches
    bool uses_list;
  };
  const Case cases[] = {
      {0, 1 * kPageSize, 1, false},    {512, 1 * kPageSize - 512, 1, false},
      {0, 2 * kPageSize, 2, false},    {512, 1 * kPageSize, 2, false},
      {0, 3 * kPageSize, 3, true},     {512, 3 * kPageSize, 4, true},
      {0, 32 * kPageSize, 32, true},   {512, 32 * kPageSize - 512, 32, true},
      // Two pages' worth of data that reaches a third page only because
      // of its offset: the list, not the second page, goes in PRP2.
      {512, 2 * kPageSize, 3, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "offset " << c.offset << " bytes " << c.bytes);
    const std::uint64_t addr = kBase + c.offset;
    EXPECT_EQ(prp_pages(addr, c.bytes), c.pages);
    const PrpPair prp = make_prps(addr, c.bytes, kList);
    EXPECT_EQ(prp.prp1, addr);
    if (c.pages == 1) {
      EXPECT_EQ(prp.prp2, 0u);
    } else if (!c.uses_list) {
      EXPECT_EQ(prp.prp2, kBase + kPageSize);
    } else {
      EXPECT_EQ(prp.prp2, kList);
    }
    EXPECT_EQ(prp_list_bytes(addr, c.bytes), c.uses_list ? (c.pages - 1) * 8 : 0);

    // The list names every page after the first, in order, and writes
    // nothing past its last entry.
    Bytes list((c.pages - 1) * 8 + 8, std::byte{0xEE});
    fill_prp_list(addr, c.bytes, list);
    for (std::uint64_t j = 1; j < c.pages; ++j) {
      EXPECT_EQ(load_pod<std::uint64_t>(list, (j - 1) * 8), kBase + j * kPageSize) << j;
    }
    EXPECT_EQ(load_pod<std::uint64_t>(list, (c.pages - 1) * 8), 0xEEEEEEEEEEEEEEEEull);
  }
}

TEST(Spec, OneIoBuilderForEveryOpcode) {
  const auto rd = make_io(IoOpcode::read, 1, 0x1'0000'0002ULL, 16, 0x2000, 0x3000,
                          kPrinfoPrchkGuard);
  EXPECT_EQ(rd.opcode, static_cast<std::uint8_t>(IoOpcode::read));
  EXPECT_EQ(rd.nsid, 1u);
  EXPECT_EQ(rd.prp1, 0x2000u);
  EXPECT_EQ(rd.prp2, 0x3000u);
  EXPECT_EQ(rd.cdw10, 2u);
  EXPECT_EQ(rd.cdw11, 1u);
  EXPECT_EQ(rd.cdw12, 15u | kPrinfoPrchkGuard);

  const auto wr = make_io(IoOpcode::write, 1, 8, 1, 0x2000, 0, kPrinfoPract);
  EXPECT_EQ(wr.opcode, static_cast<std::uint8_t>(IoOpcode::write));
  EXPECT_EQ(wr.cdw12, kPrinfoPract);  // NLB 0 = one block

  const auto wz = make_io(IoOpcode::write_zeroes, 1, 8, 0xFFFF, 0x2000, 0x3000, kPrinfoPract);
  EXPECT_EQ(wz.opcode, static_cast<std::uint8_t>(IoOpcode::write_zeroes));
  EXPECT_EQ(wz.prp1, 0u);
  EXPECT_EQ(wz.cdw12, 0xFFFEu);

  const auto dsm = make_io(IoOpcode::dataset_management, 1, 8, 64, 0x5000, 0x6000);
  EXPECT_EQ(dsm.opcode, static_cast<std::uint8_t>(IoOpcode::dataset_management));
  EXPECT_EQ(dsm.prp1, 0x5000u);
  EXPECT_EQ(dsm.prp2, 0u);
  EXPECT_EQ(dsm.cdw10, 0u);  // one range
  EXPECT_EQ(dsm.cdw11, kDsmDeallocate);

  const auto fl = make_io(IoOpcode::flush, 1, 8, 64, 0x5000, 0x6000);
  EXPECT_EQ(fl.opcode, static_cast<std::uint8_t>(IoOpcode::flush));
  EXPECT_EQ(fl.prp1, 0u);
  EXPECT_EQ(fl.cdw10, 0u);
}

TEST(BlockStore, SparseZeroReads) {
  BlockStore store(1000, 512);
  Bytes buf(512, std::byte{0xFF});
  ASSERT_TRUE(store.read(5, 1, buf).is_ok());
  for (auto b : buf) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(store.resident_chunks(), 0u);
}

TEST(BlockStore, WriteReadAndZeroes) {
  BlockStore store(100'000, 512);
  Bytes data = make_pattern(8 * 512, 3);
  ASSERT_TRUE(store.write(64, 8, data).is_ok());
  Bytes out(8 * 512);
  ASSERT_TRUE(store.read(64, 8, out).is_ok());
  EXPECT_EQ(data, out);
  ASSERT_TRUE(store.write_zeroes(64, 8).is_ok());
  ASSERT_TRUE(store.read(64, 8, out).is_ok());
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(BlockStore, RangeChecks) {
  BlockStore store(100, 512);
  Bytes buf(512);
  EXPECT_EQ(store.read(100, 1, buf).code(), Errc::out_of_range);
  EXPECT_EQ(store.write(99, 2, Bytes(1024)).code(), Errc::out_of_range);
  EXPECT_EQ(store.read(0, 0, {}).code(), Errc::invalid_argument);
  EXPECT_EQ(store.read(0, 1, buf.empty() ? buf : ByteSpan(buf.data(), 100)).code(),
            Errc::invalid_argument);
}

TEST(BlockStore, CapacityEdgeAndOverflow) {
  BlockStore store(100, 512);
  Bytes buf(512);
  // The last valid block works; one past it does not.
  EXPECT_TRUE(store.read(99, 1, buf).is_ok());
  EXPECT_EQ(store.read(100, 1, buf).code(), Errc::out_of_range);
  // slba + nblocks must not wrap around u64 into an apparently-valid range.
  EXPECT_EQ(store.read(~0ull, 1, buf).code(), Errc::out_of_range);
  Bytes eight(8 * 512);
  EXPECT_EQ(store.read(~0ull - 3, 8, eight).code(), Errc::out_of_range);
  EXPECT_EQ(store.write(~0ull - 3, 8, eight).code(), Errc::out_of_range);
  EXPECT_EQ(store.write_zeroes(~0ull - 3, 8).code(), Errc::out_of_range);
}

// --- controller fixture --------------------------------------------------------

struct ControllerFixture : ::testing::Test {
  ControllerFixture() : tb(small_testbed(1)) {
    auto c = tb.wait(driver::BareController::init(tb.cluster(), tb.nvme_endpoint(), {}));
    EXPECT_TRUE(c.has_value()) << c.status().to_string();
    ctrl = std::move(*c);
  }

  Result<CompletionEntry> admin(const SubmissionEntry& e) {
    return tb.wait(ctrl->submit_admin(e));
  }

  Testbed tb;
  std::unique_ptr<driver::BareController> ctrl;
};

TEST_F(ControllerFixture, BringUpDiscoversGeometry) {
  EXPECT_TRUE(tb.controller().is_ready());
  EXPECT_EQ(ctrl->block_size(), 512u);
  EXPECT_EQ(ctrl->capacity_blocks(), tb.config().nvme.capacity_blocks);
  EXPECT_EQ(ctrl->max_transfer_bytes(), 128u * KiB);
  EXPECT_EQ(ctrl->granted_io_queues(), 31);  // 32 QPs minus the admin pair
}

TEST_F(ControllerFixture, CreateCqInvalidQid) {
  auto cqe = admin(make_create_io_cq(0, 40, 64, 0x10000, false, 0));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status(), kScInvalidQueueId);  // beyond the granted count
}

TEST_F(ControllerFixture, CreateSqWithoutCqRejected) {
  auto cqe = admin(make_create_io_sq(0, 5, 64, 0x10000, 5));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status(), kScInvalidQueueId);
}

TEST_F(ControllerFixture, CreateCqMisalignedBaseRejected) {
  auto cqe = admin(make_create_io_cq(0, 1, 64, 0x10008, false, 0));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status(), kScInvalidField);
}

TEST_F(ControllerFixture, CreateCqBadSizeRejected) {
  auto cqe = admin(make_create_io_cq(0, 1, 1, 0x10000, false, 0));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status(), kScInvalidQueueSize);
}

TEST_F(ControllerFixture, DeleteCqWithAttachedSqRejected) {
  auto sq_mem = tb.cluster().alloc_dram(0, 64 * 64, 4096);
  auto cq_mem = tb.cluster().alloc_dram(0, 64 * 16, 4096);
  ASSERT_TRUE(sq_mem && cq_mem);
  ASSERT_TRUE(admin(make_create_io_cq(0, 1, 64, *cq_mem, false, 0))->ok());
  ASSERT_TRUE(admin(make_create_io_sq(0, 1, 64, *sq_mem, 1))->ok());

  auto del_cq = admin(make_delete_io_cq(0, 1));
  ASSERT_TRUE(del_cq.has_value());
  EXPECT_EQ(del_cq->status(), kScInvalidQueueDeletion);

  ASSERT_TRUE(admin(make_delete_io_sq(0, 1))->ok());
  EXPECT_TRUE(admin(make_delete_io_cq(0, 1))->ok());
}

TEST_F(ControllerFixture, DuplicateQueueIdRejected) {
  auto cq_mem = tb.cluster().alloc_dram(0, 64 * 16, 4096);
  ASSERT_TRUE(admin(make_create_io_cq(0, 1, 64, *cq_mem, false, 0))->ok());
  auto again = admin(make_create_io_cq(0, 1, 64, *cq_mem, false, 0));
  EXPECT_EQ(again->status(), kScInvalidQueueId);
}

TEST_F(ControllerFixture, InvalidOpcodeCompletesWithError) {
  SubmissionEntry e;
  e.opcode = 0x7F;
  auto cqe = admin(e);
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status(), kScInvalidOpcode);
}

TEST_F(ControllerFixture, GetFeaturesReportsGrantedQueues) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(AdminOpcode::get_features);
  e.cdw10 = static_cast<std::uint32_t>(FeatureId::number_of_queues);
  auto cqe = admin(e);
  ASSERT_TRUE(cqe.has_value() && cqe->ok());
  EXPECT_EQ((cqe->dw0 & 0xFFFF) + 1, 31u);
}

TEST_F(ControllerFixture, ArbitrationFeatureRoundTrips) {
  auto set = admin(make_set_arbitration(0, 4, 2, 5, 9));
  ASSERT_TRUE(set.has_value());
  EXPECT_TRUE(set->ok());

  SubmissionEntry get;
  get.opcode = static_cast<std::uint8_t>(AdminOpcode::get_features);
  get.cdw10 = static_cast<std::uint32_t>(FeatureId::arbitration);
  auto cqe = admin(get);
  ASSERT_TRUE(cqe.has_value() && cqe->ok());
  EXPECT_EQ(cqe->dw0, 4u | (2u << 8) | (5u << 16) | (9u << 24));
}

TEST_F(ControllerFixture, CreateSqCarriesPriorityClass) {
  // QPRIO rides in CDW11 bits 2:1; any class must be accepted regardless of
  // the arbitration mode the controller was enabled with.
  auto cq_mem = tb.cluster().alloc_dram(0, 64 * 16, 4096);
  auto sq_mem = tb.cluster().alloc_dram(0, 64 * 64, 4096);
  ASSERT_TRUE(cq_mem && sq_mem);
  ASSERT_TRUE(admin(make_create_io_cq(0, 1, 64, *cq_mem, false, 0))->ok());
  auto cqe = admin(make_create_io_sq(0, 1, 64, *sq_mem, 1, SqPriority::low));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_TRUE(cqe->ok());
}

TEST_F(ControllerFixture, AbortReportsNotAborted) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(AdminOpcode::abort);
  auto cqe = admin(e);
  ASSERT_TRUE(cqe.has_value() && cqe->ok());
  EXPECT_EQ(cqe->dw0 & 1u, 1u);
}

TEST_F(ControllerFixture, AsyncEventRequestParksForever) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(AdminOpcode::async_event_request);
  auto cqe = admin(e);  // must time out: no events are ever raised
  EXPECT_FALSE(cqe.has_value());
  EXPECT_EQ(cqe.error_code(), Errc::timed_out);
}

TEST_F(ControllerFixture, InvalidSqDoorbellValueIsFatal) {
  pcie::Fabric& fabric = tb.fabric();
  Bytes doorbell(4);
  store_pod(doorbell, std::uint32_t{60000});  // way beyond queue size
  auto bar = fabric.bar_address(tb.nvme_endpoint(), 0);
  ASSERT_TRUE(bar.has_value());
  (void)fabric.post_write(fabric.cpu(0), *bar + sq_doorbell_offset(0), std::move(doorbell));
  tb.engine().run_for(1_ms);
  EXPECT_TRUE(tb.controller().is_fatal());
  EXPECT_FALSE(tb.controller().is_ready());
}

TEST_F(ControllerFixture, DoorbellForUnknownQueueIsFatal) {
  pcie::Fabric& fabric = tb.fabric();
  Bytes doorbell(4);
  store_pod(doorbell, std::uint32_t{0});
  auto bar = fabric.bar_address(tb.nvme_endpoint(), 0);
  (void)fabric.post_write(fabric.cpu(0), *bar + sq_doorbell_offset(20), std::move(doorbell));
  tb.engine().run_for(1_ms);
  EXPECT_TRUE(tb.controller().is_fatal());
}

// Submit `n` flushes one at a time through a tiny queue: exercises SQ/CQ
// wraparound and phase-tag inversion several times over.
struct TinyQueueFixture : ControllerFixture {
  void run_flushes(int n) {
    auto sq_mem = tb.cluster().alloc_dram(0, 4 * 64, 4096);
    auto cq_mem = tb.cluster().alloc_dram(0, 4 * 16, 4096);
    ASSERT_TRUE(sq_mem && cq_mem);
    auto qid = tb.wait(ctrl->create_queue_pair(*sq_mem, 4, *cq_mem, 4, std::nullopt));
    ASSERT_TRUE(qid.has_value()) << qid.status().to_string();

    QueuePair::Config qc;
    qc.qid = *qid;
    qc.sq_size = 4;
    qc.cq_size = 4;
    qc.sq_write_addr = *sq_mem;
    qc.cq_poll_addr = *cq_mem;
    qc.sq_doorbell_addr = ctrl->sq_doorbell(*qid);
    qc.cq_doorbell_addr = ctrl->cq_doorbell(*qid);
    qc.cpu = tb.fabric().cpu(0);
    QueuePair qp(tb.fabric(), qc);

    for (int i = 0; i < n; ++i) {
      auto cid = qp.push(make_flush(0, 1));
      ASSERT_TRUE(cid.has_value());
      ASSERT_TRUE(qp.ring_sq_doorbell().is_ok());
      const sim::Time deadline = tb.engine().now() + 1_s;
      std::optional<CompletionEntry> cqe;
      while (!cqe && tb.engine().now() < deadline) {
        tb.engine().run_until(tb.engine().now() + 1_us);
        cqe = qp.poll();
      }
      ASSERT_TRUE(cqe.has_value()) << "flush " << i << " never completed";
      EXPECT_TRUE(cqe->ok());
      EXPECT_EQ(cqe->sqid, *qid);
      ASSERT_TRUE(qp.ring_cq_doorbell().is_ok());
    }
  }
};

TEST_F(TinyQueueFixture, WraparoundAndPhaseFlipSurvive13Commands) { run_flushes(13); }

TEST_F(TinyQueueFixture, LongWraparound50Commands) { run_flushes(50); }

TEST_F(ControllerFixture, SpuriousCqeIsCountedNotSilentlyDropped) {
  // The regression this guards: poll() used to drop a completion whose CID
  // was not in flight without a trace, hiding duplicate/stale CQEs from
  // both operators and tests.
  auto sq_mem = tb.cluster().alloc_dram(0, 4 * 64, 4096);
  auto cq_mem = tb.cluster().alloc_dram(0, 4 * 16, 4096);
  ASSERT_TRUE(sq_mem && cq_mem);
  auto qid = tb.wait(ctrl->create_queue_pair(*sq_mem, 4, *cq_mem, 4, std::nullopt));
  ASSERT_TRUE(qid.has_value()) << qid.status().to_string();

  QueuePair::Config qc;
  qc.qid = *qid;
  qc.sq_size = 4;
  qc.cq_size = 4;
  qc.sq_write_addr = *sq_mem;
  qc.cq_poll_addr = *cq_mem;
  qc.sq_doorbell_addr = ctrl->sq_doorbell(*qid);
  qc.cq_doorbell_addr = ctrl->cq_doorbell(*qid);
  qc.cpu = tb.fabric().cpu(0);
  QueuePair qp(tb.fabric(), qc);

  // Two clean flushes: CIDs are issued and retired the normal way, and the
  // real CQ tail advances to slot 2 alongside the consumer's head.
  std::uint16_t last_cid = 0;
  for (int i = 0; i < 2; ++i) {
    auto cid = qp.push(make_flush(0, static_cast<std::uint16_t>(i + 1)));
    ASSERT_TRUE(cid.has_value());
    last_cid = *cid;
    ASSERT_TRUE(qp.ring_sq_doorbell().is_ok());
    const sim::Time deadline = tb.engine().now() + 1_s;
    std::optional<CompletionEntry> cqe;
    while (!cqe && tb.engine().now() < deadline) {
      tb.engine().run_until(tb.engine().now() + 1_us);
      cqe = qp.poll();
    }
    ASSERT_TRUE(cqe.has_value()) << "flush " << i << " never completed";
    ASSERT_TRUE(qp.ring_cq_doorbell().is_ok());
  }
  EXPECT_EQ(qp.stats().spurious_cqes.value(), 0u);
  EXPECT_EQ(qp.inflight(), 0u);

  // Inject a duplicate of the last completion into the next CQ slot with
  // the phase the consumer expects: a CQE for a CID that is not in flight.
  CompletionEntry dup;
  dup.sqid = *qid;
  dup.cid = last_cid;
  dup.set_phase(true);  // head has not wrapped yet
  Bytes raw(sizeof(CompletionEntry));
  store_pod(raw, dup);
  ASSERT_TRUE(tb.fabric()
                  .post_write(tb.fabric().cpu(0), *cq_mem + 2 * sizeof(CompletionEntry),
                              std::move(raw))
                  .has_value());
  tb.engine().run_for(1_ms);

  auto spurious = qp.poll();
  ASSERT_TRUE(spurious.has_value()) << "the duplicate must be consumed, not wedged";
  EXPECT_EQ(spurious->cid, last_cid);
  EXPECT_EQ(qp.stats().spurious_cqes.value(), 1u);
  EXPECT_EQ(qp.inflight(), 0u) << "a spurious CQE must not underflow inflight";
}

// --- CID allocation backpressure (the regression behind src/mux) -------------------
//
// The old allocator scanned `cid_busy_` in an unbounded loop; with every CID
// busy (a full queue, or a tenant's exhausted sub-range) the submitting task
// spun forever. These tests pin the contract that replaced it: a bounded
// scan that reports `resource_exhausted` and counts the rejection.

struct CidFixture : ControllerFixture {
  void build(std::uint16_t entries) {
    auto sq_mem = tb.cluster().alloc_dram(0, entries * 64ull, 4096);
    auto cq_mem = tb.cluster().alloc_dram(0, entries * 16ull, 4096);
    ASSERT_TRUE(sq_mem && cq_mem);
    auto qid = tb.wait(ctrl->create_queue_pair(*sq_mem, entries, *cq_mem, entries,
                                               std::nullopt));
    ASSERT_TRUE(qid.has_value()) << qid.status().to_string();
    QueuePair::Config qc;
    qc.qid = *qid;
    qc.sq_size = entries;
    qc.cq_size = entries;
    qc.sq_write_addr = *sq_mem;
    qc.cq_poll_addr = *cq_mem;
    qc.sq_doorbell_addr = ctrl->sq_doorbell(*qid);
    qc.cq_doorbell_addr = ctrl->cq_doorbell(*qid);
    qc.cpu = tb.fabric().cpu(0);
    qp = std::make_unique<QueuePair>(tb.fabric(), qc);
  }

  /// Drain every outstanding completion (rings both doorbells).
  void drain() {
    ASSERT_TRUE(qp->ring_sq_doorbell().is_ok());
    const sim::Time deadline = tb.engine().now() + 1_s;
    while (qp->inflight() > 0 && tb.engine().now() < deadline) {
      tb.engine().run_until(tb.engine().now() + 1_us);
      while (qp->poll()) {
      }
    }
    ASSERT_EQ(qp->inflight(), 0u);
    ASSERT_TRUE(qp->ring_cq_doorbell().is_ok());
  }

  std::unique_ptr<QueuePair> qp;
};

TEST_F(CidFixture, QueueFullPushReturnsBackpressureNotLivelock) {
  build(8);
  for (int i = 0; i < 7; ++i) {  // sq_full at sq_size - 1 in flight
    ASSERT_TRUE(qp->push(make_flush(0, 1)).has_value()) << "push " << i;
  }
  auto overflow = qp->push(make_flush(0, 1));
  ASSERT_FALSE(overflow.has_value());
  EXPECT_EQ(overflow.status().code(), Errc::resource_exhausted);
  drain();
  EXPECT_TRUE(qp->push(make_flush(0, 1)).has_value()) << "queue must accept work again";
  drain();
}

TEST_F(CidFixture, TenantRangeExhaustsWhileQueueHasRoom) {
  build(16);
  const CidRange range{2, 4};
  auto a = qp->push(make_flush(0, 1), range);
  auto b = qp->push(make_flush(0, 1), range);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(range.contains(*a));
  EXPECT_TRUE(range.contains(*b));
  EXPECT_EQ(qp->free_in_range(range), 0u);
  ASSERT_FALSE(qp->sq_full()) << "the queue itself still has room";

  // The tenant's window is gone: bounded rejection, counted.
  auto exhausted = qp->push(make_flush(0, 1), range);
  ASSERT_FALSE(exhausted.has_value());
  EXPECT_EQ(exhausted.status().code(), Errc::resource_exhausted);
  EXPECT_EQ(qp->stats().cid_exhausted.value(), 1u);

  // Other CID space is unaffected: a disjoint tenant and the default
  // full-range path both still allocate.
  EXPECT_TRUE(qp->push(make_flush(0, 1), CidRange{4, 6}).has_value());
  EXPECT_TRUE(qp->push(make_flush(0, 1)).has_value());
  drain();
  EXPECT_EQ(qp->free_in_range(range), 2u);
  EXPECT_TRUE(qp->push(make_flush(0, 1), range).has_value());
  drain();
}

TEST_F(CidFixture, RangedPushRejectsMalformedRanges) {
  build(8);
  EXPECT_EQ(qp->push(make_flush(0, 1), CidRange{4, 4}).status().code(),
            Errc::invalid_argument);
  EXPECT_EQ(qp->push(make_flush(0, 1), CidRange{6, 3}).status().code(),
            Errc::invalid_argument);
  EXPECT_EQ(qp->push(make_flush(0, 1), CidRange{0, 9}).status().code(),
            Errc::invalid_argument);
  EXPECT_EQ(qp->stats().sqes_pushed.value(), 0u);
}

TEST_F(CidFixture, RestoreDropsOldEpochCompletionsViaSpuriousPath) {
  // A takeover adopts the ring cursors but not the previous operator's
  // in-flight CIDs; their late completions must be consumed as counted
  // spurious CQEs and must not corrupt the new operator's busy map.
  build(16);
  const CidRange tenant{2, 4};
  ASSERT_TRUE(qp->push(make_flush(0, 1), tenant).has_value());
  ASSERT_TRUE(qp->push(make_flush(0, 1), tenant).has_value());
  ASSERT_TRUE(qp->ring_sq_doorbell().is_ok());
  EXPECT_EQ(qp->inflight(), 2u);

  // The new epoch begins before the old completions are consumed.
  qp->restore(qp->ring_state());
  EXPECT_EQ(qp->inflight(), 0u);
  EXPECT_EQ(qp->free_in_range(tenant), tenant.count());

  // Let the controller post the old-epoch CQEs, then consume them.
  tb.engine().run_for(1_ms);
  int seen = 0;
  while (qp->poll()) ++seen;
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(qp->stats().spurious_cqes.value(), 2u);
  EXPECT_EQ(qp->inflight(), 0u) << "spurious CQEs must not underflow inflight";
  ASSERT_TRUE(qp->ring_cq_doorbell().is_ok());

  // The tenant window is fully usable in the new epoch.
  ASSERT_TRUE(qp->push(make_flush(0, 1), tenant).has_value());
  ASSERT_TRUE(qp->push(make_flush(0, 1), tenant).has_value());
  drain();
  EXPECT_EQ(qp->stats().spurious_cqes.value(), 2u) << "new-epoch CQEs route normally";
}

TEST_F(ControllerFixture, LbaArithmeticOverflowRejected) {
  // An slba near UINT64_MAX must fail with LBA Out of Range, not wrap
  // around into an apparently-valid range and touch the wrong blocks.
  auto sq_mem = tb.cluster().alloc_dram(0, 16 * 64, 4096);
  auto cq_mem = tb.cluster().alloc_dram(0, 16 * 16, 4096);
  auto buf = tb.cluster().alloc_dram(0, 8 * 4096, 4096);
  ASSERT_TRUE(sq_mem && cq_mem && buf);
  auto qid = tb.wait(ctrl->create_queue_pair(*sq_mem, 16, *cq_mem, 16, std::nullopt));
  ASSERT_TRUE(qid.has_value()) << qid.status().to_string();

  QueuePair::Config qc;
  qc.qid = *qid;
  qc.sq_size = 16;
  qc.cq_size = 16;
  qc.sq_write_addr = *sq_mem;
  qc.cq_poll_addr = *cq_mem;
  qc.sq_doorbell_addr = ctrl->sq_doorbell(*qid);
  qc.cq_doorbell_addr = ctrl->cq_doorbell(*qid);
  qc.cpu = tb.fabric().cpu(0);
  QueuePair qp(tb.fabric(), qc);

  auto submit = [&](std::uint64_t slba, std::uint16_t nblocks) {
    auto cid = qp.push(make_io_rw(false, 0, 1, slba, nblocks, *buf, 0));
    EXPECT_TRUE(cid.has_value());
    EXPECT_TRUE(qp.ring_sq_doorbell().is_ok());
    const sim::Time deadline = tb.engine().now() + 1_s;
    std::optional<CompletionEntry> cqe;
    while (!cqe && tb.engine().now() < deadline) {
      tb.engine().run_until(tb.engine().now() + 1_us);
      cqe = qp.poll();
    }
    EXPECT_TRUE(cqe.has_value());
    EXPECT_TRUE(qp.ring_cq_doorbell().is_ok());
    return cqe.value_or(CompletionEntry{}).status();
  };

  const std::uint64_t cap = ctrl->capacity_blocks();
  EXPECT_EQ(submit(cap - 1, 1), kScSuccess);  // last block is addressable
  EXPECT_EQ(submit(cap, 1), kScLbaOutOfRange);
  EXPECT_EQ(submit(~0ull, 1), kScLbaOutOfRange);
  EXPECT_EQ(submit(~0ull - 3, 8), kScLbaOutOfRange);  // slba + nblocks wraps
}

// --- register conformance ----------------------------------------------------------

struct RegisterFixture : ::testing::Test {
  RegisterFixture() : tb(small_testbed(1)) {
    auto base = tb.fabric().bar_address(tb.nvme_endpoint(), 0);
    EXPECT_TRUE(base.has_value());
    bar = *base;
  }

  std::uint64_t read_reg(std::uint64_t offset, std::size_t len) {
    Bytes out(len);
    EXPECT_TRUE(tb.fabric().peek(0, bar + offset, out).is_ok());
    std::uint64_t v = 0;
    std::memcpy(&v, out.data(), len);
    return v;
  }

  Testbed tb;
  std::uint64_t bar = 0;
};

TEST_F(RegisterFixture, CapFieldsAndHalfWordReads) {
  const std::uint64_t cap = read_reg(reg::kCap, 8);
  EXPECT_EQ(cap & 0xFFFF, tb.config().nvme.max_queue_entries - 1u);  // MQES
  EXPECT_NE(cap & (1ull << 16), 0u);                                // CQR
  EXPECT_NE(cap & (1ull << 17), 0u);                                // AMS: WRR w/ urgent
  EXPECT_NE(cap & (1ull << 37), 0u);                                // CSS: NVM
  // A 4-byte read of either half must return that half.
  EXPECT_EQ(read_reg(reg::kCap, 4), cap & 0xFFFFFFFFu);
  EXPECT_EQ(read_reg(reg::kCap + 4, 4), cap >> 32);
}

TEST_F(RegisterFixture, VersionRegister) {
  EXPECT_EQ(read_reg(reg::kVs, 4), 0x00010400u);  // NVMe 1.4
}

TEST_F(RegisterFixture, AsqAcqAcceptSplit32BitWrites) {
  pcie::Fabric& fabric = tb.fabric();
  auto write32 = [&](std::uint64_t off, std::uint32_t v) {
    Bytes b(4);
    store_pod(b, v);
    (void)fabric.post_write(fabric.cpu(0), bar + off, std::move(b));
  };
  write32(reg::kAsq, 0xAAAA0000u);
  write32(reg::kAsq + 4, 0x1u);
  write32(reg::kAcq, 0xBBBB0000u);
  write32(reg::kAcq + 4, 0x2u);
  tb.engine().run();
  EXPECT_EQ(read_reg(reg::kAsq, 8), 0x1AAAA0000ull);
  EXPECT_EQ(read_reg(reg::kAcq, 8), 0x2BBBB0000ull);
}

TEST_F(RegisterFixture, MsixTableReadback) {
  pcie::Fabric& fabric = tb.fabric();
  Bytes entry(16);
  store_pod(entry, std::uint64_t{0xFEE00000}, 0);
  store_pod(entry, std::uint32_t{0x42}, 8);
  store_pod(entry, std::uint32_t{0}, 12);  // unmasked
  (void)fabric.post_write(fabric.cpu(0), bar + reg::kMsixTable + 2 * reg::kMsixEntrySize,
                          std::move(entry));
  tb.engine().run();
  Bytes out(16);
  ASSERT_TRUE(fabric.peek(0, bar + reg::kMsixTable + 2 * reg::kMsixEntrySize, out).is_ok());
  EXPECT_EQ(load_pod<std::uint64_t>(out, 0), 0xFEE00000u);
  EXPECT_EQ(load_pod<std::uint32_t>(out, 8), 0x42u);
  EXPECT_EQ(load_pod<std::uint32_t>(out, 12), 0u);
}

TEST_F(RegisterFixture, ShutdownNotificationCompletes) {
  pcie::Fabric& fabric = tb.fabric();
  Bytes cc(4);
  store_pod(cc, std::uint32_t{1u << 14});  // CC.SHN = normal shutdown
  (void)fabric.post_write(fabric.cpu(0), bar + reg::kCc, std::move(cc));
  tb.engine().run();
  EXPECT_EQ(read_reg(reg::kCsts, 4) & 0xCu, kCstsShutdownComplete);
}

TEST_F(RegisterFixture, EnableWithMisalignedAdminQueueIsFatal) {
  pcie::Fabric& fabric = tb.fabric();
  auto write32 = [&](std::uint64_t off, std::uint32_t v) {
    Bytes b(4);
    store_pod(b, v);
    (void)fabric.post_write(fabric.cpu(0), bar + off, std::move(b));
  };
  auto write64 = [&](std::uint64_t off, std::uint64_t v) {
    Bytes b(8);
    store_pod(b, v);
    (void)fabric.post_write(fabric.cpu(0), bar + off, std::move(b));
  };
  write32(reg::kAqa, 31u | (31u << 16));
  write64(reg::kAsq, 0x10008);  // not page aligned
  write64(reg::kAcq, 0x20000);
  write32(reg::kCc, kCcEnable);
  tb.engine().run_for(1_ms);
  EXPECT_TRUE(tb.controller().is_fatal());
}

TEST_F(RegisterFixture, DoorbellWhileDisabledIsIgnored) {
  pcie::Fabric& fabric = tb.fabric();
  Bytes db(4);
  store_pod(db, std::uint32_t{5});
  (void)fabric.post_write(fabric.cpu(0), bar + sq_doorbell_offset(0), std::move(db));
  tb.engine().run_for(1_ms);
  EXPECT_FALSE(tb.controller().is_fatal());  // not ready: write dropped, not fatal
  EXPECT_EQ(tb.controller().stats().doorbell_writes, 1u);
}

}  // namespace
}  // namespace nvmeshare::nvme
