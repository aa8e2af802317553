// Unit tests for the distributed driver pieces: cost model, interrupt
// controller, manager/client mailbox protocol, queue-pair accounting,
// bounce-buffer behaviour, failure handling.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>

#include "driver/irq.hpp"
#include "test_util.hpp"

namespace nvmeshare::driver {
namespace {

using namespace testutil;

TEST(CostModel, PresetsEncodeThePaperRelationships) {
  const CostModel stock = CostModel::stock_linux();
  const CostModel ours = CostModel::distributed_driver();
  const CostModel spdk = CostModel::spdk();
  // "our driver implementation is naive ... higher baseline latency".
  EXPECT_GT(ours.submit_ns, stock.submit_ns);
  EXPECT_GT(ours.completion_ns, stock.completion_ns);
  // The SISCI extension does not support interrupts: ours must poll.
  EXPECT_GT(ours.poll_interval_ns, 0);
  EXPECT_EQ(stock.poll_interval_ns, 0);  // interrupt driven
  // SPDK's polling target is the leanest.
  EXPECT_LT(spdk.submit_ns, stock.submit_ns);
}

TEST(CostModel, MemcpyAndJitter) {
  const CostModel m = CostModel::distributed_driver();
  EXPECT_NEAR(static_cast<double>(m.memcpy_ns(4096)), 4096.0 / m.memcpy_bytes_per_ns, 1.0);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto j = m.jittered(1000, rng);
    EXPECT_GT(j, 500);
    EXPECT_LT(j, 2500);
  }
  EXPECT_EQ(m.jittered(0, rng), 0);
}

TEST(IrqController, DeliversToHandler) {
  Testbed tb(small_testbed(1));
  IrqController& irq = tb.irq(0);
  std::uint32_t got = 0;
  auto vec = irq.allocate_vector([&](std::uint32_t data) { got = data; });
  ASSERT_TRUE(vec.has_value());
  auto addr = irq.vector_address(*vec);
  ASSERT_TRUE(addr.has_value());

  Bytes msg(4);
  store_pod(msg, std::uint32_t{0xfeedf00d});
  ASSERT_TRUE(tb.fabric().post_write(tb.fabric().cpu(0), *addr, std::move(msg)).has_value());
  tb.engine().run();
  EXPECT_EQ(got, 0xfeedf00du);
  EXPECT_EQ(irq.interrupts_delivered(), 1u);

  irq.release_vector(*vec);
  Bytes again(4);
  store_pod(again, std::uint32_t{1});
  (void)tb.fabric().post_write(tb.fabric().cpu(0), *addr, std::move(again));
  tb.engine().run();
  EXPECT_EQ(irq.interrupts_delivered(), 1u);  // released vector is silent
}

TEST(Mailbox, WireFormatInvariants) {
  EXPECT_EQ(sizeof(MboxSlot), 128u);
  EXPECT_EQ(sizeof(MetadataHeader), 56u);
  MetadataHeader h;
  h.mailbox_offset = 4096;
  EXPECT_EQ(mbox_slot_offset(h, 0), 4096u);
  EXPECT_EQ(mbox_slot_offset(h, 3), 4096u + 3 * 128);
  EXPECT_EQ(metadata_segment_size(32), 4096u + 32 * 128);
}

TEST(Manager, PublishesCorrectMetadata) {
  Testbed tb(small_testbed(2));
  auto mgr = tb.wait(Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(mgr.has_value()) << mgr.status().to_string();
  const MetadataHeader& h = (*mgr)->header();
  EXPECT_EQ(h.magic, kMetadataMagic);
  EXPECT_EQ(h.manager_node, 0u);
  EXPECT_EQ(h.device_id, tb.device_id());
  EXPECT_EQ(h.capacity_blocks, tb.config().nvme.capacity_blocks);
  EXPECT_EQ(h.block_size, 512u);
  EXPECT_EQ(h.granted_io_queues, 31u);
  EXPECT_EQ(h.mailbox_slots, 2u);
  auto meta = tb.service().device_metadata(tb.device_id());
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->first, 0u);
}

TEST(Manager, QueuePairAccounting) {
  Testbed tb(small_testbed(3));
  auto mgr = tb.wait(Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(mgr.has_value());
  EXPECT_EQ((*mgr)->active_queue_pairs(), 1u);  // admin only

  auto c1 = tb.wait(Client::attach(tb.service(), 1, tb.device_id(), {}));
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ((*mgr)->active_queue_pairs(), 2u);
  EXPECT_EQ((*mgr)->stats().qps_created, 1u);

  Status st = tb.wait_status((*c1)->detach());
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ((*mgr)->active_queue_pairs(), 1u);
  EXPECT_EQ((*mgr)->stats().qps_deleted, 1u);
}

TEST(Manager, ShutdownStopsServingButIoContinues) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value());
  stack->manager->shutdown();
  tb.engine().run_for(1_ms);

  // Established queue pairs keep working: the client operates the
  // controller independently of the manager (Section V).
  write_read_verify(tb, *stack->client, 1, 100, 4096, 0x5151);

  // But new clients cannot attach (no metadata registration).
  driver::Client::Config cc;
  cc.mailbox_timeout_ns = 5_ms;
  auto late = tb.wait(Client::attach(tb.service(), 0, tb.device_id(), cc), 60_s);
  EXPECT_FALSE(late.has_value());
}

// Drive the mailbox protocol by hand (no Client) to exercise the manager's
// validation paths.
struct RawMailbox {
  RawMailbox(Testbed& tb, const MetadataHeader& header, sisci::NodeId node = 1)
      : tb_(tb), node_(node) {
    auto loc = tb.service().device_metadata(tb.device_id());
    EXPECT_TRUE(loc.has_value());
    auto remote = tb.cluster().connect(loc->first, loc->second);
    EXPECT_TRUE(remote.has_value());
    auto map = sisci::Map::create(tb.cluster(), node, *remote);
    EXPECT_TRUE(map.has_value());
    map_ = std::move(*map);
    slot_addr_ = map_.addr() + mbox_slot_offset(header, node);
  }

  /// Post `slot` into this node's slot, claiming to be `claimed_node`
  /// (honestly: this node), and wait for the manager's response.
  MboxSlot call(MboxSlot slot, std::optional<std::uint32_t> claimed_node = std::nullopt) {
    slot.client_node = claimed_node.value_or(node_);
    slot.state = static_cast<std::uint32_t>(MboxState::request);
    Bytes buf(sizeof(MboxSlot));
    store_pod(buf, slot);
    EXPECT_TRUE(tb_.fabric().post_write(tb_.fabric().cpu(node_), slot_addr_, std::move(buf))
                    .has_value());
    const sim::Time give_up = tb_.engine().now() + 1_s;
    MboxSlot response;
    while (tb_.engine().now() < give_up) {
      tb_.engine().run_until(tb_.engine().now() + 10_us);
      EXPECT_TRUE(
          tb_.fabric().peek(node_, slot_addr_, as_writable_bytes_of(response)).is_ok());
      if (response.state == static_cast<std::uint32_t>(MboxState::done)) break;
    }
    // Hand the slot back for the next call.
    Bytes free_word(4);
    store_pod(free_word, static_cast<std::uint32_t>(MboxState::free));
    (void)tb_.fabric().post_write(tb_.fabric().cpu(node_), slot_addr_, std::move(free_word));
    tb_.engine().run_for(10_us);
    return response;
  }

  Testbed& tb_;
  sisci::NodeId node_;
  sisci::Map map_;
  std::uint64_t slot_addr_ = 0;
};

TEST(Manager, MailboxValidatesRequests) {
  Testbed tb(small_testbed(2));
  auto mgr = tb.wait(Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(mgr.has_value());
  RawMailbox mbox(tb, (*mgr)->header());

  // Unknown opcode -> protocol error.
  MboxSlot bogus;
  bogus.op = 99;
  auto r1 = mbox.call(bogus);
  EXPECT_EQ(static_cast<Errc>(r1.status), Errc::protocol_error);

  // create_qp with null addresses / zero sizes -> invalid argument.
  MboxSlot bad_create;
  bad_create.op = static_cast<std::uint32_t>(MboxOp::create_qp);
  bad_create.sq_size = 0;
  bad_create.cq_size = 0;
  auto r2 = mbox.call(bad_create);
  EXPECT_EQ(static_cast<Errc>(r2.status), Errc::invalid_argument);

  // delete_qp for a queue this node does not own -> permission denied.
  MboxSlot bad_delete;
  bad_delete.op = static_cast<std::uint32_t>(MboxOp::delete_qp);
  bad_delete.qid_in = 7;
  auto r3 = mbox.call(bad_delete);
  EXPECT_EQ(static_cast<Errc>(r3.status), Errc::permission_denied);

  // ping is answered ok.
  MboxSlot ping;
  ping.op = static_cast<std::uint32_t>(MboxOp::ping);
  auto r4 = mbox.call(ping);
  EXPECT_EQ(static_cast<Errc>(r4.status), Errc::ok);

  EXPECT_EQ((*mgr)->stats().request_errors, 3u);
  EXPECT_EQ((*mgr)->stats().mailbox_requests, 4u);
  // No queue pairs were created by any of this.
  EXPECT_EQ((*mgr)->active_queue_pairs(), 1u);

  // Node 0 holds an honest pair with 16-entry rings in its own DRAM.
  auto honest = [&](MboxOp op, std::uint16_t count) {
    MboxSlot s;
    s.op = static_cast<std::uint32_t>(op);
    s.qp_count = count;
    s.sq_size = 16;
    s.cq_size = 16;
    s.sq_device_addr = *tb.cluster().alloc_dram(0, 16 * 64 * 4, 4096);
    s.cq_device_addr = *tb.cluster().alloc_dram(0, 16 * 16 * 4, 4096);
    s.sq_stride = 16 * 64;
    s.cq_stride = 16 * 16;
    return s;
  };
  RawMailbox mbox0(tb, (*mgr)->header(), 0);
  const MboxSlot node0_create = honest(MboxOp::create_qp, 0);
  auto r5 = mbox0.call(node0_create);
  ASSERT_EQ(static_cast<Errc>(r5.status), Errc::ok);
  EXPECT_EQ((*mgr)->active_queue_pairs(), 2u);

  // A request in node 1's slot may not speak for node 0: neither delete
  // its pair nor re-serve (and so reclaim) it.
  MboxSlot spoof_delete;
  spoof_delete.op = static_cast<std::uint32_t>(MboxOp::delete_qp);
  spoof_delete.qid_in = r5.qid_out;
  auto r6 = mbox.call(spoof_delete, 0);
  EXPECT_EQ(static_cast<Errc>(r6.status), Errc::permission_denied);
  auto r7 = mbox.call(node0_create, 0);
  EXPECT_EQ(static_cast<Errc>(r7.status), Errc::permission_denied);
  EXPECT_EQ((*mgr)->active_queue_pairs(), 2u);

  // Batch strides shorter than one ring would overlap consecutive rings.
  MboxSlot sq_overlap = honest(MboxOp::create_qp_batch, 2);
  sq_overlap.sq_stride = 16 * 64 - 64;
  EXPECT_EQ(static_cast<Errc>(mbox.call(sq_overlap).status), Errc::invalid_argument);
  MboxSlot cq_overlap = honest(MboxOp::create_qp_batch, 2);
  cq_overlap.cq_stride = 16 * 16 - 16;
  EXPECT_EQ(static_cast<Errc>(mbox.call(cq_overlap).status), Errc::invalid_argument);

  // No ring may wrap past 2^64, in a batch or on its own.
  MboxSlot batch_wrap = honest(MboxOp::create_qp_batch, 2);
  batch_wrap.sq_device_addr = ~std::uint64_t{0} - 1023;  // second SQ would start at 2^64
  EXPECT_EQ(static_cast<Errc>(mbox.call(batch_wrap).status), Errc::invalid_argument);
  MboxSlot single_wrap = honest(MboxOp::create_qp, 0);
  single_wrap.cq_device_addr = ~std::uint64_t{0} - 127;  // 256-byte CQ from 2^64 - 128
  EXPECT_EQ(static_cast<Errc>(mbox.call(single_wrap).status), Errc::invalid_argument);

  EXPECT_EQ((*mgr)->stats().request_errors, 9u);
  EXPECT_EQ((*mgr)->stats().mailbox_requests, 11u);
  EXPECT_EQ((*mgr)->stats().qps_created, 1u);
  EXPECT_EQ((*mgr)->active_queue_pairs(), 2u);
  EXPECT_FALSE(tb.controller().is_fatal());
}

TEST(Manager, QueueExhaustionReportedOverMailbox) {
  // Grant only 2 I/O queues; the third create_qp must fail cleanly.
  Testbed tb(small_testbed(2));
  Manager::Config mc;
  mc.requested_io_queues = 2;
  auto mgr = tb.wait(Manager::start(tb.service(), 0, tb.device_id(), mc));
  ASSERT_TRUE(mgr.has_value());
  EXPECT_EQ((*mgr)->header().granted_io_queues, 2u);
  RawMailbox mbox(tb, (*mgr)->header());

  // Two honest-looking queue pairs (queue memory in host 0 DRAM).
  for (int i = 0; i < 2; ++i) {
    MboxSlot create;
    create.op = static_cast<std::uint32_t>(MboxOp::create_qp);
    create.sq_size = 16;
    create.cq_size = 16;
    create.sq_device_addr = *tb.cluster().alloc_dram(0, 16 * 64, 4096);
    create.cq_device_addr = *tb.cluster().alloc_dram(0, 16 * 16, 4096);
    auto r = mbox.call(create);
    ASSERT_EQ(static_cast<Errc>(r.status), Errc::ok);
    EXPECT_EQ(r.qid_out, i + 1);
  }
  MboxSlot third;
  third.op = static_cast<std::uint32_t>(MboxOp::create_qp);
  third.sq_size = 16;
  third.cq_size = 16;
  third.sq_device_addr = *tb.cluster().alloc_dram(0, 16 * 64, 4096);
  third.cq_device_addr = *tb.cluster().alloc_dram(0, 16 * 16, 4096);
  auto r = mbox.call(third);
  EXPECT_EQ(static_cast<Errc>(r.status), Errc::resource_exhausted);
  EXPECT_EQ((*mgr)->active_queue_pairs(), 3u);  // admin + 2
}

TEST(Client, RejectsBadConfig) {
  Testbed tb(small_testbed(2));
  auto mgr = tb.wait(Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(mgr.has_value());
  Client::Config cc;
  cc.queue_depth = 0;
  auto c = tb.wait(Client::attach(tb.service(), 1, tb.device_id(), cc));
  EXPECT_FALSE(c.has_value());
  EXPECT_EQ(c.error_code(), Errc::invalid_argument);

  cc = Client::Config{};
  cc.slot_bytes = 1000;  // not page aligned
  c = tb.wait(Client::attach(tb.service(), 1, tb.device_id(), cc));
  EXPECT_FALSE(c.has_value());
  EXPECT_EQ(c.error_code(), Errc::invalid_argument);

  cc = Client::Config{};
  cc.slot_bytes = 4 * KiB + 512;  // page multiple plus a sub-page remainder
  c = tb.wait(Client::attach(tb.service(), 1, tb.device_id(), cc));
  EXPECT_FALSE(c.has_value());
  EXPECT_EQ(c.error_code(), Errc::invalid_argument);
}

TEST(Client, AttachWithoutManagerTimesOut) {
  Testbed tb(small_testbed(2));
  auto c = tb.wait(Client::attach(tb.service(), 1, tb.device_id(), {}), 60_s);
  EXPECT_FALSE(c.has_value());
  EXPECT_EQ(c.error_code(), Errc::unavailable);
}

/// Overwrite one 32-bit word of the published metadata header, simulating a
/// manager that speaks a different protocol revision.
void poke_metadata_u32(Testbed& tb, std::uint64_t offset, std::uint32_t value) {
  auto loc = tb.service().device_metadata(tb.device_id());
  ASSERT_TRUE(loc.has_value());
  auto remote = tb.cluster().connect(loc->first, loc->second);
  ASSERT_TRUE(remote.has_value());
  auto map = sisci::Map::create(tb.cluster(), 1, *remote);
  ASSERT_TRUE(map.has_value());
  Bytes word(4);
  store_pod(word, value);
  ASSERT_TRUE(
      tb.fabric().post_write(tb.fabric().cpu(1), map->addr() + offset, std::move(word))
          .has_value());
  tb.engine().run_for(10_us);
}

TEST(Client, VersionMismatchRefusedCleanly) {
  // v3<->v4 (and any other disagreement) must come back as a clean
  // `unsupported` error in both directions — never a misparsed slot.
  Testbed tb(small_testbed(2));
  auto mgr = tb.wait(Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(mgr.has_value());
  const std::uint64_t version_off = offsetof(MetadataHeader, version);

  // Manager older than the client (a v3 manager, this v4 client).
  poke_metadata_u32(tb, version_off, 3);
  auto c = tb.wait(Client::attach(tb.service(), 1, tb.device_id(), {}));
  ASSERT_FALSE(c.has_value());
  EXPECT_EQ(c.error_code(), Errc::unsupported);

  // Manager newer than the client (the other direction of the handshake).
  poke_metadata_u32(tb, version_off, kMetadataVersion + 1);
  c = tb.wait(Client::attach(tb.service(), 1, tb.device_id(), {}));
  ASSERT_FALSE(c.has_value());
  EXPECT_EQ(c.error_code(), Errc::unsupported);

  // Restored version: the same client attaches fine — nothing was wedged.
  poke_metadata_u32(tb, version_off, kMetadataVersion);
  c = tb.wait(Client::attach(tb.service(), 1, tb.device_id(), {}));
  EXPECT_TRUE(c.has_value()) << c.status().to_string();
}

TEST(Client, CorruptMagicIsProtocolError) {
  Testbed tb(small_testbed(2));
  auto mgr = tb.wait(Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(mgr.has_value());
  poke_metadata_u32(tb, 0, 0xdeadbeef);  // clobber the low magic word
  auto c = tb.wait(Client::attach(tb.service(), 1, tb.device_id(), {}));
  ASSERT_FALSE(c.has_value());
  EXPECT_EQ(c.error_code(), Errc::protocol_error);
}

TEST(Manager, QosGrantDemotesToFirstAllowedClass) {
  // Policy: urgent and high are operator-only, medium is capped. A client
  // asking for high must come back demoted to medium with clamped budgets,
  // which arms its token-bucket pacer.
  Testbed tb(small_testbed(2));
  Manager::Config mc;
  mc.enable_wrr = true;
  mc.qos_policy.classes[0].allowed = 0;
  mc.qos_policy.classes[1].allowed = 0;
  mc.qos_policy.classes[2].max_iops = 1000;
  auto mgr = tb.wait(Manager::start(tb.service(), 0, tb.device_id(), mc));
  ASSERT_TRUE(mgr.has_value());

  Client::Config cc;
  cc.qos_class = nvme::SqPriority::high;
  cc.qos_iops = 5000;  // above the medium-class cap: must clamp to 1000
  auto c = tb.wait(Client::attach(tb.service(), 1, tb.device_id(), cc));
  ASSERT_TRUE(c.has_value()) << c.status().to_string();
  EXPECT_TRUE((*c)->io_engine().qos_enabled())
      << "a clamped IOPS budget must arm the client pacer";
  write_read_verify(tb, **c, 1, 500, 4096, 0x9a9a);
}

TEST(Manager, QosGrantRejectedWhenNoClassAdmits) {
  // Nothing at or below the requested priority admits the client: the
  // grant is refused outright, and the refusal reaches attach() intact.
  Testbed tb(small_testbed(2));
  Manager::Config mc;
  mc.enable_wrr = true;
  mc.qos_policy.classes[3].allowed = 0;
  auto mgr = tb.wait(Manager::start(tb.service(), 0, tb.device_id(), mc));
  ASSERT_TRUE(mgr.has_value());

  Client::Config cc;
  cc.qos_class = nvme::SqPriority::low;
  auto c = tb.wait(Client::attach(tb.service(), 1, tb.device_id(), cc));
  ASSERT_FALSE(c.has_value());
  EXPECT_EQ(c.error_code(), Errc::permission_denied);
  EXPECT_EQ((*mgr)->active_queue_pairs(), 1u) << "no queue pair may leak from a refusal";
}

TEST(Manager, DefaultPolicyGrantsUncappedAndLeavesPacerDisarmed) {
  // The all-defaults path: every class allowed, no caps, no budgets asked.
  // The grant must leave the client's pacer disarmed — this is the
  // byte-identical seed configuration.
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value());
  EXPECT_FALSE(stack->client->io_engine().qos_enabled());
  EXPECT_EQ(stack->client->io_engine().qos_deferred_cmds(), 0u);
}

TEST(Client, RequestBiggerThanSlotRejected) {
  Testbed tb(small_testbed(2));
  Client::Config cc;
  cc.slot_bytes = 8 * KiB;
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value());
  EXPECT_EQ(stack->client->max_transfer_bytes(), 8 * KiB);
  const std::uint64_t buf = alloc_pattern_buffer(tb, 1, 16 * KiB, 1);
  auto completion = do_io(tb, *stack->client, {block::Op::write, 0, 32, buf});
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->status.code(), Errc::invalid_argument);

  // Reads are bounced through the same slot and fail the same way; the
  // rejection happens at submit, before any slot is occupied.
  completion = do_io(tb, *stack->client, {block::Op::read, 0, 32, buf});
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->status.code(), Errc::invalid_argument);

  // A request that exactly fills the slot still goes through.
  completion = do_io(tb, *stack->client, {block::Op::write, 0, 16, buf});
  ASSERT_TRUE(completion.has_value());
  EXPECT_TRUE(completion->status.is_ok()) << completion->status.to_string();
}

TEST(Client, BounceCopiesAreCounted) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value());
  write_read_verify(tb, *stack->client, 1, 300, 4096, 0x7c7c);
  // One copy on the write submission path, one on the read completion path.
  EXPECT_EQ(stack->client->stats().bounce_copies, 2u);
  EXPECT_EQ(stack->client->stats().bounce_copy_bytes, 8192u);
}

TEST(Client, QueueDepthLimitsInflight) {
  Testbed tb(small_testbed(2));
  Client::Config cc;
  cc.queue_depth = 2;
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value());

  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randread;
  spec.ops = 50;
  spec.queue_depth = 8;  // more workers than device slots: they must queue
  auto result = tb.wait(workload::run_job(tb.cluster(), *stack->client, 1, spec), 60_s);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->ops_completed, 50u);
  EXPECT_EQ(result->errors, 0u);
}

TEST(LocalDriver, PolledModeWorksWithoutIrq) {
  Testbed tb(small_testbed(1));
  LocalDriver::Config cfg;
  cfg.use_interrupts = false;
  auto drv = tb.wait(LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), nullptr, cfg));
  ASSERT_TRUE(drv.has_value()) << drv.status().to_string();
  write_read_verify(tb, **drv, 0, 500, 4096, 0x9e9e);
  EXPECT_EQ((*drv)->stats().interrupts, 0u);
}

TEST(LocalDriver, InterruptModeNeedsIrqController) {
  Testbed tb(small_testbed(1));
  LocalDriver::Config cfg;
  cfg.use_interrupts = true;
  auto drv = tb.wait(LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), nullptr, cfg));
  EXPECT_FALSE(drv.has_value());
  EXPECT_EQ(drv.error_code(), Errc::invalid_argument);
}

TEST(LocalDriver, UnalignedBufferOffsetsWork) {
  Testbed tb(small_testbed(1));
  auto drv = tb.wait(LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), &tb.irq(0), {}));
  ASSERT_TRUE(drv.has_value());
  // A buffer starting mid-page: PRP1 carries the offset.
  auto base = tb.cluster().alloc_dram(0, 3 * 4096, 4096);
  ASSERT_TRUE(base.has_value());
  const std::uint64_t buf = *base + 512;
  Bytes data = make_pattern(4096, 0xAB);
  ASSERT_TRUE(tb.fabric().host_dram(0).write(buf, data).is_ok());
  auto wr = do_io(tb, **drv, {block::Op::write, 900, 8, buf});
  ASSERT_TRUE(wr.has_value() && wr->status.is_ok()) << wr->status.to_string();

  const std::uint64_t rbuf = *base + 4096 + 512;
  auto rd = do_io(tb, **drv, {block::Op::read, 900, 8, rbuf});
  ASSERT_TRUE(rd.has_value() && rd->status.is_ok());
  Bytes out(4096);
  ASSERT_TRUE(tb.fabric().host_dram(0).read(rbuf, out).is_ok());
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace nvmeshare::driver
