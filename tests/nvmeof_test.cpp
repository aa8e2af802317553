// Unit tests for the NVMe-oF baseline: capsule format, target lifecycle,
// multiple connections, data integrity, error propagation.
#include <gtest/gtest.h>

#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "test_util.hpp"

namespace nvmeshare::nvmeof {
namespace {

using namespace testutil;

struct NvmeofFixture : ::testing::Test {
  NvmeofFixture() : tb(small_testbed(3)) {
    auto t = tb.wait(Target::start(tb.cluster(), tb.nvme_endpoint(), tb.network(), {}));
    EXPECT_TRUE(t.has_value()) << t.status().to_string();
    target = std::move(*t);
  }

  Result<std::unique_ptr<Initiator>> connect(rdma::NodeId node) {
    return tb.wait(Initiator::connect(tb.cluster(), tb.network(), *target, node, {}));
  }

  Testbed tb;
  std::unique_ptr<Target> target;
};

TEST(Capsule, WireSizes) {
  EXPECT_EQ(sizeof(CommandCapsule), 64u);
  EXPECT_EQ(sizeof(ResponseCapsule), 16u);
}

TEST_F(NvmeofFixture, TargetExposesGeometry) {
  EXPECT_EQ(target->controller().block_size(), 512u);
  EXPECT_EQ(target->controller().capacity_blocks(), tb.config().nvme.capacity_blocks);
  EXPECT_EQ(target->connection_count(), 0u);
}

TEST_F(NvmeofFixture, WriteReadVerify) {
  auto initiator = connect(1);
  ASSERT_TRUE(initiator.has_value()) << initiator.status().to_string();
  write_read_verify(tb, **initiator, 1, 1000, 4096, 0x0F0F);
  EXPECT_EQ(target->stats().errors, 0u);
  EXPECT_EQ(target->stats().reads, 1u);
  EXPECT_EQ(target->stats().writes, 1u);
}

TEST_F(NvmeofFixture, LargeTransfers) {
  auto initiator = connect(1);
  ASSERT_TRUE(initiator.has_value());
  write_read_verify(tb, **initiator, 1, 5000, 128 * KiB, 0x1F2F);
}

TEST_F(NvmeofFixture, FlushWorks) {
  auto initiator = connect(1);
  ASSERT_TRUE(initiator.has_value());
  auto fl = do_io(tb, **initiator, {block::Op::flush, 0, 0, 0});
  ASSERT_TRUE(fl.has_value());
  EXPECT_TRUE(fl->status.is_ok());
}

TEST_F(NvmeofFixture, TwoInitiatorsDedicatedQueues) {
  auto i1 = connect(1);
  auto i2 = connect(2);
  ASSERT_TRUE(i1.has_value() && i2.has_value());
  EXPECT_EQ(target->connection_count(), 2u);
  // Each connection gets its own NVMe queue pair on the target.
  EXPECT_EQ(tb.controller().active_io_sq_count(), 2);

  write_read_verify(tb, **i1, 1, 2000, 4096, 0x3A3A);
  write_read_verify(tb, **i2, 2, 3000, 4096, 0x4B4B);

  // Initiator 2 reads what initiator 1 wrote (same backing device).
  const std::uint64_t rbuf = alloc_pattern_buffer(tb, 2, 4096, 0);
  auto rd = do_io(tb, **i2, {block::Op::read, 2000, 8, rbuf});
  ASSERT_TRUE(rd.has_value() && rd->status.is_ok());
  EXPECT_TRUE(buffer_matches(tb, 2, rbuf, 4096, 0x3A3A));
}

TEST_F(NvmeofFixture, LbaOutOfRangeRejectedBeforeTheWire) {
  auto initiator = connect(1);
  ASSERT_TRUE(initiator.has_value());
  const std::uint64_t buf = alloc_pattern_buffer(tb, 1, 4096, 1);
  block::Request r{block::Op::read, (*initiator)->capacity_blocks() - 1, 8, buf};
  const auto sends_before = tb.network().stats().sends;
  auto completion = do_io(tb, **initiator, r);
  ASSERT_TRUE(completion.has_value());
  // The initiator's block layer rejects it locally (kernel semantics); no
  // capsule ever crosses the network.
  EXPECT_EQ(completion->status.code(), Errc::out_of_range);
  EXPECT_EQ(tb.network().stats().sends, sends_before);
}

TEST_F(NvmeofFixture, QueueDepthStress) {
  auto initiator = connect(1);
  ASSERT_TRUE(initiator.has_value());
  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.ops = 400;
  spec.queue_depth = 16;
  spec.verify = true;
  spec.seed = 77;
  auto result = tb.wait(workload::run_job(tb.cluster(), **initiator, 1, spec), 120_s);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->errors, 0u);
  EXPECT_EQ(result->verify_failures, 0u);
}

TEST_F(NvmeofFixture, NetworkTrafficShapeMatchesProtocol) {
  auto initiator = connect(1);
  ASSERT_TRUE(initiator.has_value());
  const auto before = tb.network().stats();
  // One read: command capsule SEND + RDMA WRITE (data) + response SEND.
  const std::uint64_t buf = alloc_pattern_buffer(tb, 1, 4096, 1);
  auto rd = do_io(tb, **initiator, {block::Op::read, 0, 8, buf});
  ASSERT_TRUE(rd.has_value() && rd->status.is_ok());
  EXPECT_EQ(tb.network().stats().sends, before.sends + 2);
  EXPECT_EQ(tb.network().stats().rdma_writes, before.rdma_writes + 1);
  EXPECT_EQ(tb.network().stats().rdma_reads, before.rdma_reads);

  // One 4 KiB write: the payload rides in-capsule (SPDK in-capsule data),
  // so it is SEND + response SEND with no one-sided transfer.
  auto wr = do_io(tb, **initiator, {block::Op::write, 0, 8, buf});
  ASSERT_TRUE(wr.has_value() && wr->status.is_ok());
  EXPECT_EQ(tb.network().stats().sends, before.sends + 4);
  EXPECT_EQ(tb.network().stats().rdma_reads, before.rdma_reads);

  // One 16 KiB write exceeds the in-capsule limit: the target pulls the
  // payload with an RDMA READ.
  const std::uint64_t big = alloc_pattern_buffer(tb, 1, 16 * KiB, 2);
  auto big_wr = do_io(tb, **initiator, {block::Op::write, 64, 32, big});
  ASSERT_TRUE(big_wr.has_value() && big_wr->status.is_ok());
  EXPECT_EQ(tb.network().stats().rdma_reads, before.rdma_reads + 1);
}

TEST_F(NvmeofFixture, InlineWriteDeliversCorrectBytes) {
  auto initiator = connect(1);
  ASSERT_TRUE(initiator.has_value());
  // Exactly at the inline boundary (4 KiB) and just above it (4.5 KiB).
  write_read_verify(tb, **initiator, 1, 7000, 4096, 0xAAA1);
  write_read_verify(tb, **initiator, 1, 8000, 4096 + 512, 0xBBB2);
}

/// A raw connection to the target with no Initiator in front of it, so a
/// test can post capsules the block layer would never build.
struct RawConnection {
  RawConnection(Testbed& tb, Target& target, rdma::NodeId node)
      : tb(tb), node(node), ctx(tb.network(), node), cq(tb.engine()) {
    (void)ctx.register_mr(0, tb.cluster().fabric().host_dram(node).size());
    auto accepted = tb.wait(target.accept(ctx, cq));
    EXPECT_TRUE(accepted.has_value()) << accepted.status().to_string();
    if (accepted) qp = *accepted;
    capsule_addr = *tb.cluster().alloc_dram(node, kCapsuleSlotBytes, 4096);
    response_addr = *tb.cluster().alloc_dram(node, 4096, 4096);
  }

  /// Send `capsule` and run until its response arrives.
  ResponseCapsule exchange(const CommandCapsule& capsule) {
    ResponseCapsule response;
    response.status = 0xFFFF;
    if (qp == nullptr) return response;
    mem::PhysMem& dram = tb.cluster().fabric().host_dram(node);
    EXPECT_TRUE(dram.write(capsule_addr, as_bytes_of(capsule)).is_ok());
    EXPECT_TRUE(qp->post_recv(1, response_addr, sizeof(ResponseCapsule)).is_ok());
    EXPECT_TRUE(qp->post_send(2, capsule_addr, sizeof(CommandCapsule)).is_ok());
    for (int i = 0; i < 1000; ++i) {
      tb.engine().run_for(1_us);
      while (auto wc = cq.poll()) {
        if (wc->opcode != rdma::WcOpcode::recv) continue;
        EXPECT_TRUE(wc->status.is_ok()) << wc->status.to_string();
        EXPECT_TRUE(dram.read(response_addr, as_writable_bytes_of(response)).is_ok());
        return response;
      }
    }
    ADD_FAILURE() << "no response capsule";
    return response;
  }

  Testbed& tb;
  rdma::NodeId node;
  rdma::Context ctx;
  rdma::CompletionQueue cq;
  rdma::QueuePair* qp = nullptr;
  std::uint64_t capsule_addr = 0;
  std::uint64_t response_addr = 0;
};

CommandCapsule raw_capsule(FabricOp op, std::uint64_t slba, std::uint32_t nblocks,
                           std::uint32_t data_len, std::uint64_t data_addr) {
  CommandCapsule capsule;
  capsule.opcode = static_cast<std::uint8_t>(op);
  capsule.cid = 7;
  capsule.slba = slba;
  capsule.nblocks = nblocks;
  capsule.data_len = data_len;
  capsule.initiator_data_addr = data_addr;
  return capsule;
}

TEST_F(NvmeofFixture, MalformedCapsuleSizesAreRejectedBeforeTheNvmeQueue) {
  // Data the rejected commands must leave alone.
  auto initiator = connect(1);
  ASSERT_TRUE(initiator.has_value());
  const std::uint64_t pattern = alloc_pattern_buffer(tb, 1, 4096, 0x77);
  auto wr = do_io(tb, **initiator, {block::Op::write, 100, 8, pattern});
  ASSERT_TRUE(wr.has_value() && wr->status.is_ok());

  RawConnection raw(tb, *target, 2);
  const std::uint64_t buf = *tb.cluster().alloc_dram(2, 128 * KiB, 4096);
  const std::uint64_t fetched = tb.controller().stats().commands_fetched.value();
  const std::uint64_t errors = target->stats().errors.value();
  const struct {
    const char* what;
    CommandCapsule capsule;
  } rejected[] = {
      // 65537 blocks truncated to 16 bits would read 1 block.
      {"read nblocks 65537", raw_capsule(FabricOp::read, 100, 65537, 512, buf)},
      {"read nblocks 0", raw_capsule(FabricOp::read, 100, 0, 0, buf)},
      {"read length mismatch", raw_capsule(FabricOp::read, 100, 8, 512, buf)},
      {"write length mismatch", raw_capsule(FabricOp::write, 100, 1, 4096, buf)},
      {"read past the slot", raw_capsule(FabricOp::read, 0, 512, 256 * KiB, buf)},
      // 65537 truncates to a 1-block zeroing; 65536 wraps the 0-based NLB.
      {"write_zeroes nblocks 65537", raw_capsule(FabricOp::write_zeroes, 100, 65537, 0, 0)},
      {"write_zeroes nblocks 65536", raw_capsule(FabricOp::write_zeroes, 100, 65536, 0, 0)},
      {"write_zeroes nblocks 0", raw_capsule(FabricOp::write_zeroes, 100, 0, 0, 0)},
  };
  for (const auto& r : rejected) {
    EXPECT_EQ(raw.exchange(r.capsule).status, nvme::kScInvalidField) << r.what;
  }
  CommandCapsule oversized_inline = raw_capsule(FabricOp::write, 100, 16, 8192, buf);
  oversized_inline.flags = kFlagInlineData;  // more than a receive slot holds
  EXPECT_EQ(raw.exchange(oversized_inline).status, nvme::kScInvalidField);

  EXPECT_EQ(tb.controller().stats().commands_fetched.value(), fetched);
  EXPECT_EQ(target->stats().errors.value(), errors + std::size(rejected) + 1);
  // A well-formed capsule on the same connection still works, and the
  // rejected write_zeroes never touched the media.
  EXPECT_EQ(raw.exchange(raw_capsule(FabricOp::read, 100, 8, 4096, buf)).status, 0u);
  EXPECT_TRUE(buffer_matches(tb, 2, buf, 4096, 0x77));
}

}  // namespace
}  // namespace nvmeshare::nvmeof
