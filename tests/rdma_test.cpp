// Unit tests for the RDMA/InfiniBand model: MR protection, SEND/RECV,
// one-sided operations, FIFO ordering, RNR behaviour.
#include <gtest/gtest.h>

#include "rdma/rdma.hpp"
#include "test_util.hpp"

namespace nvmeshare::rdma {
namespace {

struct RdmaFixture : ::testing::Test {
  RdmaFixture() : tb(testutil::small_testbed(2)), net(tb.network()) {
    ctx0 = std::make_unique<Context>(net, 0);
    ctx1 = std::make_unique<Context>(net, 1);
    cq0 = std::make_unique<CompletionQueue>(tb.engine());
    cq1 = std::make_unique<CompletionQueue>(tb.engine());
    auto [a, b] = net.create_qp_pair(*ctx0, *cq0, *ctx1, *cq1);
    qp0 = a;
    qp1 = b;
    buf0 = *tb.cluster().alloc_dram(0, 64 * KiB, 4096);
    buf1 = *tb.cluster().alloc_dram(1, 64 * KiB, 4096);
    EXPECT_TRUE(ctx0->register_mr(buf0, 64 * KiB).is_ok());
    EXPECT_TRUE(ctx1->register_mr(buf1, 64 * KiB).is_ok());
  }

  std::optional<WorkCompletion> drain_one(CompletionQueue& cq, sim::Duration bound = 1_ms) {
    const sim::Time give_up = tb.engine().now() + bound;
    while (tb.engine().now() < give_up) {
      if (auto wc = cq.poll()) return wc;
      tb.engine().run_until(tb.engine().now() + 1_us);
    }
    return std::nullopt;
  }

  testutil::Testbed tb;
  Network& net;
  std::unique_ptr<Context> ctx0, ctx1;
  std::unique_ptr<CompletionQueue> cq0, cq1;
  QueuePair* qp0 = nullptr;
  QueuePair* qp1 = nullptr;
  std::uint64_t buf0 = 0, buf1 = 0;
};

TEST_F(RdmaFixture, SendRecvDeliversPayload) {
  Bytes msg = make_pattern(256, 1);
  ASSERT_TRUE(tb.fabric().host_dram(0).write(buf0, msg).is_ok());
  ASSERT_TRUE(qp1->post_recv(100, buf1, 4096).is_ok());
  ASSERT_TRUE(qp0->post_send(200, buf0, 256).is_ok());

  auto recv = drain_one(*cq1);
  ASSERT_TRUE(recv.has_value());
  EXPECT_EQ(recv->wr_id, 100u);
  EXPECT_EQ(recv->byte_len, 256u);
  EXPECT_TRUE(recv->status.is_ok());
  Bytes out(256);
  ASSERT_TRUE(tb.fabric().host_dram(1).read(buf1, out).is_ok());
  EXPECT_EQ(out, msg);

  auto send = drain_one(*cq0);
  ASSERT_TRUE(send.has_value());
  EXPECT_EQ(send->wr_id, 200u);
  EXPECT_TRUE(send->status.is_ok());
}

TEST_F(RdmaFixture, SendSnapshotsAtPostTime) {
  Bytes msg = make_pattern(64, 2);
  ASSERT_TRUE(tb.fabric().host_dram(0).write(buf0, msg).is_ok());
  ASSERT_TRUE(qp1->post_recv(1, buf1, 4096).is_ok());
  ASSERT_TRUE(qp0->post_send(2, buf0, 64).is_ok());
  // Scribble over the source before delivery.
  Bytes scribble(64, std::byte{0xEE});
  ASSERT_TRUE(tb.fabric().host_dram(0).write(buf0, scribble).is_ok());
  ASSERT_TRUE(drain_one(*cq1).has_value());
  Bytes out(64);
  ASSERT_TRUE(tb.fabric().host_dram(1).read(buf1, out).is_ok());
  EXPECT_EQ(out, msg);
}

TEST_F(RdmaFixture, RdmaWriteIsOneSided) {
  Bytes data = make_pattern(4096, 3);
  ASSERT_TRUE(tb.fabric().host_dram(0).write(buf0, data).is_ok());
  ASSERT_TRUE(qp0->rdma_write(300, buf0, 4096, buf1 + 8192).is_ok());
  auto wc = drain_one(*cq0);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->opcode, WcOpcode::rdma_write);
  Bytes out(4096);
  ASSERT_TRUE(tb.fabric().host_dram(1).read(buf1 + 8192, out).is_ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(cq1->depth(), 0u);  // no completion on the passive side
}

TEST_F(RdmaFixture, RdmaReadPullsRemoteData) {
  Bytes data = make_pattern(8192, 4);
  ASSERT_TRUE(tb.fabric().host_dram(1).write(buf1, data).is_ok());
  ASSERT_TRUE(qp0->rdma_read(400, buf0, 8192, buf1).is_ok());
  auto wc = drain_one(*cq0);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->opcode, WcOpcode::rdma_read);
  Bytes out(8192);
  ASSERT_TRUE(tb.fabric().host_dram(0).read(buf0, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST_F(RdmaFixture, RdmaReadCostsMoreThanWrite) {
  const sim::Time t0 = tb.engine().now();
  ASSERT_TRUE(qp0->rdma_write(1, buf0, 4096, buf1).is_ok());
  ASSERT_TRUE(drain_one(*cq0).has_value());
  const sim::Duration write_cost = tb.engine().now() - t0;

  const sim::Time t1 = tb.engine().now();
  ASSERT_TRUE(qp0->rdma_read(2, buf0, 4096, buf1).is_ok());
  ASSERT_TRUE(drain_one(*cq0).has_value());
  const sim::Duration read_cost = tb.engine().now() - t1;
  EXPECT_GT(read_cost, write_cost);
}

TEST_F(RdmaFixture, UnregisteredMemoryRejected) {
  EXPECT_EQ(qp0->post_send(1, buf0 + 64 * KiB, 64).code(), Errc::permission_denied);
  EXPECT_EQ(qp0->rdma_write(2, buf0, 64, buf1 + 64 * KiB).code(), Errc::permission_denied);
  EXPECT_EQ(qp0->rdma_read(3, buf0 + 64 * KiB, 64, buf1).code(), Errc::permission_denied);
  EXPECT_EQ(qp1->post_recv(4, buf1 + 64 * KiB, 64).code(), Errc::permission_denied);
  EXPECT_EQ(net.stats().protection_errors, 4u);
}

TEST_F(RdmaFixture, ProtectionCheckDoesNotWrap) {
  // An address near the top of the 64-bit space plus the length wraps past
  // zero; that must not read as inside an ordinary 64 KiB MR.
  const std::uint64_t wrapping = UINT64_MAX - 100;
  EXPECT_FALSE(ctx1->covered(wrapping, 4096));
  EXPECT_FALSE(ctx1->covered(buf1, UINT64_MAX));
  EXPECT_TRUE(ctx1->covered(buf1 + 60 * KiB, 4 * KiB));
  EXPECT_FALSE(ctx1->covered(buf1 + 60 * KiB, 4 * KiB + 1));
  EXPECT_EQ(qp0->rdma_read(1, buf0, 4096, wrapping).code(), Errc::permission_denied);
  EXPECT_EQ(qp0->rdma_write(2, buf0, 4096, wrapping).code(), Errc::permission_denied);
  EXPECT_EQ(net.stats().protection_errors, 2u);
  EXPECT_FALSE(drain_one(*cq0).has_value());
}

TEST_F(RdmaFixture, MemoryRegionMustLieInDram) {
  const std::uint64_t dram = tb.substrate().host_dram(1).size();
  EXPECT_EQ(ctx1->register_mr(dram - 4 * KiB, 1 * MiB).code(), Errc::out_of_range);
  EXPECT_EQ(ctx1->register_mr(UINT64_MAX - 100, 4096).code(), Errc::out_of_range);
  EXPECT_EQ(ctx1->register_mr(dram, 1).code(), Errc::out_of_range);
  EXPECT_FALSE(ctx1->covered(dram - 4 * KiB, 4 * KiB));
  EXPECT_TRUE(ctx1->register_mr(dram - 4 * KiB, 4 * KiB).is_ok());
  EXPECT_TRUE(ctx1->covered(dram - 4 * KiB, 4 * KiB));
}

TEST_F(RdmaFixture, RecvRingKeepsFifoOrderAcrossGrowth) {
  // Consume two receives so the ring's head moves, then post more than its
  // first capacity: deliveries must still follow posting order.
  std::uint64_t next = 0;
  for (; next < 3; ++next) ASSERT_TRUE(qp1->post_recv(next, buf1, 256).is_ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(qp0->post_send(100 + i, buf0, 16).is_ok());
  for (int i = 0; i < 2; ++i) {
    auto wc = drain_one(*cq1);
    ASSERT_TRUE(wc.has_value());
    EXPECT_EQ(wc->wr_id, static_cast<std::uint64_t>(i));
  }
  for (; next < 20; ++next) ASSERT_TRUE(qp1->post_recv(next, buf1, 256).is_ok());
  EXPECT_EQ(qp1->posted_recvs(), 18u);
  for (int i = 0; i < 18; ++i) ASSERT_TRUE(qp0->post_send(200 + i, buf0, 16).is_ok());
  for (std::uint64_t want = 2; want < 20; ++want) {
    auto wc = drain_one(*cq1);
    ASSERT_TRUE(wc.has_value());
    EXPECT_EQ(wc->wr_id, want);
  }
  EXPECT_EQ(qp1->posted_recvs(), 0u);
}

TEST_F(RdmaFixture, RnrWhenNoRecvPosted) {
  ASSERT_TRUE(qp0->post_send(5, buf0, 64).is_ok());
  auto wc = drain_one(*cq0);
  ASSERT_TRUE(wc.has_value());
  EXPECT_FALSE(wc->status.is_ok());
  EXPECT_EQ(net.stats().rnr_drops, 1u);
}

TEST_F(RdmaFixture, MessageTooBigForRecvBuffer) {
  ASSERT_TRUE(qp1->post_recv(6, buf1, 64).is_ok());
  Bytes big = make_pattern(4096, 9);
  ASSERT_TRUE(tb.fabric().host_dram(0).write(buf0, big).is_ok());
  ASSERT_TRUE(qp0->post_send(7, buf0, 4096).is_ok());
  auto recv_wc = drain_one(*cq1);
  ASSERT_TRUE(recv_wc.has_value());
  EXPECT_FALSE(recv_wc->status.is_ok());
}

TEST_F(RdmaFixture, SmallMessageCannotOvertakeLargeWrite) {
  // Post a 64 KiB RDMA WRITE then a 16-byte SEND on the same QP; the SEND's
  // payload must be visible at the receiver only after the WRITE landed.
  ASSERT_TRUE(qp1->post_recv(800, buf1 + 48 * KiB, 4096).is_ok());
  Bytes big = make_pattern(32 * KiB, 10);
  ASSERT_TRUE(tb.fabric().host_dram(0).write(buf0, big).is_ok());
  ASSERT_TRUE(qp0->rdma_write(801, buf0, 32 * KiB, buf1).is_ok());
  ASSERT_TRUE(qp0->post_send(802, buf0, 16).is_ok());

  auto recv = drain_one(*cq1);
  ASSERT_TRUE(recv.has_value());
  // At the moment the SEND is delivered, the preceding WRITE is complete.
  Bytes out(32 * KiB);
  ASSERT_TRUE(tb.fabric().host_dram(1).read(buf1, out).is_ok());
  EXPECT_EQ(out, big);
}

TEST_F(RdmaFixture, MessageLatencyScalesWithSize) {
  const auto small = net.message_latency(0);
  const auto large = net.message_latency(64 * KiB);
  EXPECT_GT(large, small);
  EXPECT_NEAR(static_cast<double>(large - small),
              64.0 * 1024.0 / net.config().bytes_per_ns, 1.0);
}

TEST_F(RdmaFixture, RecvQueueOrderIsFifo) {
  ASSERT_TRUE(qp1->post_recv(1, buf1, 256).is_ok());
  ASSERT_TRUE(qp1->post_recv(2, buf1 + 256, 256).is_ok());
  ASSERT_TRUE(qp0->post_send(10, buf0, 16).is_ok());
  ASSERT_TRUE(qp0->post_send(11, buf0, 16).is_ok());
  auto first = drain_one(*cq1);
  auto second = drain_one(*cq1);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->wr_id, 1u);
  EXPECT_EQ(second->wr_id, 2u);
}

}  // namespace
}  // namespace nvmeshare::rdma
