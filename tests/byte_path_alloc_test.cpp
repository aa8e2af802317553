// The byte path's steady state makes no heap allocation. 128 KiB writes and
// reads through ours-remote (NTB and CXL) and NVMe-oF move payloads as
// shared page references (mem::Payload), copy partial edges into pooled
// pages, and the NVMe-oF target tracks in-flight work in tables sized at
// connect. So do unaligned 4 KiB requests, whose edges are copied, and reads
// into a buffer whose pages the device's media still shares. A sharded
// namespace over tenant shares keeps a request's pieces in its coroutine
// frame and stages commands in grow-only rings. Writes to blocks never
// written before, inside a 2 MiB region of the media already written, find
// their page-table leaf in place. So do 4 KiB requests 32 deep on each of
// four queue pairs.
//
// This binary replaces the global operator new with a counting one, as
// sim_alloc_test.cpp does. Each stack runs rounds of one shape; the first
// two warm the pool and container capacities, and the later ones must not
// call global operator new at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "block/sharded_device.hpp"
#include "mux/mux.hpp"
#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "sim/pool.hpp"
#include "test_util.hpp"

namespace {
std::uint64_t g_allocations = 0;

void* counted(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nvmeshare {
namespace {

using namespace testutil;

constexpr std::uint32_t kBytes = 128 * KiB;
/// 32 commands per worker and round: the two warm-up rounds cycle through
/// every CID of a 64-entry queue and all 64 NVMe-oF target command slots, so
/// they touch every page and pool block the third round uses.
constexpr int kOps = 16;

/// The requests of one round.
struct RoundShape {
  std::uint32_t bytes = kBytes;
  std::uint64_t first_lba = 0;
  /// Where the data starts in the buffers' first page.
  std::uint64_t buffer_offset = 0;
  /// Read each request's blocks straight back into the buffer the write
  /// came from, instead of all writes and then all reads into another one.
  bool read_back = false;
  /// Start each round past the blocks the round before wrote, so that every
  /// round writes blocks never written before.
  bool fresh_blocks = false;
  /// Workers running at once, each one request at a time.
  std::uint32_t in_flight = 1;
};

/// The workers of one round and their failures.
struct Join {
  std::uint32_t running;
  sim::Promise<int> done;
  int failures = 0;
};

/// One worker of a round: kOps writes from `wbuf` to block ranges and reads
/// of the same ranges, one request at a time, so every round reaches the
/// same peak of buffers and frames in flight. Worker `worker` of
/// `shape.in_flight` takes every in_flight-th range from its own index on.
sim::Task round_task(block::BlockDevice& dev, std::uint64_t wbuf, std::uint64_t rbuf,
                     RoundShape shape, std::uint32_t worker, Join& join) {
  const std::uint32_t nblocks = shape.bytes / dev.block_size();
  int& failures = join.failures;
  auto io = [&](block::Op op, int i) {
    const std::uint64_t range = static_cast<std::uint64_t>(i) * shape.in_flight + worker;
    const std::uint64_t lba = shape.first_lba + range * nblocks;
    const std::uint64_t buf = op == block::Op::write || shape.read_back ? wbuf : rbuf;
    return dev.submit(block::Request{op, lba, nblocks, buf});
  };
  if (shape.read_back) {
    for (int i = 0; i < kOps; ++i) {
      for (const block::Op op : {block::Op::write, block::Op::read}) {
        const block::Completion c = co_await io(op, i);
        if (!c.status) ++failures;
      }
    }
  } else {
    for (const block::Op op : {block::Op::write, block::Op::read}) {
      for (int i = 0; i < kOps; ++i) {
        const block::Completion c = co_await io(op, i);
        if (!c.status) ++failures;
      }
    }
  }
  if (--join.running == 0) join.done.set(failures);
}

class BytePathAlloc : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!sim::pool::kEnabled) GTEST_SKIP() << "the pool passes through under AddressSanitizer";
  }

  /// A buffer holding pattern `seed` at `offset` into its first page.
  static std::uint64_t pattern_buffer(Testbed& tb, sisci::NodeId node, const RoundShape& shape,
                                      std::uint64_t seed) {
    const std::uint64_t base =
        alloc_pattern_buffer(tb, node, shape.buffer_offset + shape.bytes, seed);
    EXPECT_TRUE(tb.substrate()
                    .host_dram(node)
                    .write(base + shape.buffer_offset, make_pattern(shape.bytes, seed))
                    .is_ok());
    return base + shape.buffer_offset;
  }

  /// Run `rounds` (at least three) rounds of `shape` on `dev` from `node`;
  /// returns the global operator new calls made from the third round on.
  /// Every request must succeed and the reads must return what was written.
  static std::uint64_t steady_state_allocations(Testbed& tb, block::BlockDevice& dev,
                                                sisci::NodeId node, RoundShape shape = {},
                                                int rounds = 3) {
    const std::uint64_t wbuf = pattern_buffer(tb, node, shape, 0xB0);
    const std::uint64_t rbuf = pattern_buffer(tb, node, shape, 0xE0);
    auto round = [&] {
      Join join{shape.in_flight, sim::Promise<int>(tb.engine())};
      for (std::uint32_t w = 0; w < shape.in_flight; ++w) {
        round_task(dev, wbuf, rbuf, shape, w, join);
      }
      auto failures = tb.wait_plain(join.done.future(), 1_s);
      EXPECT_TRUE(failures.has_value());
      EXPECT_EQ(failures.value_or(-1), 0);
      if (shape.fresh_blocks) {
        shape.first_lba += kOps * shape.in_flight * (shape.bytes / dev.block_size());
      }
    };
    round();
    round();
    const std::uint64_t before = g_allocations;
    for (int i = 2; i < rounds; ++i) round();
    const std::uint64_t allocations = g_allocations - before;
    EXPECT_TRUE(buffer_matches(tb, node, shape.read_back ? wbuf : rbuf, shape.bytes, 0xB0));
    return allocations;
  }
};

TEST_F(BytePathAlloc, OursRemoteOnNtb) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, /*manager_node=*/0, /*client_node=*/1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  EXPECT_EQ(steady_state_allocations(tb, *stack->client, 1), 0u);
}

TEST_F(BytePathAlloc, OursRemoteOnCxl) {
  TestbedConfig cfg = small_testbed(2);
  cfg.substrate = fabric::SubstrateKind::cxl;
  Testbed tb(cfg);
  auto stack = bring_up(tb, /*manager_node=*/0, /*client_node=*/1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  EXPECT_EQ(steady_state_allocations(tb, *stack->client, 1), 0u);
}

TEST_F(BytePathAlloc, Nvmeof) {
  for (const bool digest : {false, true}) {
    SCOPED_TRACE(digest ? "with data digests" : "without data digests");
    Testbed tb(small_testbed(2));
    nvmeof::Target::Config tc;
    tc.data_digest = digest;
    auto target =
        tb.wait(nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(), tb.network(), tc));
    ASSERT_TRUE(target.has_value()) << target.status().to_string();
    nvmeof::Initiator::Config ic;
    ic.data_digest = digest;
    auto initiator =
        tb.wait(nvmeof::Initiator::connect(tb.cluster(), tb.network(), **target, 1, ic));
    ASSERT_TRUE(initiator.has_value()) << initiator.status().to_string();
    EXPECT_EQ(steady_state_allocations(tb, **initiator, 1), 0u);
    EXPECT_EQ((*target)->stats().errors.value(), 0u);
  }
}

TEST_F(BytePathAlloc, UnalignedSmallRequestsCopyEdges) {
  // 4 KiB requests starting one 512 B block into a page of the media, from
  // buffers that start 512 B into a page: no page lines up, every byte is
  // an edge copy into a pooled page.
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, /*manager_node=*/0, /*client_node=*/1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  ASSERT_EQ(stack->client->block_size(), 512u);
  const RoundShape shape{.bytes = 4 * KiB, .first_lba = 1, .buffer_offset = 512};
  EXPECT_EQ(steady_state_allocations(tb, *stack->client, 1, shape), 0u);
}

TEST_F(BytePathAlloc, ReadBackIntoPagesTheMediaShares) {
  // After a write, the buffer, the bounce slot and the media hold the same
  // pages; reading the blocks back into that buffer swaps shared pages for
  // shared pages.
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, /*manager_node=*/0, /*client_node=*/1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  const RoundShape shape{.read_back = true};
  EXPECT_EQ(steady_state_allocations(tb, *stack->client, 1, shape), 0u);
}

TEST_F(BytePathAlloc, FreshBlocksInATouchedMediaRegion) {
  // Each round writes 16 x 16 KiB to blocks no earlier round wrote, all in
  // the media's first 2 MiB: the third round stores into new 32 KiB chunks
  // of a page-table leaf the first round made.
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, /*manager_node=*/0, /*client_node=*/1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  const RoundShape shape{.bytes = 16 * KiB, .fresh_blocks = true};
  EXPECT_EQ(steady_state_allocations(tb, *stack->client, 1, shape), 0u);
  EXPECT_EQ(tb.controller().store().resident_chunks(), 3u * kOps * shape.bytes / (32 * KiB));
}

TEST_F(BytePathAlloc, DeepQueuesOnNtb) {
  // 4 KiB requests 32 deep on each of four queue pairs, as nvsh_fio runs
  // them: every slot of every channel holds a request at once. Jittered CPU
  // costs push the peak of records in flight a little higher now and then
  // in later rounds; the pool's slabs must leave room for that creep, so
  // rounds 3 to 15 all count.
  Testbed tb(small_testbed(2));
  driver::Client::Config cc;
  cc.channels = 4;
  cc.queue_depth = 32;
  cc.queue_entries = 64;
  auto stack = bring_up(tb, /*manager_node=*/0, /*client_node=*/1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  const RoundShape shape{.bytes = 4 * KiB, .in_flight = cc.channels * cc.queue_depth};
  EXPECT_EQ(steady_state_allocations(tb, *stack->client, 1, shape, /*rounds=*/15), 0u);
}

/// One sharded round: kOps single-stripe requests and kOps that span five
/// chunks over all four shards, written and then read back, one at a time.
sim::Task sharded_round_task(block::BlockDevice& dev, std::uint32_t stripe, std::uint64_t wbuf,
                             std::uint64_t rbuf, sim::Promise<int> done) {
  int failures = 0;
  for (const block::Op op : {block::Op::write, block::Op::read}) {
    const std::uint64_t buf = op == block::Op::write ? wbuf : rbuf;
    for (int i = 0; i < kOps; ++i) {
      const auto base = static_cast<std::uint64_t>(i) * 8 * stripe;
      const block::Request single{op, base, stripe, buf};
      const block::Request spanning{op, base + 3, 4 * stripe - 2, buf};
      for (const block::Request& request : {single, spanning}) {
        const block::Completion c = co_await dev.submit(request);
        if (!c.status) ++failures;
      }
    }
  }
  done.set(failures);
}

TEST_F(BytePathAlloc, ShardedTenantShares) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, /*manager_node=*/0, /*client_node=*/1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  std::vector<std::unique_ptr<mux::TenantDevice>> shares;
  std::vector<block::BlockDevice*> shards;
  for (std::uint32_t tenant = 1; tenant <= 4; ++tenant) {
    driver::Client::ShareRequest req;
    req.tenant = tenant;
    ASSERT_TRUE(tb.wait(stack->client->create_share(req)).has_value());
    shares.push_back(
        std::make_unique<mux::TenantDevice>(*stack->client->multiplexer(), *stack->client, tenant));
    shards.push_back(shares.back().get());
  }
  // The shares alias one namespace, so reads return whichever piece wrote
  // a local block last; this test counts allocations, not contents.
  constexpr std::uint32_t kStripe = 8;
  block::ShardedDevice dev(tb.engine(), shards, {.stripe_blocks = kStripe});
  const std::size_t bytes = std::size_t{4} * kStripe * dev.block_size();
  const std::uint64_t wbuf = alloc_pattern_buffer(tb, 1, bytes, 0x5D);
  const std::uint64_t rbuf = alloc_pattern_buffer(tb, 1, bytes, 0xA2);
  auto round = [&] {
    sim::Promise<int> done(tb.engine());
    sharded_round_task(dev, kStripe, wbuf, rbuf, done);
    auto failures = tb.wait_plain(done.future(), 1_s);
    EXPECT_TRUE(failures.has_value());
    EXPECT_EQ(failures.value_or(-1), 0);
  };
  round();
  round();
  const std::uint64_t before = g_allocations;
  round();
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_GT(dev.stats().splits.value(), 0u);
}

}  // namespace
}  // namespace nvmeshare
