// Tenant multiplexing (src/mux) and namespace sharding (block::ShardedDevice):
// share-grant validation, DRR fairness, per-tenant QoS pacing, CID-window
// in-flight caps, stop/destruction draining, stripe arithmetic and request
// splitting, and the driver-level create_share/delete_share lifecycle over
// the v6 mailbox.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "block/sharded_device.hpp"
#include "mux/mux.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;
using mux::QpMultiplexer;
using mux::ShareGrant;

sim::Task complete_after(sim::Engine& eng, sim::Promise<block::Completion> promise,
                         sim::Duration wire) {
  co_await sim::delay(eng, wire);
  promise.set(block::Completion{Status::ok(), wire});
}

/// Multiplexer over a fake dispatch path: every dequeue is logged with its
/// CID range; completions either arrive a fixed wire delay later or (in
/// manual mode) wait for release_one().
struct MuxHarness {
  explicit MuxHarness(QpMultiplexer::Config cfg = {}) {
    mux = std::make_unique<QpMultiplexer>(
        engine,
        [this](const block::Request& r, const nvme::CidRange& range) {
          dispatched.push_back({r, range});
          sim::Promise<block::Completion> p(engine);
          auto f = p.future();
          if (manual) {
            pending.push_back(std::move(p));
          } else {
            complete_after(engine, std::move(p), wire_ns);
          }
          return f;
        },
        stop, cfg);
  }

  void release_one(Status st = Status::ok()) {
    ASSERT_FALSE(pending.empty());
    auto p = std::move(pending.front());
    pending.pop_front();
    p.set(block::Completion{std::move(st), 0});
  }

  sim::Engine engine;
  std::shared_ptr<bool> stop = std::make_shared<bool>(false);
  bool manual = false;
  sim::Duration wire_ns = 100;
  std::vector<std::pair<block::Request, nvme::CidRange>> dispatched;
  std::deque<sim::Promise<block::Completion>> pending;
  std::unique_ptr<QpMultiplexer> mux;
};

ShareGrant make_grant(std::uint32_t tenant, nvme::CidRange range,
                      std::uint16_t weight = 1, std::uint32_t qos_iops = 0) {
  ShareGrant g;
  g.tenant = tenant;
  g.qid = 1;
  g.range = range;
  g.weight = weight;
  g.qos_iops = qos_iops;
  return g;
}

block::Request read_req(std::uint32_t nblocks) {
  block::Request r;
  r.op = block::Op::read;
  r.lba = 0;
  r.nblocks = nblocks;
  r.buffer_addr = 0x1000;
  return r;
}

TEST(MuxAttach, RejectsMalformedAndOverlappingGrants) {
  MuxHarness h;
  EXPECT_EQ(h.mux->attach_tenant(make_grant(1, nvme::CidRange{4, 4})).code(),
            Errc::invalid_argument);
  EXPECT_EQ(h.mux->attach_tenant(make_grant(1, nvme::CidRange{4, 8}, /*weight=*/0)).code(),
            Errc::invalid_argument);
  ASSERT_TRUE(h.mux->attach_tenant(make_grant(1, nvme::CidRange{4, 8})).is_ok());
  EXPECT_EQ(h.mux->attach_tenant(make_grant(1, nvme::CidRange{8, 12})).code(),
            Errc::already_exists);
  EXPECT_EQ(h.mux->attach_tenant(make_grant(2, nvme::CidRange{6, 10})).code(),
            Errc::invalid_argument)
      << "CID windows must stay disjoint";
  ASSERT_TRUE(h.mux->attach_tenant(make_grant(2, nvme::CidRange{8, 12})).is_ok());
  EXPECT_EQ(h.mux->tenant_count(), 2u);
  ASSERT_NE(h.mux->grant(1), nullptr);
  EXPECT_EQ(h.mux->grant(1)->range, (nvme::CidRange{4, 8}));
  EXPECT_EQ(h.mux->grant(99), nullptr);
}

TEST(MuxAttach, DetachRefusesBusyTenants) {
  MuxHarness h;
  h.manual = true;
  EXPECT_EQ(h.mux->detach_tenant(1).code(), Errc::not_found);
  ASSERT_TRUE(h.mux->attach_tenant(make_grant(1, nvme::CidRange{0, 4})).is_ok());

  auto f = h.mux->submit(1, read_req(1));
  h.engine.run();
  EXPECT_EQ(h.mux->tenant_backlog(1), 1u);
  EXPECT_EQ(h.mux->detach_tenant(1).code(), Errc::unavailable);

  h.release_one();
  h.engine.run();
  ASSERT_TRUE(f.ready());
  EXPECT_TRUE(f.try_take()->status.is_ok());
  EXPECT_EQ(h.mux->tenant_backlog(1), 0u);
  EXPECT_TRUE(h.mux->detach_tenant(1).is_ok());
  EXPECT_EQ(h.mux->tenant_count(), 0u);
}

TEST(MuxSubmit, UnknownTenantFailsTheCompletion) {
  MuxHarness h;
  auto f = h.mux->submit(7, read_req(1));
  h.engine.run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.try_take()->status.code(), Errc::not_found);
  EXPECT_TRUE(h.dispatched.empty());
}

TEST(MuxDrr, ServesTenantsProportionallyToWeight) {
  // Quantum 8 blocks, requests of 8 blocks: weight 1 earns one dequeue per
  // round, weight 2 earns two. The first submission dispatches eagerly
  // (the scheduler starts on demand); every later round must interleave
  // 1:2 regardless of ring depth.
  MuxHarness h;
  h.manual = true;  // hold completions so ring depth, not latency, drives DRR
  ASSERT_TRUE(h.mux->attach_tenant(make_grant(1, nvme::CidRange{0, 16}, 1)).is_ok());
  ASSERT_TRUE(h.mux->attach_tenant(make_grant(2, nvme::CidRange{16, 32}, 2)).is_ok());

  std::vector<sim::Future<block::Completion>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(h.mux->submit(1, read_req(8)));
  for (int i = 0; i < 12; ++i) futures.push_back(h.mux->submit(2, read_req(8)));
  h.engine.run();
  ASSERT_EQ(h.dispatched.size(), 18u);

  // Dispatch 0 is the eager one (tenant 1, the only backlogged ring then);
  // full rounds follow: one tenant-1 dequeue then two tenant-2 dequeues.
  EXPECT_EQ(h.dispatched[0].second, (nvme::CidRange{0, 16}));
  for (int round = 0; round < 4; ++round) {
    const std::size_t base = 1 + 3 * static_cast<std::size_t>(round);
    EXPECT_EQ(h.dispatched[base].second, (nvme::CidRange{0, 16})) << "round " << round;
    EXPECT_EQ(h.dispatched[base + 1].second, (nvme::CidRange{16, 32})) << "round " << round;
    EXPECT_EQ(h.dispatched[base + 2].second, (nvme::CidRange{16, 32})) << "round " << round;
  }
  EXPECT_GT(h.mux->stats().drr_rounds.value(), 0u);

  while (!h.pending.empty()) h.release_one();
  h.engine.run();
  for (auto& f : futures) {
    ASSERT_TRUE(f.ready());
    EXPECT_TRUE(f.try_take()->status.is_ok());
  }
  EXPECT_EQ(h.mux->stats().completed_cmds.value(), 18u);
}

TEST(MuxQos, TokenBucketPacesATenantToItsGrantedRate) {
  QpMultiplexer::Config cfg;
  cfg.qos_burst_cmds = 1;
  MuxHarness h(cfg);
  ASSERT_TRUE(
      h.mux->attach_tenant(make_grant(1, nvme::CidRange{0, 8}, 1, /*qos_iops=*/1000)).is_ok());

  std::vector<sim::Future<block::Completion>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(h.mux->submit(1, read_req(1)));
  h.engine.run();
  for (auto& f : futures) {
    ASSERT_TRUE(f.ready());
    EXPECT_TRUE(f.try_take()->status.is_ok());
  }
  // One command rides the burst; four wait a full 1 ms token each.
  EXPECT_EQ(h.mux->stats().deferred_cmds.value(), 4u);
  EXPECT_GE(h.mux->stats().throttle_ns.value(), 4'000'000u);
  EXPECT_GE(h.engine.now(), 4'000'000);
  EXPECT_LT(h.engine.now(), 4'010'000) << "pacing must not overshoot by a token";
}

TEST(MuxWindow, CidRangeCapsTenantInflight) {
  MuxHarness h;
  h.manual = true;
  ASSERT_TRUE(h.mux->attach_tenant(make_grant(1, nvme::CidRange{0, 2})).is_ok());

  std::vector<sim::Future<block::Completion>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(h.mux->submit(1, read_req(1)));
  h.engine.run();
  EXPECT_EQ(h.dispatched.size(), 2u) << "a 2-CID share holds at most 2 in flight";
  EXPECT_EQ(h.mux->tenant_backlog(1), 5u);

  h.release_one();
  h.engine.run();
  EXPECT_EQ(h.dispatched.size(), 3u) << "a completion frees one window slot";

  while (!h.pending.empty()) {
    h.release_one();
    h.engine.run();
  }
  for (auto& f : futures) {
    ASSERT_TRUE(f.ready());
    EXPECT_TRUE(f.try_take()->status.is_ok());
  }
  EXPECT_EQ(h.mux->tenant_backlog(1), 0u);
}

TEST(MuxStop, DrainResolvesStagedWorkAsAborted) {
  MuxHarness h;
  h.manual = true;
  ASSERT_TRUE(h.mux->attach_tenant(make_grant(1, nvme::CidRange{0, 1})).is_ok());

  auto wired = h.mux->submit(1, read_req(1));
  auto staged_a = h.mux->submit(1, read_req(1));
  auto staged_b = h.mux->submit(1, read_req(1));
  h.engine.run();
  ASSERT_EQ(h.dispatched.size(), 1u);

  *h.stop = true;
  h.mux->kick();
  h.engine.run();
  ASSERT_TRUE(staged_a.ready() && staged_b.ready());
  EXPECT_EQ(staged_a.try_take()->status.code(), Errc::aborted);
  EXPECT_EQ(staged_b.try_take()->status.code(), Errc::aborted);
  EXPECT_EQ(h.mux->stats().aborted_cmds.value(), 2u);

  // The command already on the wire still completes normally.
  h.release_one();
  h.engine.run();
  ASSERT_TRUE(wired.ready());
  EXPECT_TRUE(wired.try_take()->status.is_ok());

  // New work is refused at the door once stopped.
  auto late = h.mux->submit(1, read_req(1));
  h.engine.run();
  ASSERT_TRUE(late.ready());
  EXPECT_EQ(late.try_take()->status.code(), Errc::aborted);
}

TEST(MuxStop, DestructionAbortsStagedAndSurvivesParkedCoroutines) {
  MuxHarness h;
  h.manual = true;
  ASSERT_TRUE(h.mux->attach_tenant(make_grant(1, nvme::CidRange{0, 1})).is_ok());

  auto wired = h.mux->submit(1, read_req(1));
  auto staged = h.mux->submit(1, read_req(1));
  h.engine.run();  // scheduler parks with one command on the wire
  ASSERT_EQ(h.dispatched.size(), 1u);

  h.mux.reset();  // destroys the mux under a parked scheduler + live dispatch
  ASSERT_TRUE(staged.ready());
  EXPECT_EQ(staged.try_take()->status.code(), Errc::aborted);

  // The orphaned wire completion resolves the submitter without touching
  // the destroyed multiplexer.
  h.release_one();
  h.engine.run();
  ASSERT_TRUE(wired.ready());
  EXPECT_TRUE(wired.try_take()->status.is_ok());
}

TEST(MuxDevice, TenantDeviceMirrorsGeometryAndWindow) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  driver::Client::ShareRequest req;
  req.tenant = 3;
  req.cid_count = 4;
  auto grant = tb.wait(stack->client->create_share(req));
  ASSERT_TRUE(grant.has_value()) << grant.status().to_string();

  mux::TenantDevice dev(*stack->client->multiplexer(), *stack->client, 3);
  EXPECT_EQ(dev.name(), std::string(stack->client->name()) + "-t3");
  EXPECT_EQ(dev.block_size(), stack->client->block_size());
  EXPECT_EQ(dev.capacity_blocks(), stack->client->capacity_blocks());
  EXPECT_EQ(dev.max_queue_depth(), 4u);
}

// --- sharding ----------------------------------------------------------------

/// Records every sub-request and completes it immediately (optionally with
/// an injected error), so tests can check the split arithmetic exactly.
class FakeDisk final : public block::BlockDevice {
 public:
  FakeDisk(sim::Engine& engine, std::string name, std::uint64_t capacity)
      : engine_(engine), name_(std::move(name)), capacity_(capacity) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::uint32_t block_size() const override { return 512; }
  [[nodiscard]] std::uint64_t capacity_blocks() const override { return capacity_; }
  [[nodiscard]] std::uint32_t max_queue_depth() const override { return 8; }
  [[nodiscard]] std::uint64_t max_transfer_bytes() const override { return 1 << 20; }

  sim::Future<block::Completion> submit(const block::Request& request) override {
    log.push_back(request);
    sim::Promise<block::Completion> p(engine_);
    auto f = p.future();
    p.set(block::Completion{fail, 10});
    return f;
  }

  std::vector<block::Request> log;
  Status fail = Status::ok();

 private:
  sim::Engine& engine_;
  std::string name_;
  std::uint64_t capacity_;
};

block::Completion shard_io(sim::Engine& engine, block::BlockDevice& dev,
                           const block::Request& req) {
  auto f = dev.submit(req);
  engine.run();
  auto done = f.try_take();
  EXPECT_TRUE(done.has_value());
  return done ? *done : block::Completion{Status(Errc::internal, "no completion"), 0};
}

TEST(Sharding, StripeArithmeticRoundRobinsChunks) {
  sim::Engine engine;
  FakeDisk a(engine, "a", 64), b(engine, "b", 70);
  block::ShardedDevice dev(engine, {&a, &b}, {.stripe_blocks = 4});

  EXPECT_EQ(dev.shard_count(), 2u);
  EXPECT_EQ(dev.shard_of(0), 0u);
  EXPECT_EQ(dev.shard_of(3), 0u);
  EXPECT_EQ(dev.shard_of(4), 1u);
  EXPECT_EQ(dev.shard_of(8), 0u);
  EXPECT_EQ(dev.local_lba(3), 3u);
  EXPECT_EQ(dev.local_lba(4), 0u);
  EXPECT_EQ(dev.local_lba(8), 4u);
  EXPECT_EQ(dev.local_lba(11), 7u);
  // 70 blocks truncate to 16 whole chunks; capacity spans both shards.
  EXPECT_EQ(dev.capacity_blocks(), 2u * 16 * 4);
  EXPECT_EQ(dev.max_queue_depth(), 16u);
}

TEST(Sharding, StraddlingRequestSplitsWithBufferAdvance) {
  sim::Engine engine;
  FakeDisk a(engine, "a", 64), b(engine, "b", 64);
  block::ShardedDevice dev(engine, {&a, &b}, {.stripe_blocks = 4});

  block::Request req;
  req.op = block::Op::read;
  req.lba = 2;
  req.nblocks = 8;
  req.buffer_addr = 0x1000;
  auto done = shard_io(engine, dev, req);
  ASSERT_TRUE(done.status.is_ok()) << done.status.to_string();

  // lba 2..3 -> shard a chunk 0; 4..7 -> shard b chunk 0; 8..9 -> shard a
  // chunk 1. The buffer cursor advances by each piece's byte length.
  ASSERT_EQ(a.log.size(), 2u);
  ASSERT_EQ(b.log.size(), 1u);
  EXPECT_EQ(a.log[0].lba, 2u);
  EXPECT_EQ(a.log[0].nblocks, 2u);
  EXPECT_EQ(a.log[0].buffer_addr, 0x1000u);
  EXPECT_EQ(b.log[0].lba, 0u);
  EXPECT_EQ(b.log[0].nblocks, 4u);
  EXPECT_EQ(b.log[0].buffer_addr, 0x1000u + 2 * 512);
  EXPECT_EQ(a.log[1].lba, 4u);
  EXPECT_EQ(a.log[1].nblocks, 2u);
  EXPECT_EQ(a.log[1].buffer_addr, 0x1000u + 6 * 512);
  EXPECT_EQ(dev.stats().splits.value(), 1u);
  EXPECT_EQ(dev.stats().sub_requests.value(), 3u);
}

TEST(Sharding, FlushFansOutToEveryShard) {
  sim::Engine engine;
  FakeDisk a(engine, "a", 64), b(engine, "b", 64), c(engine, "c", 64);
  block::ShardedDevice dev(engine, {&a, &b, &c}, {.stripe_blocks = 4});

  block::Request req;
  req.op = block::Op::flush;
  auto done = shard_io(engine, dev, req);
  EXPECT_TRUE(done.status.is_ok());
  EXPECT_EQ(a.log.size(), 1u);
  EXPECT_EQ(b.log.size(), 1u);
  EXPECT_EQ(c.log.size(), 1u);
  EXPECT_EQ(dev.stats().flush_fanout.value(), 3u);
}

TEST(Sharding, SubErrorSurfacesInTheMergedStatus) {
  sim::Engine engine;
  FakeDisk a(engine, "a", 64), b(engine, "b", 64);
  b.fail = Status(Errc::io_error, "shard b is unhappy");
  block::ShardedDevice dev(engine, {&a, &b}, {.stripe_blocks = 4});

  block::Request req;
  req.op = block::Op::write;
  req.lba = 0;
  req.nblocks = 8;  // one piece per shard
  req.buffer_addr = 0x2000;
  auto done = shard_io(engine, dev, req);
  EXPECT_EQ(done.status.code(), Errc::io_error);
  EXPECT_EQ(dev.stats().sub_errors.value(), 1u);
}

TEST(Sharding, WrappingLbaReachesNoShard) {
  // lba + nblocks wraps past UINT64_MAX. It used to pass validation, and
  // the split sent a 2-block write to LBA 0 of shard 0.
  sim::Engine engine;
  FakeDisk a(engine, "a", 64), b(engine, "b", 64);
  block::ShardedDevice dev(engine, {&a, &b}, {.stripe_blocks = 4});

  block::Request req;
  req.op = block::Op::write;
  req.lba = UINT64_MAX - 1;
  req.nblocks = 4;
  req.buffer_addr = 0x2000;
  auto done = shard_io(engine, dev, req);
  EXPECT_EQ(done.status.code(), Errc::out_of_range) << done.status.to_string();
  EXPECT_TRUE(a.log.empty());
  EXPECT_TRUE(b.log.empty());
}

TEST(Sharding, ValidatesAgainstTheFederatedGeometry) {
  sim::Engine engine;
  FakeDisk a(engine, "a", 64), b(engine, "b", 64);
  block::ShardedDevice dev(engine, {&a, &b}, {.stripe_blocks = 4});

  block::Request req;
  req.op = block::Op::read;
  req.lba = dev.capacity_blocks() - 1;
  req.nblocks = 2;  // runs off the end of the federated namespace
  req.buffer_addr = 0x3000;
  auto done = shard_io(engine, dev, req);
  EXPECT_FALSE(done.status.is_ok());
  EXPECT_TRUE(a.log.empty());
  EXPECT_TRUE(b.log.empty());
}

// --- driver-level share lifecycle (mailbox v6) -------------------------------

TEST(MuxStack, SharesGetDisjointWindowsAboveTheOwnerFloor) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);  // queue_entries 64, queue_depth 32
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  driver::Client::ShareRequest req;
  req.tenant = 1;
  req.cid_count = 8;
  auto g1 = tb.wait(stack->client->create_share(req));
  ASSERT_TRUE(g1.has_value()) << g1.status().to_string();
  req.tenant = 2;
  auto g2 = tb.wait(stack->client->create_share(req));
  ASSERT_TRUE(g2.has_value()) << g2.status().to_string();

  // Tenant windows live in [queue_depth, queue_entries) and never overlap
  // each other or the owner's reserved floor.
  for (const auto& g : {*g1, *g2}) {
    EXPECT_GE(g.range.lo, 32u);
    EXPECT_LE(g.range.hi, 64u);
    EXPECT_EQ(g.range.count(), 8u);
  }
  EXPECT_FALSE(g1->range.overlaps(g2->range));
  ASSERT_NE(stack->client->multiplexer(), nullptr);
  EXPECT_EQ(stack->client->multiplexer()->tenant_count(), 2u);

  // The owner's own traffic keeps flowing below the floor.
  write_read_verify(tb, *stack->client, 1, 500, 4096, 0x0A11);
}

TEST(MuxStack, TenantIoRoundTripsThroughTheMultiplexer) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  driver::Client::ShareRequest req;
  req.tenant = 11;
  req.cid_count = 8;
  auto grant = tb.wait(stack->client->create_share(req));
  ASSERT_TRUE(grant.has_value()) << grant.status().to_string();

  mux::TenantDevice dev(*stack->client->multiplexer(), *stack->client, 11);
  write_read_verify(tb, dev, 1, 64, 4096, 0x7E47);
  const auto& stats = stack->client->multiplexer()->stats();
  EXPECT_GE(stats.completed_cmds.value(), 2u);
  EXPECT_EQ(stats.aborted_cmds.value(), 0u);
}

TEST(MuxStack, ShardedNamespaceOverTwoTenantShares) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  driver::Client::ShareRequest req;
  req.cid_count = 8;
  req.tenant = 1;
  ASSERT_TRUE(tb.wait(stack->client->create_share(req)).has_value());
  req.tenant = 2;
  ASSERT_TRUE(tb.wait(stack->client->create_share(req)).has_value());

  mux::TenantDevice t1(*stack->client->multiplexer(), *stack->client, 1);
  mux::TenantDevice t2(*stack->client->multiplexer(), *stack->client, 2);
  block::ShardedDevice ns(tb.engine(), {&t1, &t2}, {.stripe_blocks = 4});

  // Both shards back onto the *same* physical namespace here, so their
  // local LBA spaces alias each other; content checks must stay inside one
  // chunk (a single shard). Real deployments shard across distinct
  // controllers (bench/fig13_tenants.cpp) where the spaces are disjoint.
  write_read_verify(tb, ns, 1, 8, 2048, 0x5A5A);   // chunk 2: tenant 1 only
  write_read_verify(tb, ns, 1, 12, 2048, 0xA5A5);  // chunk 3: tenant 2 only

  // A straddling request splits across both tenant shares and completes.
  const std::uint64_t buf = alloc_pattern_buffer(tb, 1, 4096, 0x77);
  block::Request span;
  span.op = block::Op::read;
  span.lba = 6;
  span.nblocks = 8;
  span.buffer_addr = buf;
  auto done = do_io(tb, ns, span);
  ASSERT_TRUE(done.has_value()) << done.status().to_string();
  EXPECT_TRUE(done->status.is_ok()) << done->status.to_string();
  (void)tb.cluster().free_dram(1, buf);
  EXPECT_GE(ns.stats().splits.value(), 1u);
  EXPECT_GE(stack->client->multiplexer()->stats().completed_cmds.value(), 7u);
}

TEST(MuxStack, ShareLifecycleErrors) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  driver::Client::ShareRequest req;
  req.tenant = 1;
  req.cid_count = 0;
  auto bad = tb.wait(stack->client->create_share(req));
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.status().code(), Errc::invalid_argument);

  Status missing = tb.wait_status(stack->client->delete_share(42), 30_s);
  EXPECT_EQ(missing.code(), Errc::not_found);

  // One tenant claims the whole tenant CID space [32, 64); the next share
  // has nowhere to live until the first is deleted.
  req.cid_count = 32;
  auto hog = tb.wait(stack->client->create_share(req));
  ASSERT_TRUE(hog.has_value()) << hog.status().to_string();
  EXPECT_EQ(hog->range.count(), 32u);

  req.tenant = 2;
  req.cid_count = 8;
  auto crowded = tb.wait(stack->client->create_share(req));
  ASSERT_FALSE(crowded.has_value());
  EXPECT_EQ(crowded.status().code(), Errc::resource_exhausted);

  ASSERT_TRUE(tb.wait_status(stack->client->delete_share(1), 30_s).is_ok());
  auto retry = tb.wait(stack->client->create_share(req));
  ASSERT_TRUE(retry.has_value()) << retry.status().to_string();
  EXPECT_EQ(stack->client->multiplexer()->tenant_count(), 1u);
}

TEST(MuxStack, ReGrantMovesATenantIdempotently) {
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  driver::Client::ShareRequest req;
  req.tenant = 5;
  req.cid_count = 8;
  auto first = tb.wait(stack->client->create_share(req));
  ASSERT_TRUE(first.has_value());
  req.cid_count = 4;
  auto second = tb.wait(stack->client->create_share(req));
  ASSERT_TRUE(second.has_value()) << second.status().to_string();
  EXPECT_EQ(second->range.count(), 4u);
  EXPECT_EQ(stack->client->multiplexer()->tenant_count(), 1u);
  ASSERT_NE(stack->client->multiplexer()->grant(5), nullptr);
  EXPECT_EQ(stack->client->multiplexer()->grant(5)->range, second->range);
}

TEST(MuxStack, MultiChannelClientsRefuseShares) {
  Testbed tb(small_testbed(2));
  driver::Client::Config cc;
  cc.channels = 2;
  cc.queue_depth = 8;
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  driver::Client::ShareRequest req;
  req.tenant = 1;
  auto grant = tb.wait(stack->client->create_share(req));
  ASSERT_FALSE(grant.has_value());
  EXPECT_EQ(grant.status().code(), Errc::unsupported)
      << "a share pins CIDs of one specific queue pair";
}

}  // namespace
}  // namespace nvmeshare
