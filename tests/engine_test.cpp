// Unit and integration tests for the shared multi-queue I/O engine
// (block::IoEngine): attach-time config validation, queue-pair scheduling
// policies, drain-to-survivors during channel recovery, doorbell
// coalescing, per-channel metrics, the request lifecycle's verify retry,
// multi-channel operation through the full distributed-driver and NVMe-oF
// stacks, and every backend destroyed in the middle of a request.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "block/io_engine.hpp"
#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace nvmeshare::block {
namespace {

using namespace testutil;

// --- config validation (shared by all three backends) -----------------------

TEST(EngineValidate, AcceptsSaneConfigs) {
  IoEngine::Config cfg;
  cfg.channels = 4;
  cfg.queue_depth = 8;
  cfg.queue_entries = 64;
  EXPECT_TRUE(IoEngine::validate(cfg).is_ok());

  cfg.queue_depth = 63;  // largest legal depth for a 64-entry ring
  EXPECT_TRUE(IoEngine::validate(cfg).is_ok());

  cfg.queue_entries = 0;  // message transports: no ring constraint
  cfg.queue_depth = 1024;
  EXPECT_TRUE(IoEngine::validate(cfg).is_ok());
}

TEST(EngineValidate, RejectsDepthNotBelowRingSize) {
  // depth == entries makes SQ-full indistinguishable from SQ-empty on wrap.
  IoEngine::Config cfg;
  cfg.queue_entries = 64;
  cfg.queue_depth = 64;
  Status st = IoEngine::validate(cfg);
  EXPECT_EQ(st.code(), Errc::invalid_argument);

  cfg.queue_depth = 65;
  EXPECT_EQ(IoEngine::validate(cfg).code(), Errc::invalid_argument);
}

TEST(EngineValidate, RejectsDegenerateShapes) {
  IoEngine::Config cfg;
  cfg.channels = 0;
  EXPECT_EQ(IoEngine::validate(cfg).code(), Errc::invalid_argument);
  cfg.channels = kMaxEngineChannels + 1;
  EXPECT_EQ(IoEngine::validate(cfg).code(), Errc::invalid_argument);
  cfg.channels = 1;
  cfg.queue_depth = 0;
  EXPECT_EQ(IoEngine::validate(cfg).code(), Errc::invalid_argument);
}

TEST(EngineValidate, ClientAttachRejectsDepthEqualToEntries) {
  // The regression this guards: pre-engine code accepted depth == entries
  // and wedged the ring at full load. Now it is a config error at attach.
  Testbed tb(small_testbed(2));
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(manager.has_value());

  driver::Client::Config cc;
  cc.queue_entries = 64;
  cc.queue_depth = 64;
  auto client = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), cc));
  ASSERT_FALSE(client.has_value());
  EXPECT_EQ(client.status().code(), Errc::invalid_argument);
}

TEST(EngineValidate, LocalDriverRejectsDepthEqualToEntries) {
  Testbed tb(small_testbed(2));
  driver::LocalDriver::Config dc;
  dc.queue_entries = 32;
  dc.queue_depth = 32;
  auto drv = tb.wait(
      driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), nullptr, dc));
  ASSERT_FALSE(drv.has_value());
  EXPECT_EQ(drv.status().code(), Errc::invalid_argument);
}

TEST(EngineValidate, InitiatorRejectsChannelCountOutOfRange) {
  Testbed tb(small_testbed(2));
  auto target = tb.wait(nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(),
                                              tb.network(), {}));
  ASSERT_TRUE(target.has_value());

  nvmeof::Initiator::Config ic;
  ic.channels = kMaxEngineChannels + 1;
  auto init = tb.wait(
      nvmeof::Initiator::connect(tb.cluster(), tb.network(), **target, 1, ic));
  ASSERT_FALSE(init.has_value());
  EXPECT_EQ(init.status().code(), Errc::invalid_argument);
}

// --- engine unit tests over a fake transport --------------------------------

/// Minimal transport: tokens count up per channel, rings are counted, and
/// (when armed) completions land a fixed delay after the doorbell.
class FakeTransport final : public IoTransport {
 public:
  FakeTransport(sim::Engine& engine, std::uint32_t channels)
      : engine_(engine), issued_(channels), rings_(channels) {}

  void attach(IoEngine* eng) { engine_io_ = eng; }
  void set_auto_complete(bool on) { auto_complete_ = on; }

  /// The next `n` settles report a data mismatch (a failed read verify).
  void fail_verifies(std::uint32_t n) { verify_failures_ = n; }

  Step settle(const Command& cmd, const CmdOutcome& outcome) override {
    (void)cmd;
    (void)outcome;
    if (verify_failures_ == 0) return {};
    --verify_failures_;
    Step step = Status(Errc::io_error, "verify failed");
    step.mismatch = true;
    return step;
  }

  Result<std::uint16_t> issue(std::uint32_t chan, const Command* cmd) override {
    (void)cmd;
    issue_times_.push_back(engine_.now());
    const auto token = static_cast<std::uint16_t>(issued_[chan].size());
    issued_[chan].push_back(token);
    staged_.push_back({chan, token});
    return token;
  }

  Status ring(std::uint32_t chan) override {
    ++rings_[chan];
    if (auto_complete_) {
      for (const auto& [c, token] : staged_) {
        if (c != chan) continue;
        engine_.after(100, [this, c = c, token = token]() {
          (void)engine_io_->complete(c, token, 0);
        });
      }
    }
    std::erase_if(staged_, [chan](const auto& s) { return s.first == chan; });
    return Status::ok();
  }

  [[nodiscard]] bool retryable(std::uint16_t) const override { return false; }
  void start_recovery(std::uint32_t chan) override { recoveries_.push_back(chan); }
  [[nodiscard]] std::uint16_t trace_qid(std::uint32_t chan) const override {
    return static_cast<std::uint16_t>(chan + 1);
  }

  std::uint64_t rings(std::uint32_t chan) const { return rings_[chan]; }
  const std::vector<std::uint32_t>& recoveries() const { return recoveries_; }
  const std::vector<sim::Time>& issue_times() const { return issue_times_; }

 private:
  sim::Engine& engine_;
  IoEngine* engine_io_ = nullptr;
  bool auto_complete_ = false;
  std::uint32_t verify_failures_ = 0;
  std::vector<sim::Time> issue_times_;
  std::vector<std::vector<std::uint16_t>> issued_;
  std::vector<std::uint64_t> rings_;
  std::vector<std::pair<std::uint32_t, std::uint16_t>> staged_;
  std::vector<std::uint32_t> recoveries_;
};

struct EngineHarness {
  explicit EngineHarness(IoEngine::Config cfg)
      : transport(engine, cfg.channels),
        io(engine, transport, std::make_shared<bool>(false), std::move(cfg)) {
    transport.attach(&io);
  }
  sim::Engine engine;
  FakeTransport transport;
  IoEngine io;
};

std::vector<IoEngine::Grant> acquire_n(EngineHarness& h, std::uint32_t n) {
  std::vector<sim::Future<IoEngine::Grant>> futures;
  for (std::uint32_t i = 0; i < n; ++i) futures.push_back(h.io.acquire());
  h.engine.run();
  std::vector<IoEngine::Grant> grants;
  for (auto& f : futures) {
    auto g = f.try_take();
    EXPECT_TRUE(g.has_value());
    if (g) grants.push_back(*g);
  }
  return grants;
}

TEST(EngineScheduler, RoundRobinSpreadsGrantsEvenly) {
  IoEngine::Config cfg;
  cfg.channels = 4;
  cfg.queue_depth = 4;
  EngineHarness h(cfg);

  auto grants = acquire_n(h, 8);
  ASSERT_EQ(grants.size(), 8u);
  for (std::uint32_t c = 0; c < 4; ++c) EXPECT_EQ(h.io.inflight(c), 2u);
  // Global slot ids are channel-disjoint: chan * depth + local.
  for (const auto& g : grants) EXPECT_EQ(g.slot / cfg.queue_depth, g.chan);
}

TEST(EngineRecovery, DrainsToSurvivorsWhileOneChannelRebuilds) {
  IoEngine::Config cfg;
  cfg.channels = 4;
  cfg.queue_depth = 2;
  cfg.cmd_timeout_ns = 1'000;
  cfg.cmd_retry_limit = 1;
  cfg.retry_backoff_ns = 100;
  EngineHarness h(cfg);

  // One command on channel 0 that never completes: the deadline watchdog
  // fires, the retry budget burns down, and the engine asks the transport
  // to rebuild the channel. The fake leaves it mid-recovery.
  auto grants = acquire_n(h, 1);
  ASSERT_EQ(grants.size(), 1u);
  ASSERT_EQ(grants[0].chan, 0u);
  auto doomed = sim::spawn(h.engine, h.io.run({grants[0]}));
  h.engine.run();
  ASSERT_EQ(h.transport.recoveries().size(), 1u);
  EXPECT_EQ(h.transport.recoveries()[0], 0u);
  EXPECT_TRUE(h.io.recovering(0));
  EXPECT_FALSE(doomed.ready()) << "command must wait for the rebuilt channel";

  // While channel 0 rebuilds, every new grant lands on a survivor.
  auto survivors = acquire_n(h, 6);
  ASSERT_EQ(survivors.size(), 6u);
  for (const auto& g : survivors) EXPECT_NE(g.chan, 0u);

  // Recovery finishes; the parked command re-issues and (with completions
  // now flowing) resolves.
  h.transport.set_auto_complete(true);
  h.io.finish_recovery(0);
  h.engine.run();
  EXPECT_FALSE(h.io.recovering(0));
  auto outcome = doomed.try_take();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok());
}

TEST(EngineDoorbell, CoalescingRingsOncePerBurst) {
  IoEngine::Config cfg;
  cfg.channels = 1;
  cfg.queue_depth = 8;
  cfg.coalesce_doorbells = true;
  EngineHarness h(cfg);
  h.transport.set_auto_complete(true);

  auto grants = acquire_n(h, 4);
  ASSERT_EQ(grants.size(), 4u);
  std::vector<sim::Future<CmdOutcome>> cmds;
  for (const auto& g : grants) cmds.push_back(sim::spawn(h.engine, h.io.run({g})));
  h.engine.run();
  for (auto& c : cmds) {
    auto out = c.try_take();
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(out->ok());
  }
  // Four submissions in one doorbell-latency window share a single ring.
  EXPECT_EQ(h.transport.rings(0), 1u);
  EXPECT_EQ(h.io.doorbell_writes(), 1u);
  EXPECT_EQ(h.io.coalesced_cmds(), 4u);
}

TEST(EngineDoorbell, WithoutCoalescingEveryCommandRings) {
  IoEngine::Config cfg;
  cfg.channels = 1;
  cfg.queue_depth = 8;
  EngineHarness h(cfg);
  h.transport.set_auto_complete(true);

  auto grants = acquire_n(h, 4);
  std::vector<sim::Future<CmdOutcome>> cmds;
  for (const auto& g : grants) cmds.push_back(sim::spawn(h.engine, h.io.run({g})));
  h.engine.run();
  for (auto& c : cmds) {
    auto out = c.try_take();
    ASSERT_TRUE(out.has_value() && out->ok());
  }
  EXPECT_EQ(h.transport.rings(0), 4u);
  EXPECT_EQ(h.io.doorbell_writes(), 4u);
}

// --- multi-channel operation through the real stacks ------------------------

TEST(EngineStack, ClientMultiChannelRoundTrips) {
  Testbed tb(small_testbed(2));
  driver::Client::Config cc;
  cc.channels = 4;
  cc.queue_depth = 8;
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  // Four distinct queue pairs were granted in one mailbox batch.
  std::vector<std::uint16_t> qids;
  for (std::uint32_t c = 0; c < 4; ++c) {
    qids.push_back(stack->client->qid(c));
    EXPECT_NE(qids.back(), 0u);
  }
  std::sort(qids.begin(), qids.end());
  EXPECT_EQ(std::unique(qids.begin(), qids.end()), qids.end());
  EXPECT_EQ(stack->manager->active_queue_pairs(), 5u);  // 4 I/O + admin

  for (int i = 0; i < 4; ++i) {
    write_read_verify(tb, *stack->client, 1, 1000 + 64 * i, 4096,
                      0x5EED + static_cast<std::uint64_t>(i));
  }

  // Per-channel engine metrics exist under the satellite naming scheme.
  const std::string snapshot = obs::Registry::global().to_json();
  for (int c = 0; c < 4; ++c) {
    const std::string prefix = "nvmeshare.engine.client.qp" + std::to_string(c);
    EXPECT_NE(snapshot.find(prefix + ".doorbell_writes"), std::string::npos) << prefix;
    EXPECT_NE(snapshot.find(prefix + ".coalesced_cmds"), std::string::npos) << prefix;
    EXPECT_NE(snapshot.find(prefix + ".inflight"), std::string::npos) << prefix;
  }

  Status st = tb.wait_status(stack->client->detach(), 30_s);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(stack->manager->active_queue_pairs(), 1u);  // batch delete worked
}

TEST(EngineStack, InitiatorMultiChannelRoundTrips) {
  Testbed tb(small_testbed(2));
  auto target = tb.wait(nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(),
                                              tb.network(), {}));
  ASSERT_TRUE(target.has_value());

  nvmeof::Initiator::Config ic;
  ic.channels = 4;
  ic.queue_depth = 8;
  ic.coalesce_doorbells = true;
  auto init = tb.wait(
      nvmeof::Initiator::connect(tb.cluster(), tb.network(), **target, 1, ic));
  ASSERT_TRUE(init.has_value()) << init.status().to_string();

  EXPECT_EQ((*init)->max_queue_depth(), 32u);
  for (int i = 0; i < 4; ++i) {
    write_read_verify(tb, **init, 1, 3000 + 64 * i, 4096,
                      0xFAB0 + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ((*target)->stats().errors, 0u);
}

TEST(EngineStack, ClientCoalescedDoorbellsUnderConcurrency) {
  Testbed tb(small_testbed(2));
  driver::Client::Config cc;
  cc.channels = 2;
  cc.queue_depth = 8;
  cc.coalesce_doorbells = true;
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randread;
  spec.ops = 600;
  spec.queue_depth = 16;
  spec.seed = 42;
  auto result = tb.wait(workload::run_job(tb.cluster(), *stack->client, 1, spec), 300_s);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->errors, 0u);

  const auto& io = stack->client->io_engine();
  EXPECT_EQ(io.coalesced_cmds(), 600u);
  EXPECT_LT(io.doorbell_writes(), 600u)
      << "sustained QD16 load must ring less than once per command";
}

// --- retry backoff arithmetic -----------------------------------------------

TEST(EngineBackoff, DoublesPerAttemptUpToTheClamp) {
  EXPECT_EQ(IoEngine::backoff_ns(1000, 1), 1000);
  EXPECT_EQ(IoEngine::backoff_ns(1000, 2), 2000);
  EXPECT_EQ(IoEngine::backoff_ns(1000, 3), 4000);
  EXPECT_EQ(IoEngine::backoff_ns(1000, 0), 1000);  // attempt 0 behaves like 1
  // The shift saturates at 10 doublings even for absurd attempt counts.
  EXPECT_EQ(IoEngine::backoff_ns(1000, 11), 1000 << 10);
  EXPECT_EQ(IoEngine::backoff_ns(1000, 200), 1000 << 10);
}

TEST(EngineBackoff, ClampsToMaxInsteadOfOverflowing) {
  // The regression this guards: base << 10 on a base near the int64 ceiling
  // wrapped sim::Duration negative and sim::delay treated it as "no wait",
  // turning backed-off retries into a hot spin.
  const sim::Duration huge = std::numeric_limits<sim::Duration>::max() / 2;
  EXPECT_EQ(IoEngine::backoff_ns(huge, 11, 100'000'000), 100'000'000);
  EXPECT_EQ(IoEngine::backoff_ns(huge, 1, 100'000'000), 100'000'000);
  // Clamp boundary: the doubling stops exactly where it would cross max.
  EXPECT_EQ(IoEngine::backoff_ns(1000, 4, 5000), 5000);   // 8000 -> clamped
  EXPECT_EQ(IoEngine::backoff_ns(1000, 3, 5000), 4000);   // still under
  EXPECT_EQ(IoEngine::backoff_ns(1000, 1, 500), 500);     // base above max
  EXPECT_EQ(IoEngine::backoff_ns(0, 5), 0);
  EXPECT_EQ(IoEngine::backoff_ns(1000, 5, 0), 0);
  EXPECT_GT(IoEngine::backoff_ns(huge, 11), 0)
      << "default clamp must keep the result positive";
}

// --- the shared post-completion verify retry ---------------------------------

/// A device for serve() to validate requests against.
class FakeDevice final : public BlockDevice {
 public:
  [[nodiscard]] std::string_view name() const override { return "fake"; }
  [[nodiscard]] std::uint32_t block_size() const override { return 512; }
  [[nodiscard]] std::uint64_t capacity_blocks() const override { return 1u << 20; }
  [[nodiscard]] std::uint32_t max_queue_depth() const override { return 4; }
  [[nodiscard]] std::uint64_t max_transfer_bytes() const override { return 128 * KiB; }
  sim::Future<Completion> submit(const Request&) override { return {}; }
};

struct VerifyRun {
  Completion completion;
  std::uint64_t retries = 0;
  std::vector<sim::Time> issue_times;
};

/// Serve one read whose verify fails `failures` times.
VerifyRun serve_with_failing_verify(std::uint32_t failures, sim::Duration timeout) {
  obs::Counter retries("test.engine.verify_retries");
  IoEngine::Config cfg;
  cfg.queue_entries = 8;
  cfg.queue_depth = 4;
  cfg.cmd_timeout_ns = timeout;
  cfg.cmd_retry_limit = 3;
  cfg.retry_backoff_ns = 1'000;
  cfg.counters.retries = &retries;
  EngineHarness h(cfg);
  h.transport.set_auto_complete(true);
  h.transport.fail_verifies(failures);
  FakeDevice device;
  auto done = h.io.serve(device, {Op::read, 0, 8, 0});
  h.engine.run();
  VerifyRun run;
  auto completion = done.try_take();
  EXPECT_TRUE(completion.has_value());
  if (completion) run.completion = *completion;
  run.retries = retries.value();
  run.issue_times = h.transport.issue_times();
  return run;
}

TEST(EngineVerify, MismatchRetriesWithDoublingBackoffUntilClean) {
  const sim::Duration attempt_ns = IoEngine::Config{}.doorbell_ns + 100;  // ring + completion
  for (std::uint32_t k = 1; k <= 3; ++k) {
    const VerifyRun run = serve_with_failing_verify(k, 1'000'000);
    EXPECT_TRUE(run.completion.status.is_ok()) << run.completion.status.to_string();
    EXPECT_EQ(run.retries, k);
    ASSERT_EQ(run.issue_times.size(), k + 1);
    for (std::uint32_t i = 1; i <= k; ++i) {
      EXPECT_EQ(run.issue_times[i] - run.issue_times[i - 1], attempt_ns + (1'000 << (i - 1)))
          << "k=" << k << " retry " << i;
    }
  }
}

TEST(EngineVerify, MismatchBeyondTheLimitFailsWithIoError) {
  const VerifyRun run = serve_with_failing_verify(4, 1'000'000);
  EXPECT_EQ(run.completion.status.code(), Errc::io_error);
  EXPECT_EQ(run.retries, 3u);
  EXPECT_EQ(run.issue_times.size(), 4u);
}

TEST(EngineVerify, ZeroTimeoutFailsTheFirstMismatchWithoutRetry) {
  const VerifyRun run = serve_with_failing_verify(1, 0);
  EXPECT_EQ(run.completion.status.code(), Errc::io_error);
  EXPECT_EQ(run.retries, 0u);
  EXPECT_EQ(run.issue_times.size(), 1u);
}

// --- QoS token-bucket pacer -------------------------------------------------

TEST(EngineQos, PacerDefersCommandsBeyondTheBurst) {
  IoEngine::Config cfg;
  cfg.channels = 1;
  cfg.queue_depth = 8;
  cfg.qos_iops_limit = 1000;  // 1 cmd per ms once the burst is spent
  cfg.qos_burst_cmds = 2;
  EngineHarness h(cfg);
  h.transport.set_auto_complete(true);

  ASSERT_TRUE(h.io.qos_enabled());
  auto grants = acquire_n(h, 6);
  ASSERT_EQ(grants.size(), 6u);
  std::vector<sim::Future<CmdOutcome>> outcomes;
  for (const auto& g : grants) outcomes.push_back(sim::spawn(h.engine, h.io.run({g})));
  h.engine.run();
  for (auto& f : outcomes) {
    auto o = f.try_take();
    ASSERT_TRUE(o.has_value());
    EXPECT_TRUE(o->ok());
  }
  // 2 commands ride the burst; the remaining 4 wait for refill tokens.
  EXPECT_EQ(h.io.qos_deferred_cmds(), 4u);
  EXPECT_GT(h.io.qos_throttle_ns(), 0u);
  // 4 deferred commands at 1/ms: the last one cannot finish before 4 ms.
  EXPECT_GE(h.engine.now(), 4'000'000);
}

TEST(EngineQos, PacerAdmitsExactlyRateTimesHorizonPlusBurst) {
  // The regression this guards: the refill path floor-divided the full-
  // bucket horizon, crediting a fraction of a token early on every wake-up.
  // Over a long run those fractions compounded into extra admitted
  // commands. At 1000 IOPS with a burst of 2, 502 commands must take at
  // least (502 - 2) / 1000 s of simulated time — not one token less.
  class CyclingTransport final : public IoTransport {
   public:
    CyclingTransport(sim::Engine& engine, std::uint16_t depth)
        : engine_(engine), depth_(depth) {}
    void attach(IoEngine* io) { io_ = io; }
    Result<std::uint16_t> issue(std::uint32_t, const Command*) override {
      const auto token = next_;
      next_ = static_cast<std::uint16_t>((next_ + 1) % depth_);
      staged_.push_back(token);
      return token;
    }
    Status ring(std::uint32_t chan) override {
      for (const auto token : staged_) {
        engine_.after(100, [this, chan, token]() { (void)io_->complete(chan, token, 0); });
      }
      staged_.clear();
      return Status::ok();
    }
    [[nodiscard]] bool retryable(std::uint16_t) const override { return false; }
    void start_recovery(std::uint32_t) override {}
    [[nodiscard]] std::uint16_t trace_qid(std::uint32_t chan) const override {
      return static_cast<std::uint16_t>(chan);
    }

   private:
    sim::Engine& engine_;
    IoEngine* io_ = nullptr;
    std::uint16_t depth_;
    std::uint16_t next_ = 0;
    std::vector<std::uint16_t> staged_;
  };

  IoEngine::Config cfg;
  cfg.channels = 1;
  cfg.queue_depth = 8;
  cfg.qos_iops_limit = 1000;
  cfg.qos_burst_cmds = 2;
  sim::Engine engine;
  CyclingTransport transport(engine, 8);
  IoEngine io(engine, transport, std::make_shared<bool>(false), cfg);
  transport.attach(&io);

  constexpr std::uint32_t kOps = 502;
  for (std::uint32_t i = 0; i < kOps; ++i) {
    auto grant_f = io.acquire();
    engine.run();
    auto grant = grant_f.try_take();
    ASSERT_TRUE(grant.has_value()) << "op " << i;
    auto outcome_f = sim::spawn(engine, io.run({*grant}));
    engine.run();
    auto o = outcome_f.try_take();
    ASSERT_TRUE(o.has_value()) << "op " << i;
    EXPECT_TRUE(o->ok());
    io.release(*grant);
  }
  EXPECT_EQ(io.qos_deferred_cmds(), kOps - cfg.qos_burst_cmds);
  // Lower bound: no early admission anywhere in the 500-token horizon.
  EXPECT_GE(engine.now(), 500'000'000);
  // Upper bound: ceil rounding costs less than one token per command.
  EXPECT_LT(engine.now(), 501'000'000);
}

// --- completion-token hygiene -------------------------------------------------

/// Transport that hands out an out-of-cap completion token: models the
/// "corrupt cid" transport bug the pending-table cap exists to contain.
class RogueTokenTransport final : public IoTransport {
 public:
  explicit RogueTokenTransport(std::uint16_t token) : token_(token) {}
  Result<std::uint16_t> issue(std::uint32_t, const Command*) override { return token_; }
  Status ring(std::uint32_t) override { return Status::ok(); }
  [[nodiscard]] bool retryable(std::uint16_t) const override { return false; }
  void start_recovery(std::uint32_t) override {}
  [[nodiscard]] std::uint16_t trace_qid(std::uint32_t chan) const override {
    return static_cast<std::uint16_t>(chan);
  }

 private:
  std::uint16_t token_;
};

TEST(EngineTokens, OutOfCapTokenFailsTheCommandInsteadOfGrowingTheTable) {
  // cap = max(queue_entries, total depth) = 8; token 0xFFF0 is a transport
  // bug. The old code resized the pending table to fit it (64 KiB of
  // pointers per corrupt cid); now the command fails as a transport error.
  IoEngine::Config cfg;
  cfg.channels = 1;
  cfg.queue_depth = 8;
  sim::Engine engine;
  RogueTokenTransport transport(0xFFF0);
  IoEngine io(engine, transport, std::make_shared<bool>(false), cfg);

  auto grant_f = io.acquire();
  engine.run();
  auto grant = grant_f.try_take();
  ASSERT_TRUE(grant.has_value());
  auto outcome_f = sim::spawn(engine, io.run({*grant}));
  engine.run();
  auto outcome = outcome_f.try_take();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_EQ(outcome->kind, CmdOutcome::Kind::transport_error);
  EXPECT_EQ(outcome->transport.code(), Errc::internal);
}

TEST(EngineTokens, StrayCompletionTokenIsANoOp) {
  // disarm()/complete() on a token the engine never armed (beyond the
  // table, or an already-empty slot) must neither crash nor underflow the
  // pending count; real traffic keeps flowing afterwards.
  IoEngine::Config cfg;
  cfg.channels = 1;
  cfg.queue_depth = 4;
  EngineHarness h(cfg);
  h.transport.set_auto_complete(true);

  (void)h.io.complete(0, 999, 0);  // beyond any table this config can grow
  (void)h.io.complete(0, 0, 0);    // in range, but nothing armed
  h.engine.run();

  auto grants = acquire_n(h, 2);
  ASSERT_EQ(grants.size(), 2u);
  std::vector<sim::Future<CmdOutcome>> cmds;
  for (const auto& g : grants) cmds.push_back(sim::spawn(h.engine, h.io.run({g})));
  h.engine.run();
  for (auto& c : cmds) {
    auto out = c.try_take();
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(out->ok());
  }
}

TEST(EngineQos, DisarmedPacerLeavesTheStreamUntouched) {
  IoEngine::Config cfg;
  cfg.channels = 1;
  cfg.queue_depth = 8;
  EngineHarness h(cfg);
  h.transport.set_auto_complete(true);

  ASSERT_FALSE(h.io.qos_enabled());
  auto grants = acquire_n(h, 4);
  std::vector<sim::Future<CmdOutcome>> outcomes;
  for (const auto& g : grants) outcomes.push_back(sim::spawn(h.engine, h.io.run({g})));
  h.engine.run();
  EXPECT_EQ(h.io.qos_deferred_cmds(), 0u);
  EXPECT_EQ(h.io.qos_throttle_ns(), 0u);
}


// --- request lifetime: the backend destroyed mid-request -----------------------

enum class Backend { client_bounce, client_iommu, local, initiator };

struct LifetimeCase {
  Backend backend;
  Op op;
};

std::string lifetime_name(const testing::TestParamInfo<LifetimeCase>& info) {
  static const char* const kBackends[] = {"ClientBounce", "ClientIommu", "LocalDriver",
                                          "Initiator"};
  return std::string(kBackends[static_cast<int>(info.param.backend)]) +
         (info.param.op == Op::read ? "Read" : "Write");
}

class RequestLifetime : public testing::TestWithParam<LifetimeCase> {};

// One 4 KiB request; the backend is destroyed k x 250 ns after submit, then
// the simulation runs 1 ms more. Whatever the request was suspended in,
// nothing may touch the destroyed backend: no crash, and a future that
// resolves says ok or aborted. Stops at the first k where the request
// finished before the destroy.
TEST_P(RequestLifetime, DestroyedBackendAbortsOrLeavesRequestParked) {
  const LifetimeCase c = GetParam();
  bool finished_before_destroy = false;
  int k = 0;
  for (; !finished_before_destroy; ++k) {
    ASSERT_LT(k, 1000) << "request never finished";
    Testbed tb(small_testbed(2));
    std::unique_ptr<driver::Manager> manager;
    std::unique_ptr<nvmeof::Target> target;
    std::unique_ptr<BlockDevice> dev;
    sisci::NodeId node = 1;
    switch (c.backend) {
      case Backend::client_bounce:
      case Backend::client_iommu: {
        driver::Client::Config cc;
        if (c.backend == Backend::client_iommu) cc.data_path = driver::Client::DataPath::iommu;
        auto stack = bring_up(tb, 0, 1, cc);
        ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
        manager = std::move(stack->manager);
        dev = std::move(stack->client);
        break;
      }
      case Backend::local: {
        node = 0;
        auto drv = tb.wait(
            driver::LocalDriver::start(tb.cluster(), tb.nvme_endpoint(), &tb.irq(0), {}));
        ASSERT_TRUE(drv.has_value()) << drv.status().to_string();
        dev = std::move(*drv);
        break;
      }
      case Backend::initiator: {
        auto t = tb.wait(
            nvmeof::Target::start(tb.cluster(), tb.nvme_endpoint(), tb.network(), {}));
        ASSERT_TRUE(t.has_value()) << t.status().to_string();
        target = std::move(*t);
        auto in = tb.wait(nvmeof::Initiator::connect(tb.cluster(), tb.network(), *target, 1, {}));
        ASSERT_TRUE(in.has_value()) << in.status().to_string();
        dev = std::move(*in);
        break;
      }
    }
    auto buf = tb.cluster().alloc_dram(node, 4096, 4096);
    ASSERT_TRUE(buf.has_value());
    const auto nblocks = static_cast<std::uint32_t>(4096 / dev->block_size());
    auto done = dev->submit({c.op, 64, nblocks, *buf});
    tb.engine().run_until(tb.engine().now() + static_cast<sim::Duration>(k) * 250);
    finished_before_destroy = done.ready();
    dev.reset();
    tb.engine().run_until(tb.engine().now() + 1_ms);
    if (auto completion = done.try_take()) {
      const Errc code = completion->status.code();
      EXPECT_TRUE(code == Errc::ok || code == Errc::aborted)
          << "k=" << k << ": " << completion->status.to_string();
      if (finished_before_destroy) {
        EXPECT_EQ(code, Errc::ok);
      }
    }
  }
  // Every backend spends microseconds on a 4 KiB request, so the sweep
  // destroyed it at many points of its life.
  EXPECT_GT(k, 8);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RequestLifetime,
    testing::Values(LifetimeCase{Backend::client_bounce, Op::read},
                    LifetimeCase{Backend::client_bounce, Op::write},
                    LifetimeCase{Backend::client_iommu, Op::read},
                    LifetimeCase{Backend::client_iommu, Op::write},
                    LifetimeCase{Backend::local, Op::read},
                    LifetimeCase{Backend::local, Op::write},
                    LifetimeCase{Backend::initiator, Op::read},
                    LifetimeCase{Backend::initiator, Op::write}),
    lifetime_name);

}  // namespace
}  // namespace nvmeshare::block
