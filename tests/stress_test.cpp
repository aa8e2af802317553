// Soak / torture tests: long mixed workloads with verification while the
// control plane churns (clients detaching and re-attaching mid-flight),
// across randomized cluster shapes, plus seeded chaos soaks with the fault
// injector active. Anything that corrupts a byte, loses a completion, leaks
// a queue pair, or deadlocks the simulation fails here.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mux/mux.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

class StressSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressSweep, MixedWorkloadsWithControlPlaneChurn) {
  Rng rng(GetParam());
  const auto hosts = static_cast<std::uint32_t>(rng.uniform(3) + 3);  // 3..5
  Testbed tb(small_testbed(hosts));
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(manager.has_value());

  // Attach a client on every non-device host.
  std::vector<std::unique_ptr<driver::Client>> clients;
  for (sisci::NodeId n = 1; n < hosts; ++n) {
    driver::Client::Config cc;
    cc.queue_depth = static_cast<std::uint32_t>(rng.uniform(6) + 2);
    auto c = tb.wait(driver::Client::attach(tb.service(), n, tb.device_id(), cc));
    ASSERT_TRUE(c.has_value()) << c.status().to_string();
    clients.push_back(std::move(*c));
  }

  // Round 1: concurrent verified jobs on disjoint regions.
  std::vector<sim::Future<Result<workload::JobResult>>> jobs;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    workload::JobSpec spec;
    spec.pattern = workload::JobSpec::Pattern::randrw;
    spec.read_fraction = 0.4 + 0.2 * rng.uniform01();
    spec.ops = 200;
    spec.queue_depth = clients[i]->max_queue_depth();
    spec.verify = true;
    spec.seed = rng.next();
    spec.region_blocks = 32 * 1024;
    spec.region_offset_blocks = i * 64 * 1024;
    jobs.push_back(workload::run_job(tb.cluster(), *clients[i],
                                     static_cast<sisci::NodeId>(i + 1), spec));
  }
  for (auto& job : jobs) {
    auto result = tb.wait(std::move(job), 300_s);
    ASSERT_TRUE(result.has_value()) << result.status().to_string();
    EXPECT_EQ(result->errors, 0u);
    EXPECT_EQ(result->verify_failures, 0u);
  }

  // Control-plane churn: detach a random client, re-attach it, repeat.
  for (int round = 0; round < 3; ++round) {
    const std::size_t victim = rng.uniform(clients.size());
    const auto node = static_cast<sisci::NodeId>(victim + 1);
    Status st = tb.wait_status(clients[victim]->detach(), 30_s);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    clients[victim].reset();
    tb.engine().run_for(1_ms);

    driver::Client::Config cc;
    cc.queue_depth = static_cast<std::uint32_t>(rng.uniform(6) + 2);
    auto again = tb.wait(driver::Client::attach(tb.service(), node, tb.device_id(), cc));
    ASSERT_TRUE(again.has_value()) << again.status().to_string();
    clients[victim] = std::move(*again);

    // The re-attached client immediately passes verified I/O while the
    // others were untouched.
    write_read_verify(tb, *clients[victim], node, 9000 + 64 * round, 4096,
                      0xABC0 + static_cast<std::uint64_t>(round));
  }

  // Round 2: everyone again, after the churn.
  jobs.clear();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    workload::JobSpec spec;
    spec.pattern = workload::JobSpec::Pattern::randrw;
    spec.ops = 120;
    spec.queue_depth = clients[i]->max_queue_depth();
    spec.verify = true;
    spec.seed = rng.next();
    spec.region_blocks = 32 * 1024;
    spec.region_offset_blocks = i * 64 * 1024;
    jobs.push_back(workload::run_job(tb.cluster(), *clients[i],
                                     static_cast<sisci::NodeId>(i + 1), spec));
  }
  for (auto& job : jobs) {
    auto result = tb.wait(std::move(job), 300_s);
    ASSERT_TRUE(result.has_value()) << result.status().to_string();
    EXPECT_EQ(result->errors, 0u);
    EXPECT_EQ(result->verify_failures, 0u);
  }
  // Queue-pair accounting survived the churn: one per live client + admin.
  EXPECT_EQ((*manager)->active_queue_pairs(), clients.size() + 1);
  EXPECT_FALSE(tb.controller().is_fatal());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSweep, ::testing::Values(0xA1, 0xB2, 0xC3));

TEST(Stress, SustainedDurationWorkload) {
  // A longer duration-bounded run (simulated 80 ms ≈ several thousand ops)
  // with all op types mixed, checking the stack never wedges.
  Testbed tb(small_testbed(2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value());

  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.ops = 0;
  spec.duration = 80_ms;
  spec.queue_depth = 16;
  spec.verify = true;
  spec.region_blocks = 16 * 1024;
  auto result = tb.wait(workload::run_job(tb.cluster(), *stack->client, 1, spec), 600_s);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_GT(result->ops_completed, 1000u);
  EXPECT_EQ(result->errors, 0u);
  EXPECT_EQ(result->verify_failures, 0u);

  // Throughput sanity: QD16 on a 7-channel device must be near saturation.
  EXPECT_GT(result->iops(), 400'000.0);
}

// --- chaos soak -------------------------------------------------------------------

/// A plan that exercises several fault kinds probabilistically on top of a
/// verified workload. Every knob is seeded, so one plan string = one exact
/// chaos schedule.
constexpr std::string_view kChaosPlan =
    "seed=11;"
    "drop_posted_write:src=0,dst=1,prob=0.002,count=0;"
    "delay_posted_write:dst=1,prob=0.01,extra=20us,count=0;"
    "ntb_link_down:host=1,at=3ms,for=300us;"
    "ctrl_error:prob=0.002,count=0";

/// Run the chaos workload once and return the metrics snapshot taken the
/// instant the job finishes (before teardown, so both runs snapshot at the
/// same point in their instruction streams).
std::string chaos_run() {
  obs::Registry::global().reset_values();
  Testbed tb(with_faults(small_testbed(2), kChaosPlan));
  driver::Client::Config cc;
  cc.cmd_timeout_ns = 500'000;
  cc.cmd_retry_limit = 6;
  cc.retry_backoff_ns = 50'000;
  cc.heartbeat_interval_ns = 200'000;
  cc.queue_depth = 4;
  driver::Manager::Config mc;
  mc.client_heartbeat_timeout_ns = 2'000'000;
  mc.csts_poll_interval_ns = 200'000;
  auto stack = bring_up(tb, 0, 1, cc, mc);
  EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
  if (!stack) return {};
  tb.substrate().arm_faults();

  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.ops = 1500;
  spec.queue_depth = 4;
  spec.verify = true;
  spec.seed = 99;
  auto result = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
  EXPECT_TRUE(result.has_value()) << result.status().to_string();
  if (result.has_value()) {
    EXPECT_EQ(result->errors, 0u) << "recovery must absorb every injected fault";
    EXPECT_EQ(result->verify_failures, 0u);
  }
  return obs::Registry::global().to_json();
}

TEST(Stress, ChaosSoakSurvivesInjectedFaults) {
  const std::string snapshot = chaos_run();
  ASSERT_FALSE(snapshot.empty());
  // The plan actually fired: at least the scheduled link flap is visible.
  EXPECT_NE(snapshot.find("\"nvmeshare.fault.link_downs\":1"), std::string::npos)
      << snapshot;
}

TEST(Stress, ChaosSameSeedRunsAreByteIdentical) {
  // Determinism is the whole point of seeded fault plans (docs/faults.md):
  // two runs of the same plan + workload seed must produce byte-identical
  // metrics snapshots, recovery machinery included.
  const std::string first = chaos_run();
  const std::string second = chaos_run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- multi-queue chaos soak -------------------------------------------------------

/// The chaos soak again, but on a 4-channel client with doorbell coalescing
/// on: faults now hit individual queue pairs while the scheduler drains
/// work to the survivors, and the per-channel recovery paths (batch
/// re-create over the mailbox) all get exercised.
std::string chaos_run_multiqp() {
  obs::Registry::global().reset_values();
  Testbed tb(with_faults(small_testbed(2), kChaosPlan));
  driver::Client::Config cc;
  cc.channels = 4;
  cc.coalesce_doorbells = true;
  cc.cmd_timeout_ns = 500'000;
  cc.cmd_retry_limit = 6;
  cc.retry_backoff_ns = 50'000;
  cc.heartbeat_interval_ns = 200'000;
  cc.queue_depth = 4;
  driver::Manager::Config mc;
  mc.client_heartbeat_timeout_ns = 2'000'000;
  mc.csts_poll_interval_ns = 200'000;
  auto stack = bring_up(tb, 0, 1, cc, mc);
  EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
  if (!stack) return {};
  tb.substrate().arm_faults();

  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.ops = 1500;
  spec.queue_depth = 16;  // all four channels busy
  spec.verify = true;
  spec.seed = 99;
  auto result = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
  EXPECT_TRUE(result.has_value()) << result.status().to_string();
  if (result.has_value()) {
    EXPECT_EQ(result->errors, 0u) << "recovery must absorb every injected fault";
    EXPECT_EQ(result->verify_failures, 0u);
  }
  return obs::Registry::global().to_json();
}

TEST(Stress, MultiQpChaosSoakSurvivesInjectedFaults) {
  const std::string snapshot = chaos_run_multiqp();
  ASSERT_FALSE(snapshot.empty());
  EXPECT_NE(snapshot.find("\"nvmeshare.fault.link_downs\":1"), std::string::npos)
      << snapshot;
  // All four channels actually carried work.
  for (int c = 0; c < 4; ++c) {
    const std::string key =
        "\"nvmeshare.engine.client.qp" + std::to_string(c) + ".doorbell_writes\":0";
    EXPECT_EQ(snapshot.find(key), std::string::npos)
        << "channel " << c << " never rang its doorbell";
  }
}

TEST(Stress, MultiQpChaosSameSeedRunsAreByteIdentical) {
  // The determinism pin extended to the multi-queue layout: channel
  // scheduling, doorbell batch boundaries, and per-channel recovery must
  // all be a pure function of the seed.
  const std::string first = chaos_run_multiqp();
  const std::string second = chaos_run_multiqp();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- tenant-multiplexing chaos soak -----------------------------------------------

/// The chaos soak once more, with the queue pair subdivided among four
/// tenants (MODEL.md §12): DRR dequeue, per-tenant QoS pacing, and
/// CID-window backpressure all run while faults hammer the transport and
/// the engine's retry/recovery machinery re-creates the pair underneath
/// the shares. Each tenant runs a verified mixed workload on a disjoint
/// LBA region of its TenantDevice.
std::string chaos_run_tenants() {
  obs::Registry::global().reset_values();
  Testbed tb(with_faults(small_testbed(2), kChaosPlan));
  driver::Client::Config cc;
  cc.cmd_timeout_ns = 500'000;
  cc.cmd_retry_limit = 6;
  cc.retry_backoff_ns = 50'000;
  cc.heartbeat_interval_ns = 200'000;
  cc.queue_depth = 8;  // the share floor: tenants get windows in [8, 64)
  driver::Manager::Config mc;
  mc.client_heartbeat_timeout_ns = 2'000'000;
  mc.csts_poll_interval_ns = 200'000;
  auto stack = bring_up(tb, 0, 1, cc, mc);
  EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
  if (!stack) return {};
  constexpr std::uint32_t kTenants = 4;
  std::vector<std::unique_ptr<mux::TenantDevice>> devs;
  for (std::uint32_t t = 1; t <= kTenants; ++t) {
    driver::Client::ShareRequest req;
    req.tenant = t;
    req.cid_count = 6;
    if (t == 1) req.qos_iops = 20'000;  // one paced tenant in the mix
    auto grant = tb.wait(stack->client->create_share(req));
    EXPECT_TRUE(grant.has_value()) << grant.status().to_string();
    if (!grant) return {};
    devs.push_back(std::make_unique<mux::TenantDevice>(
        *stack->client->multiplexer(), *stack->client, t));
  }

  // Arm after the grants so the plan's link outage (at=3ms from arm)
  // lands squarely in the tenant I/O phase, not the share mailbox RPCs.
  tb.substrate().arm_faults();

  std::vector<sim::Future<Result<workload::JobResult>>> jobs;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    workload::JobSpec spec;
    spec.pattern = workload::JobSpec::Pattern::randrw;
    spec.ops = 600;
    spec.queue_depth = 4;
    spec.verify = true;
    spec.region_blocks = 2048;
    spec.region_offset_blocks = static_cast<std::uint64_t>(t) * 2048;
    spec.seed = 99 + t;
    jobs.push_back(workload::run_job(tb.cluster(), *devs[t], 1, spec));
  }
  for (auto& job : jobs) {
    auto result = tb.wait(job, 120_s);
    EXPECT_TRUE(result.has_value()) << result.status().to_string();
    if (result.has_value()) {
      EXPECT_EQ(result->errors, 0u) << "recovery must absorb every injected fault";
      EXPECT_EQ(result->verify_failures, 0u);
    }
  }
  const auto& ms = stack->client->multiplexer()->stats();
  EXPECT_EQ(ms.staged_cmds.value(), ms.completed_cmds.value())
      << "no staged command may be stranded";
  EXPECT_EQ(ms.aborted_cmds.value(), 0u);
  return obs::Registry::global().to_json();
}

TEST(Stress, TenantMuxChaosSoakSurvivesInjectedFaults) {
  const std::string snapshot = chaos_run_tenants();
  ASSERT_FALSE(snapshot.empty());
  EXPECT_NE(snapshot.find("\"nvmeshare.fault.link_downs\":1"), std::string::npos)
      << snapshot;
  // The multiplexer actually carried the traffic (2400 tenant ops + the
  // QoS stalls of the paced tenant).
  EXPECT_NE(snapshot.find("\"nvmeshare.mux.completed_cmds\":"), std::string::npos);
  EXPECT_EQ(snapshot.find("\"nvmeshare.mux.completed_cmds\":0,"), std::string::npos);
}

TEST(Stress, TenantMuxChaosSameSeedRunsAreByteIdentical) {
  // The determinism pin extended to the tenant layer: DRR rounds, QoS
  // stalls, CID-window waits, and fault recovery under the shares must all
  // be a pure function of the seed.
  const std::string first = chaos_run_tenants();
  const std::string second = chaos_run_tenants();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- manager-crash takeover storm -------------------------------------------------

/// A failure storm aimed at the control plane (docs/MODEL.md §10): the
/// active manager is killed mid-run, its hot standby takes over, then THAT
/// manager is killed too and the second standby in the chain takes over —
/// all under verified multi-channel I/O from two clients, with a windowed
/// posted-write delay storm running across both outages.
constexpr std::string_view kTakeoverStormPlan =
    "seed=23;"
    "host_crash:host=0,at=2ms;"
    "host_crash:host=3,at=8ms;"
    "delay_posted_write:dst=1,extra=20us,prob=0.02,from=2ms,until=9ms";

std::string chaos_run_takeover_storm() {
  obs::Registry::global().reset_values();
  Testbed tb(with_faults(small_testbed(5), kTakeoverStormPlan));
  driver::Manager::Config mc;
  mc.lease_duration_ns = 1_ms;
  mc.client_heartbeat_timeout_ns = 4_ms;
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), mc));
  EXPECT_TRUE(manager.has_value()) << manager.status().to_string();
  if (!manager) return {};

  driver::Client::Config cc;
  cc.channels = 2;
  cc.queue_depth = 4;
  cc.cmd_timeout_ns = 500'000;
  cc.cmd_retry_limit = 6;
  cc.retry_backoff_ns = 50'000;
  cc.heartbeat_interval_ns = 300'000;
  cc.mailbox_timeout_ns = 1_ms;
  cc.mailbox_retry_limit = 12;
  cc.mailbox_retry_backoff_ns = 100'000;
  auto c1 = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), cc));
  cc.channels = 1;
  auto c2 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), cc));
  EXPECT_TRUE(c1.has_value() && c2.has_value());
  if (!c1 || !c2) return {};

  // Standby chain on hosts 3 and 4. Each standby needs its own metadata
  // segment id and private segment base: hinted allocation may land both
  // managers' segments in the same host, where ids must stay unique.
  std::vector<std::unique_ptr<driver::Manager>> standbys;
  for (std::uint32_t i = 0; i < 2; ++i) {
    driver::Manager::Config sc = mc;
    sc.metadata_segment_id = 0x4d455442 + i;
    sc.private_segment_base = 0x4e000000 + (i << 8);
    auto sb = tb.wait(
        driver::Manager::start_standby(tb.service(), 3 + i, tb.device_id(), sc));
    EXPECT_TRUE(sb.has_value()) << sb.status().to_string();
    if (!sb) return {};
    standbys.push_back(std::move(*sb));
  }
  tb.substrate().arm_faults();

  std::vector<sim::Future<Result<workload::JobResult>>> jobs;
  for (std::size_t i = 0; i < 2; ++i) {
    workload::JobSpec spec;
    spec.pattern = workload::JobSpec::Pattern::randrw;
    spec.ops = 0;
    spec.duration = 12_ms;  // spans both outages and both takeovers
    spec.queue_depth = 4;
    spec.verify = true;
    spec.seed = 0x51 + i;
    spec.region_blocks = 32 * 1024;
    spec.region_offset_blocks = i * 64 * 1024;
    driver::Client& cl = i == 0 ? **c1 : **c2;
    jobs.push_back(
        workload::run_job(tb.cluster(), cl, static_cast<sisci::NodeId>(i + 1), spec));
  }
  for (auto& job : jobs) {
    auto result = tb.wait(std::move(job), 600_s);
    EXPECT_TRUE(result.has_value()) << result.status().to_string();
    if (result.has_value()) {
      EXPECT_EQ(result->errors, 0u)
          << "in-flight I/O must never error across manager takeovers";
      EXPECT_EQ(result->verify_failures, 0u);
    }
  }
  tb.engine().run_for(2_ms);  // let the second takeover's aftermath settle

  // The chain promoted in order: host 3 served epoch 2, host 4 epoch 3.
  EXPECT_FALSE((*manager)->is_active());
  EXPECT_FALSE(standbys[0]->is_active());
  EXPECT_TRUE(standbys[1]->is_active());
  EXPECT_EQ(standbys[0]->stats().takeovers.value(), 1u);
  EXPECT_EQ(standbys[1]->stats().takeovers.value(), 1u);
  EXPECT_EQ(standbys[1]->epoch(), 3u);
  // Both clients heartbeated into each successor in time: nobody reaped.
  EXPECT_EQ(standbys[0]->stats().qps_reaped.value(), 0u);
  EXPECT_EQ(standbys[1]->stats().qps_reaped.value(), 0u);
  EXPECT_FALSE(tb.controller().is_fatal());

  return obs::Registry::global().to_json();
}

TEST(Stress, TakeoverStormSoakSurvives) {
  const std::string snapshot = chaos_run_takeover_storm();
  ASSERT_FALSE(snapshot.empty());
  EXPECT_NE(snapshot.find("\"nvmeshare.fault.host_crashes\":2"), std::string::npos)
      << snapshot;
  EXPECT_NE(snapshot.find("\"nvmeshare.manager.takeovers\":2"), std::string::npos)
      << snapshot;
}

TEST(Stress, TakeoverStormSameSeedRunsAreByteIdentical) {
  // The determinism pin for the HA machinery: lease renewal, staggered
  // claims, ring adoption, heartbeat re-homing and the windowed delay storm
  // must all be a pure function of the plan + workload seeds.
  const std::string first = chaos_run_takeover_storm();
  const std::string second = chaos_run_takeover_storm();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace nvmeshare
