// Manager-failover lifecycle (promoted from the old examples/failover.cpp).
//
// The paper's design keeps the manager off the data path: it is only needed
// to create and delete queue pairs (Section V). These tests walk the full
// lifecycle of losing and replacing it:
//   1. manager on host 0, clients on hosts 1 and 2 doing verified I/O;
//   2. the manager dies — established clients keep doing I/O untouched;
//   3. a new client cannot attach (nobody serves the mailbox) and its
//      attach fails within its configured mailbox deadline;
//   4. a replacement manager cannot start while survivors hold the device
//      (SmartIO's exclusive acquisition protects the controller state);
//   5. after the survivors release the device, a new manager starts on a
//      *different* host and fresh clients attach again.
//
// The Takeover suite exercises the HA path (docs/MODEL.md §10) instead: a
// hot standby watches the active manager's lease and, when the manager is
// killed, takes over WITHOUT the survivors releasing the device — adopting
// the admin rings and every granted queue pair from the v5 journal and
// owner table.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

/// One short verified random-r/w burst; any I/O error or corrupt byte fails.
void quick_io(Testbed& tb, driver::Client& client, sisci::NodeId node) {
  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.ops = 50;
  spec.queue_depth = 2;
  spec.verify = true;
  auto result = workload::run_job_blocking(tb.cluster(), client, node, spec);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->errors, 0u);
  EXPECT_EQ(result->verify_failures, 0u);
}

TEST(Failover, ManagerDeathAndHandover) {
  TestbedConfig cfg = small_testbed(4);
  Testbed tb(cfg);

  // [1] Normal operation: manager on host 0, clients on hosts 1 and 2.
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(manager.has_value()) << manager.status().to_string();
  auto c1 = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), {}));
  auto c2 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), {}));
  ASSERT_TRUE(c1.has_value() && c2.has_value());
  quick_io(tb, **c1, 1);
  quick_io(tb, **c2, 2);

  // [2] The manager dies. Established clients operate the controller
  // through their own queue pairs — the manager is not on the data path —
  // so verified I/O must keep passing.
  manager->reset();
  tb.engine().run_for(1_ms);
  quick_io(tb, **c1, 1);
  quick_io(tb, **c2, 2);

  // [3] A new client cannot attach: the metadata segment is gone, and even
  // an optimistic retry loop must give up within its mailbox deadline.
  driver::Client::Config impatient;
  impatient.mailbox_timeout_ns = 5_ms;
  auto orphan =
      tb.wait(driver::Client::attach(tb.service(), 3, tb.device_id(), impatient), 60_s);
  EXPECT_FALSE(orphan.has_value()) << "attach without a manager must fail";

  // [4] A replacement manager is blocked while survivors hold shared device
  // references: exclusive acquisition would reset the controller under the
  // survivors' queues.
  auto blocked = tb.wait(driver::Manager::start(tb.service(), 3, tb.device_id(), {}));
  EXPECT_FALSE(blocked.has_value()) << "restart must be blocked by surviving clients";

  // [5] Survivors release the device; a replacement manager starts on a
  // different host, re-initializes the controller, and serves fresh
  // attachments.
  c1->reset();
  c2->reset();
  tb.engine().run_for(1_ms);
  auto manager2 = tb.wait(driver::Manager::start(tb.service(), 3, tb.device_id(), {}));
  ASSERT_TRUE(manager2.has_value()) << manager2.status().to_string();
  auto c3 = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), {}));
  ASSERT_TRUE(c3.has_value()) << c3.status().to_string();
  quick_io(tb, **c3, 1);
}

// --- hot-standby takeover (docs/MODEL.md §10) -------------------------------------

/// Active-manager HA config: publish a 1 ms lease, reap orphans.
driver::Manager::Config ha_manager() {
  driver::Manager::Config mc;
  mc.lease_duration_ns = 1_ms;
  mc.client_heartbeat_timeout_ns = 4_ms;
  return mc;
}

/// Standby config: same HA knobs, but its own metadata segment id and
/// private segment base — hinted allocation can land both managers' segments
/// on the same host, where the ids must not collide.
driver::Manager::Config ha_standby() {
  driver::Manager::Config mc = ha_manager();
  mc.metadata_segment_id = 0x4d455442;  // "METB"
  mc.private_segment_base = 0x4e000000;
  return mc;
}

/// HA-aware client: retries mailbox calls across the takeover window and
/// heartbeats (re-homing to the successor's segment when the registration
/// moves).
driver::Client::Config ha_client() {
  driver::Client::Config cc;
  cc.mailbox_timeout_ns = 1_ms;  // fail one attempt fast, then retry
  cc.mailbox_retry_limit = 12;
  cc.mailbox_retry_backoff_ns = 100'000;
  cc.heartbeat_interval_ns = 300'000;
  return cc;
}

TEST(Takeover, StandbyTakesOverUnderVerifiedLoad) {
  Testbed tb(with_faults(small_testbed(5), "seed=5;host_crash:host=0,at=3ms"));

  auto manager =
      tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), ha_manager()));
  ASSERT_TRUE(manager.has_value()) << manager.status().to_string();

  driver::Client::Config multi = ha_client();
  multi.channels = 2;
  auto c1 = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), multi));
  auto c2 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), ha_client()));
  ASSERT_TRUE(c1.has_value()) << c1.status().to_string();
  ASSERT_TRUE(c2.has_value()) << c2.status().to_string();

  auto standby =
      tb.wait(driver::Manager::start_standby(tb.service(), 3, tb.device_id(), ha_standby()));
  ASSERT_TRUE(standby.has_value()) << standby.status().to_string();
  EXPECT_TRUE((*standby)->is_standby());
  EXPECT_FALSE((*standby)->is_active());

  tb.substrate().arm_faults();
  const sim::Time armed = tb.engine().now();

  // Verified I/O from both clients spanning the whole crash + takeover
  // window. The manager is off the data path, so not one request may
  // error — in-flight or issued mid-outage.
  std::vector<sim::Future<Result<workload::JobResult>>> jobs;
  for (std::size_t i = 0; i < 2; ++i) {
    workload::JobSpec spec;
    spec.pattern = workload::JobSpec::Pattern::randrw;
    spec.ops = 0;
    spec.duration = 8_ms;
    spec.queue_depth = 4;
    spec.verify = true;
    spec.seed = 0x7a + i;
    spec.region_blocks = 32 * 1024;
    spec.region_offset_blocks = i * 64 * 1024;
    driver::Client& cl = i == 0 ? **c1 : **c2;
    jobs.push_back(
        workload::run_job(tb.cluster(), cl, static_cast<sisci::NodeId>(i + 1), spec));
  }

  // Run into the outage (crash at 3 ms, takeover roughly a lease + stagger
  // later) and start a fresh attach while nobody is serving the mailbox
  // yet: its retry loop must carry it through to the successor.
  tb.engine().run_until(armed + 3'300'000);
  auto late_attach = driver::Client::attach(tb.service(), 4, tb.device_id(), ha_client());

  for (auto& job : jobs) {
    auto result = tb.wait(std::move(job), 300_s);
    ASSERT_TRUE(result.has_value()) << result.status().to_string();
    EXPECT_EQ(result->errors, 0u) << "in-flight I/O must not observe the takeover";
    EXPECT_EQ(result->verify_failures, 0u);
  }

  // The standby promoted itself: epoch bumped, old manager fenced out of
  // the registration, survivors re-homed.
  EXPECT_TRUE((*standby)->is_active());
  EXPECT_FALSE((*standby)->is_standby());
  EXPECT_EQ((*standby)->stats().takeovers.value(), 1u);
  EXPECT_EQ((*standby)->epoch(), 2u);
  EXPECT_GE((*standby)->stats().qps_adopted.value(), 3u);  // 2 + 1 channels
  EXPECT_FALSE((*manager)->is_active());

  // The attach that started during the outage completed against the new
  // manager and its queue pair works.
  auto c3 = tb.wait(std::move(late_attach), 60_s);
  ASSERT_TRUE(c3.has_value()) << c3.status().to_string();
  EXPECT_GE((*c3)->stats().mailbox_retries.value(), 1u);
  quick_io(tb, **c3, 4);

  // Survivors still work end to end, including admin-path operations
  // against the successor (delete + re-create through detach).
  quick_io(tb, **c1, 1);
  quick_io(tb, **c2, 2);
  EXPECT_GE((*c1)->stats().manager_failovers.value(), 1u);
  Status st = tb.wait_status((*c2)->detach(), 30_s);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_FALSE(tb.controller().is_fatal());
}

TEST(Takeover, OrphanReapedExactlyOnceAndSurvivorSpared) {
  // A client dies, then the manager dies before its reaper could collect
  // the orphan. The successor must reap the orphaned queue pair exactly
  // once — after the takeover grace window — while the live, heartbeating
  // survivor is never touched.
  Testbed tb(with_faults(small_testbed(4),
                         "seed=9;host_crash:host=1,at=2ms;host_crash:host=0,at=2500us"));
  auto manager =
      tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), ha_manager()));
  ASSERT_TRUE(manager.has_value()) << manager.status().to_string();
  auto doomed = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), ha_client()));
  auto survivor =
      tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), ha_client()));
  ASSERT_TRUE(doomed.has_value() && survivor.has_value());
  auto standby =
      tb.wait(driver::Manager::start_standby(tb.service(), 3, tb.device_id(), ha_standby()));
  ASSERT_TRUE(standby.has_value()) << standby.status().to_string();

  tb.substrate().arm_faults();
  const sim::Time armed = tb.engine().now();

  // Past the crashes, the takeover, the grace window (2 ms) and the
  // heartbeat timeout (4 ms): the orphan must be gone by now.
  tb.engine().run_until(armed + 14_ms);

  EXPECT_TRUE((*standby)->is_active());
  EXPECT_EQ((*standby)->stats().takeovers.value(), 1u);
  EXPECT_EQ((*manager)->stats().qps_reaped.value(), 0u)
      << "the old manager died before its reaper ran";
  EXPECT_EQ((*standby)->stats().qps_reaped.value(), 1u)
      << "the orphan is reaped exactly once, the survivor never";
  // Admin queue + the survivor's pair is all that remains.
  EXPECT_EQ((*standby)->active_queue_pairs(), 2u);

  // The survivor's pair kept working through all of it.
  quick_io(tb, **survivor, 2);
}

TEST(Takeover, StandbyClampsAFarFutureLeaseExpiry) {
  // The lease expiry is a uint64 the standby reads from another host's
  // segment. A value no well-behaved writer publishes — above 2^63, or just
  // far in the future — must not keep the standby waiting forever once the
  // manager that should have renewed it is dead.
  for (const std::uint64_t bogus : {std::numeric_limits<std::uint64_t>::max(),
                                    std::uint64_t{1} << 62}) {
    SCOPED_TRACE(bogus);
    Testbed tb(small_testbed(3));
    auto manager =
        tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), ha_manager()));
    ASSERT_TRUE(manager.has_value()) << manager.status().to_string();
    auto standby =
        tb.wait(driver::Manager::start_standby(tb.service(), 2, tb.device_id(), ha_standby()));
    ASSERT_TRUE(standby.has_value()) << standby.status().to_string();
    tb.engine().run_for(1_ms);

    auto loc = tb.service().device_metadata(tb.device_id());
    ASSERT_TRUE(loc.has_value());
    auto seg = tb.cluster().connect(loc->first, loc->second);
    ASSERT_TRUE(seg.has_value());
    const std::uint64_t expiry_addr =
        seg->phys_addr + driver::kLeaseOffset + offsetof(driver::ManagerLease, expires_at_ns);
    ASSERT_TRUE(tb.fabric().host_dram(seg->owner).write_pod(expiry_addr, bogus).is_ok());
    (*manager)->crash();

    tb.engine().run_for(20_ms);
    EXPECT_TRUE((*standby)->is_active());
    EXPECT_EQ((*standby)->stats().takeovers.value(), 1u);
  }
}

TEST(Takeover, StandbyRequiresLeasePublishingManager) {
  // Without lease_duration_ns the active manager never writes the lease
  // slot; a standby has nothing to watch and must fail cleanly rather than
  // poll a forever-zero lease.
  Testbed tb(small_testbed(3));
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(manager.has_value()) << manager.status().to_string();
  auto standby =
      tb.wait(driver::Manager::start_standby(tb.service(), 2, tb.device_id(), ha_standby()));
  ASSERT_FALSE(standby.has_value());
  EXPECT_EQ(standby.error_code(), Errc::unsupported) << standby.status().to_string();
}

TEST(Takeover, StandbyConfigRequiresLeaseDuration) {
  Testbed tb(small_testbed(3));
  auto manager =
      tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), ha_manager()));
  ASSERT_TRUE(manager.has_value()) << manager.status().to_string();
  driver::Manager::Config sc = ha_standby();
  sc.lease_duration_ns = 0;  // a standby that would never renew its own lease
  auto standby = tb.wait(driver::Manager::start_standby(tb.service(), 2, tb.device_id(), sc));
  EXPECT_FALSE(standby.has_value());
}

}  // namespace
}  // namespace nvmeshare
