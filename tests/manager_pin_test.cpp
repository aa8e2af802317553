// Golden pins for the manager's admin paths. Each scenario drives one path
// through the mailbox, the watchdog, the reaper or a takeover, and pins what
// it leaves behind: the final simulated clock, every non-zero
// `nvmeshare.manager.*` and `nvmeshare.client.*` counter, the jobs' latency
// sums, and FNV-1a hashes of the v5 owner table and admin-ring journal in
// the serving manager's metadata segment (once after attach, once at the
// end). A refactor of the admin layer must reproduce all of them.
//
// If a pin fails after an intentional change to the admin instruction
// stream, re-capture by running with NVS_PIN_CAPTURE=1 and paste the
// printed blocks.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "pcie/fabric.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

struct ManagerPinObservation {
  sim::Time end_time = 0;
  std::string counters;  ///< "name=value;" for every non-zero driver counter
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::uint64_t latency_sum = 0;  ///< over every job's total_latency samples
  sim::Duration elapsed = 0;      ///< summed over every job
  std::uint64_t owner_table_attached = 0;
  std::uint64_t journal_attached = 0;
  std::uint64_t owner_table_end = 0;
  std::uint64_t journal_end = 0;
};

std::uint64_t fnv1a(ConstByteSpan bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Hash `len` bytes at `offset` of the metadata segment currently registered
/// for the device (the serving manager's).
std::uint64_t metadata_hash(Testbed& tb, std::uint64_t offset, std::size_t len) {
  auto loc = tb.service().device_metadata(tb.device_id());
  EXPECT_TRUE(loc.has_value());
  if (!loc) return 0;
  auto seg = tb.cluster().connect(loc->first, loc->second);
  EXPECT_TRUE(seg.has_value());
  if (!seg) return 0;
  Bytes out(len);
  EXPECT_TRUE(tb.substrate().host_dram(seg->owner).read(seg->phys_addr + offset, out).is_ok());
  return fnv1a(out);
}

void snapshot_tables(Testbed& tb, std::uint64_t& owners, std::uint64_t& journal) {
  owners = metadata_hash(tb, driver::kOwnerTableOffset,
                         driver::kOwnerTableEntries * sizeof(driver::QpOwnerEntry));
  journal = metadata_hash(tb, driver::kAdminJournalOffset, sizeof(driver::AdminRingJournal));
}

/// Every non-zero `nvmeshare.manager.*` / `nvmeshare.client.*` counter of
/// the global registry, in its (sorted) order.
std::string driver_counters() {
  const std::string json = obs::Registry::global().to_json();
  constexpr std::string_view kHead = "{\"counters\":{";
  const std::size_t begin = json.find(kHead) + kHead.size();
  const std::string_view body(json.data() + begin, json.find('}', begin) - begin);
  std::string out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string_view::npos) comma = body.size();
    const std::string_view entry = body.substr(pos, comma - pos);  // "name":value
    pos = comma + 1;
    const std::size_t colon = entry.rfind(':');
    const std::string_view name = entry.substr(1, colon - 2);
    const std::string_view value = entry.substr(colon + 1);
    if (value == "0") continue;
    if (name.starts_with("nvmeshare.manager.") || name.starts_with("nvmeshare.client.")) {
      out.append(name.substr(std::string_view("nvmeshare.").size()));
      out += '=';
      out.append(value);
      out += ';';
    }
  }
  return out;
}

/// Run one job and fold its result into `obs`.
void run_pinned_job(Testbed& tb, driver::Client& client, sisci::NodeId node,
                    workload::JobSpec spec, ManagerPinObservation& obs) {
  auto res = workload::run_job_blocking(tb.cluster(), client, node, spec);
  EXPECT_TRUE(res.has_value()) << res.status().to_string();
  if (!res) return;
  obs.ops += res->ops_completed;
  obs.errors += res->errors;
  obs.elapsed += res->elapsed;
  for (sim::Duration ns : res->total_latency.samples()) obs.latency_sum += ns;
}

workload::JobSpec qd1_job(std::uint64_t seed) {
  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.block_bytes = 4096;
  spec.queue_depth = 1;
  spec.ops = 64;
  spec.seed = seed;
  return spec;
}

/// Configures the process-global fault injector for one scenario and
/// disarms it on the way out.
class FaultPlan {
 public:
  explicit FaultPlan(std::string_view text) {
    auto plan = fault::parse_plan(text);
    EXPECT_TRUE(plan.has_value()) << plan.status().to_string();
    if (plan) fault::Injector::global().configure(std::move(*plan));
  }
  ~FaultPlan() { fault::Injector::global().disarm(); }
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  static void arm(Testbed& tb) {
    pcie::Fabric* fab = &tb.fabric();
    fault::Injector::global().arm(
        tb.engine(), {.set_ntb_link = [fab](std::uint32_t host, bool up) {
          (void)fab->set_ntb_link(host, up);
        }});
  }
};

void finish(Testbed& tb, ManagerPinObservation& obs) {
  snapshot_tables(tb, obs.owner_table_end, obs.journal_end);
  obs.end_time = tb.engine().now();
  obs.counters = driver_counters();
}

// --- scenarios ---------------------------------------------------------------------

/// A 4-channel client (batch create/delete) and a 1-channel client attach,
/// each runs 64 QD-1 ops, both detach.
ManagerPinObservation attach_io_detach() {
  ManagerPinObservation obs;
  Testbed tb(small_testbed(3));
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), {}));
  EXPECT_TRUE(manager.has_value()) << manager.status().to_string();
  if (!manager) return obs;
  driver::Client::Config wide;
  wide.channels = 4;
  auto c1 = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), wide));
  auto c2 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), {}));
  EXPECT_TRUE(c1.has_value() && c2.has_value());
  if (!c1 || !c2) return obs;
  snapshot_tables(tb, obs.owner_table_attached, obs.journal_attached);
  EXPECT_EQ((*manager)->active_queue_pairs(), 6u);
  run_pinned_job(tb, **c1, 1, qd1_job(11), obs);
  run_pinned_job(tb, **c2, 2, qd1_job(12), obs);
  EXPECT_TRUE(tb.wait_status((*c1)->detach()).is_ok());
  EXPECT_TRUE(tb.wait_status((*c2)->detach()).is_ok());
  EXPECT_EQ((*manager)->active_queue_pairs(), 1u);
  finish(tb, obs);
  return obs;
}

/// Only two I/O queues granted: a 4-channel attach creates two pairs, fails
/// on the third and rolls both back; a 1-channel client then attaches.
ManagerPinObservation batch_rollback() {
  ManagerPinObservation obs;
  Testbed tb(small_testbed(3));
  driver::Manager::Config mc;
  mc.requested_io_queues = 2;
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), mc));
  EXPECT_TRUE(manager.has_value()) << manager.status().to_string();
  if (!manager) return obs;
  driver::Client::Config wide;
  wide.channels = 4;
  auto c1 = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), wide));
  EXPECT_FALSE(c1.has_value());
  EXPECT_EQ((*manager)->active_queue_pairs(), 1u);
  auto c2 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), {}));
  EXPECT_TRUE(c2.has_value());
  if (!c2) return obs;
  snapshot_tables(tb, obs.owner_table_attached, obs.journal_attached);
  run_pinned_job(tb, **c2, 2, qd1_job(21), obs);
  finish(tb, obs);
  return obs;
}

/// A fatal controller error: the watchdog resets and re-enables the
/// controller, the 1-channel client re-creates its pair through the mailbox.
ManagerPinObservation fatal_reset() {
  ManagerPinObservation obs;
  FaultPlan plan("seed=3;ctrl_error:nth=40,fatal=1,count=1");
  Testbed tb(small_testbed(2));
  driver::Manager::Config mc;
  mc.csts_poll_interval_ns = 100'000;
  driver::Client::Config cc;
  cc.cmd_timeout_ns = 500'000;
  cc.cmd_retry_limit = 2;
  cc.retry_backoff_ns = 100'000;
  auto stack = bring_up(tb, 0, 1, cc, mc);
  EXPECT_TRUE(stack.has_value()) << stack.status().to_string();
  if (!stack) return obs;
  snapshot_tables(tb, obs.owner_table_attached, obs.journal_attached);
  FaultPlan::arm(tb);
  run_pinned_job(tb, *stack->client, 1, qd1_job(31), obs);
  EXPECT_GE(stack->manager->stats().ctrl_resets.value(), 1u);
  EXPECT_TRUE(tb.wait_status(stack->client->detach()).is_ok());
  finish(tb, obs);
  return obs;
}

/// A heartbeating client crashes; the reaper deletes its orphaned pair.
ManagerPinObservation reaper() {
  ManagerPinObservation obs;
  FaultPlan plan("seed=3;host_crash:host=2,at=300us");
  Testbed tb(small_testbed(3));
  driver::Manager::Config mc;
  mc.client_heartbeat_timeout_ns = 300'000;
  mc.reaper_interval_ns = 100'000;
  driver::Client::Config cc;
  cc.heartbeat_interval_ns = 50'000;
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), mc));
  EXPECT_TRUE(manager.has_value()) << manager.status().to_string();
  if (!manager) return obs;
  auto survivor = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), cc));
  auto victim = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), cc));
  EXPECT_TRUE(survivor.has_value() && victim.has_value());
  if (!survivor || !victim) return obs;
  snapshot_tables(tb, obs.owner_table_attached, obs.journal_attached);
  FaultPlan::arm(tb);
  tb.engine().run_for(2_ms);
  EXPECT_EQ((*manager)->stats().qps_reaped.value(), 1u);
  run_pinned_job(tb, **survivor, 1, qd1_job(41), obs);
  finish(tb, obs);
  return obs;
}

/// The manager host crashes under load; the standby takes over, adopts the
/// pairs, and serves a detach and a fresh attach.
ManagerPinObservation takeover() {
  ManagerPinObservation obs;
  FaultPlan plan("seed=5;host_crash:host=0,at=1ms");
  Testbed tb(small_testbed(4));
  driver::Manager::Config mc;
  mc.lease_duration_ns = 1_ms;
  mc.client_heartbeat_timeout_ns = 4_ms;
  driver::Manager::Config sc = mc;
  sc.metadata_segment_id = 0x4d455442;
  sc.private_segment_base = 0x4e000000;
  driver::Client::Config cc;
  cc.mailbox_timeout_ns = 1_ms;
  cc.mailbox_retry_limit = 12;
  cc.mailbox_retry_backoff_ns = 100'000;
  cc.heartbeat_interval_ns = 300'000;
  driver::Client::Config wide = cc;
  wide.channels = 2;
  auto manager = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), mc));
  EXPECT_TRUE(manager.has_value()) << manager.status().to_string();
  if (!manager) return obs;
  auto c1 = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), wide));
  auto c2 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), cc));
  auto standby = tb.wait(driver::Manager::start_standby(tb.service(), 3, tb.device_id(), sc));
  EXPECT_TRUE(c1.has_value() && c2.has_value() && standby.has_value());
  if (!c1 || !c2 || !standby) return obs;
  snapshot_tables(tb, obs.owner_table_attached, obs.journal_attached);
  FaultPlan::arm(tb);
  run_pinned_job(tb, **c1, 1, qd1_job(51), obs);
  tb.engine().run_for(4_ms);
  EXPECT_EQ((*standby)->stats().takeovers.value(), 1u);
  run_pinned_job(tb, **c2, 2, qd1_job(52), obs);
  EXPECT_TRUE(tb.wait_status((*c2)->detach(), 30_s).is_ok());
  auto c3 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), cc), 30_s);
  EXPECT_TRUE(c3.has_value()) << c3.status().to_string();
  if (c3) run_pinned_job(tb, **c3, 2, qd1_job(53), obs);
  finish(tb, obs);
  return obs;
}

// --- pins --------------------------------------------------------------------------

void print_capture(const char* name, const ManagerPinObservation& o) {
  std::printf("  // %s\n  {%" PRIu64 ", \"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
              ",\n   0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64 "},\n",
              name, static_cast<std::uint64_t>(o.end_time), o.counters.c_str(), o.ops, o.errors,
              o.latency_sum, static_cast<std::uint64_t>(o.elapsed), o.owner_table_attached,
              o.journal_attached, o.owner_table_end, o.journal_end);
}

void expect_pinned(const char* name, ManagerPinObservation (*scenario)(),
                   const ManagerPinObservation& want) {
  obs::Registry::global().reset_values();
  const ManagerPinObservation o = scenario();
  if (std::getenv("NVS_PIN_CAPTURE") != nullptr) {
    print_capture(name, o);
    return;
  }
  EXPECT_EQ(o.end_time, want.end_time);
  EXPECT_EQ(o.counters, want.counters);
  EXPECT_EQ(o.ops, want.ops);
  EXPECT_EQ(o.errors, want.errors);
  EXPECT_EQ(o.latency_sum, want.latency_sum);
  EXPECT_EQ(o.elapsed, want.elapsed);
  EXPECT_EQ(o.owner_table_attached, want.owner_table_attached);
  EXPECT_EQ(o.journal_attached, want.journal_attached);
  EXPECT_EQ(o.owner_table_end, want.owner_table_end);
  EXPECT_EQ(o.journal_end, want.journal_end);
}

// Captured from the tree before the admin path was shared between the
// manager and BareController.
const ManagerPinObservation kAttachIoDetach = {
    25000000,
    "client.bounce_copies=128;client.bounce_copy_bytes=524288;client.poll_rounds=9730;"
    "client.reads=67;client.writes=61;manager.mailbox_requests=4;manager.qps_created=5;"
    "manager.qps_deleted=5;",
    128, 0, 2058428, 2058428,
    0xa5832b4bf30a1306, 0x2bf53cfab1bc76f4, 0x6ab05ef9aa8b9b25, 0xb34c77f6487c55ee};
const ManagerPinObservation kBatchRollback = {
    13000000,
    "client.bounce_copies=64;client.bounce_copy_bytes=262144;client.poll_rounds=4944;"
    "client.reads=27;client.writes=37;manager.mailbox_requests=2;manager.qps_created=3;"
    "manager.qps_deleted=2;manager.request_errors=1;",
    64, 0, 1040018, 1040018,
    0x04ba2fc33f9937b9, 0x2bf53cfab1bc76f4, 0x04ba2fc33f9937b9, 0x2bf53cfab1bc76f4};
const ManagerPinObservation kFatalReset = {
    13000000,
    "client.bounce_copies=64;client.bounce_copy_bytes=262144;client.cmd_retries=2;"
    "client.cmd_timeouts=3;client.poll_rounds=14899;client.qp_recoveries=1;"
    "client.reads=31;client.writes=33;manager.ctrl_resets=3;manager.mailbox_requests=4;"
    "manager.qps_created=2;manager.qps_deleted=1;manager.request_errors=1;",
    64, 0, 2950512, 2950512,
    0x86a2213b32ca3619, 0x1c745860331d64fc, 0x6ab05ef9aa8b9b25, 0x1c745860331d64fc};
const ManagerPinObservation kReaper = {
    15000000,
    "client.bounce_copies=64;client.bounce_copy_bytes=262144;client.heartbeats=304;"
    "client.poll_rounds=4871;client.reads=33;client.writes=31;manager.mailbox_requests=2;"
    "manager.qps_created=2;manager.qps_reaped=1;",
    64, 0, 1031160, 1031160,
    0xfb885875e9f546ef, 0x661a94c6357d46de, 0x86a2213b32ca3619, 0x98a8c42eacfcb330};
const ManagerPinObservation kTakeover = {
    40000000,
    "client.bounce_copies=192;client.bounce_copy_bytes=786432;client.heartbeats=251;"
    "client.manager_failovers=2;client.poll_rounds=14503;client.reads=108;"
    "client.writes=84;manager.lease_renewals=154;manager.mailbox_requests=4;"
    "manager.qps_adopted=3;manager.qps_created=4;manager.qps_deleted=1;"
    "manager.takeovers=1;",
    192, 0, 3072796, 3072796,
    0x86982facbbffbbe5, 0x98a8c42eacfcb330, 0xbafe9d15b19747d8, 0x58a4130d40ac62a7};

TEST(ManagerPin, AttachIoDetach) {
  expect_pinned("AttachIoDetach", attach_io_detach, kAttachIoDetach);
}
TEST(ManagerPin, BatchRollback) { expect_pinned("BatchRollback", batch_rollback, kBatchRollback); }
TEST(ManagerPin, FatalReset) { expect_pinned("FatalReset", fatal_reset, kFatalReset); }
TEST(ManagerPin, Reaper) { expect_pinned("Reaper", reaper, kReaper); }
TEST(ManagerPin, Takeover) { expect_pinned("Takeover", takeover, kTakeover); }

}  // namespace
}  // namespace nvmeshare
