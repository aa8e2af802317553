// Golden pins for the manager's admin paths. Each scenario drives one path
// through the mailbox, the watchdog, the reaper or a takeover, and pins what
// it leaves behind: the final simulated clock, every non-zero
// `nvmeshare.manager.*` and `nvmeshare.client.*` counter, the jobs' latency
// sums, and FNV-1a hashes of the v5 owner table and admin-ring journal in
// the serving manager's metadata segment (once after attach, once at the
// end), as a document compared with tests/golden/. A refactor of the admin
// layer must reproduce all of them. After a deliberate change to the admin
// instruction stream, `tools/same_seed_docs.sh BUILD_DIR tests/golden`
// rewrites the documents.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace nvmeshare {
namespace {

using namespace testutil;

struct ManagerPinObservation {
  sim::Time end_time = 0;
  /// (name, value) of every non-zero driver counter
  std::vector<std::pair<std::string, std::uint64_t>> counters;
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
/// the global registry, in its (sorted) order, without the `nvmeshare.`.
std::vector<std::pair<std::string, std::uint64_t>> driver_counters() {
  const std::string json = obs::Registry::global().to_json();
  constexpr std::string_view kHead = "{\"counters\":{";
  const std::size_t begin = json.find(kHead) + kHead.size();
  const std::string_view body(json.data() + begin, json.find('}', begin) - begin);
  std::vector<std::pair<std::string, std::uint64_t>> out;
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
      out.emplace_back(name.substr(std::string_view("nvmeshare.").size()),
                       std::stoull(std::string(value)));
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
  Testbed tb(with_faults(small_testbed(2), "seed=3;ctrl_error:nth=40,fatal=1,count=1"));
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
  tb.substrate().arm_faults();
  run_pinned_job(tb, *stack->client, 1, qd1_job(31), obs);
  EXPECT_GE(stack->manager->stats().ctrl_resets.value(), 1u);
  EXPECT_TRUE(tb.wait_status(stack->client->detach()).is_ok());
  finish(tb, obs);
  return obs;
}

/// A heartbeating client crashes; the reaper deletes its orphaned pair.
ManagerPinObservation reaper() {
  ManagerPinObservation obs;
  Testbed tb(with_faults(small_testbed(3), "seed=3;host_crash:host=2,at=300us"));
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
  tb.substrate().arm_faults();
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
  Testbed tb(with_faults(small_testbed(4), "seed=5;host_crash:host=0,at=1ms"));
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
  tb.substrate().arm_faults();
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

void expect_pinned(std::string_view name, ManagerPinObservation (*scenario)()) {
  obs::Registry::global().reset_values();
  const ManagerPinObservation o = scenario();
  GoldenDoc doc;
  doc.add("end_time", o.end_time);
  for (const auto& [counter, value] : o.counters) doc.add(counter, value);
  doc.add("ops", o.ops)
      .add("errors", o.errors)
      .add("latency_sum", o.latency_sum)
      .add("elapsed", o.elapsed)
      .add_hex("owner_table_attached", o.owner_table_attached)
      .add_hex("journal_attached", o.journal_attached)
      .add_hex("owner_table_end", o.owner_table_end)
      .add_hex("journal_end", o.journal_end);
  expect_golden(name, doc.str());
}

TEST(ManagerPin, AttachIoDetach) {
  expect_pinned("pin_manager_attach_io_detach", attach_io_detach);
}
TEST(ManagerPin, BatchRollback) { expect_pinned("pin_manager_batch_rollback", batch_rollback); }
TEST(ManagerPin, FatalReset) { expect_pinned("pin_manager_fatal_reset", fatal_reset); }
TEST(ManagerPin, Reaper) { expect_pinned("pin_manager_reaper", reaper); }
TEST(ManagerPin, Takeover) { expect_pinned("pin_manager_takeover", takeover); }

}  // namespace
}  // namespace nvmeshare
