// Noisy-neighbor fairness: a QD-1 latency-sensitive reader sharing the
// device with a QD-32 bulk writer (Section VI spirit, beyond the paper's
// figures). Three runs on the same 3-host cluster layout:
//
//   1. solo     — the reader alone; its p99 is the no-contention baseline;
//   2. rr       — reader + bully under flat round-robin arbitration, no
//                 budgets: the bully's deep queue of large writes inflates
//                 the reader's tail;
//   3. wrr+qos  — manager enables WRR arbitration (reader high class, bully
//                 low) and the policy table clamps the bully's bandwidth
//                 budget, which arms the bully client's token-bucket pacer.
//
// Claim: under WRR + pacing the victim's p99 stays within 2x its solo p99,
// while flat RR blows through that bound.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace nvmeshare;
using namespace nvmeshare::bench;

constexpr std::uint64_t kVictimOps = 3'000;
constexpr std::uint32_t kBullyChannels = 4;  ///< queue pairs the bully owns
constexpr std::uint32_t kBullyDepth = 32;    ///< per-channel queue depth
constexpr std::uint32_t kBullyBlockBytes = 128 * 1024;
/// Bytes/s cap the policy table imposes on the bully's (low) class in the
/// wrr+qos run; the grant arms the bully client's token-bucket pacer.
constexpr std::uint64_t kBullyBytesPerSec = 800ull * 1024 * 1024;

struct Row {
  std::string label;
  double victim_p50_us = 0;
  double victim_p99_us = 0;
  double bully_mib_s = 0;
  BoxSummary box;
};

/// One fairness run. `bully` adds the QD-32 writer on host 2; `wrr` turns on
/// weighted arbitration and the bandwidth clamp.
Row measure(const std::string& label, bool bully, bool wrr) {
  driver::Manager::Config mgr_cfg;
  if (wrr) {
    mgr_cfg.enable_wrr = true;
    mgr_cfg.qos_policy.classes[3].max_bytes_per_s =
        static_cast<std::uint32_t>(kBullyBytesPerSec);
  }

  driver::Client::Config victim_cfg;
  victim_cfg.qos_class = nvme::SqPriority::high;

  Scenario s = make_ours_remote(victim_cfg, mgr_cfg,
                                default_bench_testbed(3, fabric::SubstrateKind::ntb));

  std::unique_ptr<driver::Client> bully_client;
  if (bully) {
    driver::Client::Config bully_cfg;
    bully_cfg.channels = kBullyChannels;
    bully_cfg.queue_depth = kBullyDepth;
    bully_cfg.qos_class = nvme::SqPriority::low;
    auto attached = s.testbed->wait(driver::Client::attach(
        s.testbed->service(), 2, s.testbed->device_id(), bully_cfg));
    if (!attached) die(label + " bully attach", attached.status());
    bully_client = std::move(*attached);
  }

  workload::JobSpec victim_spec = fio_qd1(/*read=*/true, kVictimOps);
  victim_spec.name = label + "/victim";

  workload::JobSpec bully_spec;
  bully_spec.name = label + "/bully";
  bully_spec.pattern = workload::JobSpec::Pattern::randwrite;
  bully_spec.block_bytes = kBullyBlockBytes;
  bully_spec.queue_depth = kBullyChannels * kBullyDepth;
  bully_spec.ops = 0;  // run on a clock, so it outlasts the victim
  bully_spec.duration = 400_ms;
  bully_spec.seed = 7;

  auto bully_future =
      bully ? workload::run_job(s.testbed->cluster(), *bully_client, 2, bully_spec)
            : sim::Future<Result<workload::JobResult>>();
  auto victim_future =
      workload::run_job(s.testbed->cluster(), *s.device, 1, victim_spec);

  auto victim_result = s.testbed->wait(std::move(victim_future), 30_s);
  if (!victim_result) die(label + " victim job", victim_result.status());

  Row row;
  row.label = label;
  row.victim_p50_us = victim_result->read_latency.percentile(50) / 1000.0;
  row.victim_p99_us = victim_result->read_latency.percentile(99) / 1000.0;
  row.box = BoxSummary::from(label, victim_result->read_latency);
  if (bully) {
    auto bully_result = s.testbed->wait(std::move(bully_future), 30_s);
    if (!bully_result) die(label + " bully job", bully_result.status());
    row.bully_mib_s = bully_result->throughput_mib_s(kBullyBlockBytes);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  print_header("noisy-neighbor fairness: QD1 4 KiB reader vs a multi-queue bulk writer");
  std::printf("victim ops: %llu, bully: %u channels x QD%u, %u KiB writes\n",
              static_cast<unsigned long long>(kVictimOps), kBullyChannels, kBullyDepth,
              kBullyBlockBytes / 1024);

  const Row solo = measure("solo", /*bully=*/false, /*wrr=*/false);
  const Row rr = measure("rr", /*bully=*/true, /*wrr=*/false);
  const Row wrr = measure("wrr+qos", /*bully=*/true, /*wrr=*/true);

  print_header("summary (victim latency)");
  std::printf("%-10s %10s %10s %14s\n", "run", "p50_us", "p99_us", "bully_mib_s");
  for (const Row* r : {&solo, &rr, &wrr}) {
    std::printf("%-10s %10.2f %10.2f %14.1f\n", r->label.c_str(), r->victim_p50_us,
                r->victim_p99_us, r->bully_mib_s);
  }

  print_header("claim checks");
  bool ok = true;
  auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "MISMATCH", what);
    ok &= cond;
  };
  check("flat RR: the bully inflates the victim's p99 beyond 2x solo",
        rr.victim_p99_us > 2.0 * solo.victim_p99_us);
  check("WRR + pacing: the victim's p99 stays within 2x solo",
        wrr.victim_p99_us <= 2.0 * solo.victim_p99_us);
  check("WRR + pacing beats flat RR on the victim's p99",
        wrr.victim_p99_us < rr.victim_p99_us);
  check("the bully still makes progress under the clamp", wrr.bully_mib_s > 0.0);

  if (const char* path = json_flag(argc, argv)) {
    std::vector<BoxSummary> boxes = {solo.box, rr.box, wrr.box};
    BenchConfig config{{"victim_ops", std::to_string(kVictimOps)},
                       {"victim_block_bytes", "4096"},
                       {"bully_channels", std::to_string(kBullyChannels)},
                       {"bully_depth", std::to_string(kBullyDepth)},
                       {"bully_block_bytes", std::to_string(kBullyBlockBytes)},
                       {"bully_bytes_per_s_cap", std::to_string(kBullyBytesPerSec)}};
    if (!write_bench_json(path, bench_document("fig12_fairness", config, boxes))) ok = false;
  }

  std::printf("\n%s\n", ok ? "ALL CLAIM CHECKS PASSED" : "SOME CLAIM CHECKS FAILED");
  return ok ? 0 : 1;
}
