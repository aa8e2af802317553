// Figure 13 (beyond the paper): tenant multiplexing + namespace sharding.
//
// The paper's sharing model is one queue pair per borrowing host, which
// caps both the population (31 hosts) and the ceiling (one controller's
// bandwidth). This bench composes the two escape hatches:
//
//   * src/mux: every borrowing host multiplexes many lightweight tenants
//     over its single queue pair — manager-granted CID sub-ranges, DRR
//     fair dequeue, per-tenant QoS token buckets;
//   * block::ShardedDevice: four single-function controllers federated
//     behind one namespace by RAID-0-style LBA striping.
//
// Cluster: 32 hosts, 4 NVMe devices (hosts 0-3), one manager per device,
// and every one of the 31 borrowing hosts attaches one client per device.
// Each tenant owns a CID share on all four of its host's clients and sees
// one ShardedDevice striped over its four TenantDevices. Three phases:
//
//   1. baseline — one tenant per host (31 tenants) runs a fixed read job;
//   2. scale    — five tenants per host (155 tenants) run the same job:
//                 aggregate IOPS must rise and, with identical shares, DRR
//                 must keep the per-tenant p99 spread tight;
//   3. noisy    — on one host, a QD-1 victim shares the pairs with a bully
//                 tenant whose share carries an IOPS cap: the bully pins at
//                 its cap and the victim's p99 stays bounded.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "block/sharded_device.hpp"
#include "mux/mux.hpp"

namespace {

using namespace nvmeshare;
using namespace nvmeshare::bench;

constexpr std::uint32_t kHosts = 32;     ///< host 0 also borrows nothing; 1..31 do
constexpr std::uint32_t kDevices = 4;    ///< controllers, installed in hosts 0..3
constexpr std::uint32_t kBorrowers = 31;
constexpr std::uint32_t kTenantsPerHost = 5;  ///< 31 * 5 = 155 tenants
constexpr std::uint16_t kTenantCids = 5;      ///< CID window per share, per client
constexpr std::uint64_t kOpsPerTenant = 100;
constexpr std::uint32_t kTenantQd = 2;
constexpr std::uint32_t kBlockBytes = 4096;

constexpr std::uint32_t kVictimOps = 300;
constexpr std::uint32_t kBullyTenant = 99;
constexpr std::uint16_t kBullyCids = 6;
/// Per-share IOPS cap requested for the bully; its sharded namespace spans
/// four shares, so the aggregate cap is 4x this.
constexpr std::uint32_t kBullyShareIops = 500;
constexpr sim::Duration kBullyDuration = 200_ms;

/// One borrowing host's rig: a client per device, and per tenant a
/// TenantDevice on each client plus the ShardedDevice striped over them.
struct HostRig {
  std::vector<std::unique_ptr<driver::Client>> clients;
  std::vector<std::vector<std::unique_ptr<mux::TenantDevice>>> tenant_devs;
  std::vector<std::unique_ptr<block::ShardedDevice>> tenant_ns;
};

workload::JobSpec tenant_job(std::uint32_t host, std::uint32_t tenant) {
  workload::JobSpec spec;
  spec.name = "t";
  spec.name += std::to_string(host);
  spec.name += '.';
  spec.name += std::to_string(tenant);
  spec.pattern = workload::JobSpec::Pattern::randread;
  spec.block_bytes = kBlockBytes;
  spec.queue_depth = kTenantQd;
  spec.ops = kOpsPerTenant;
  spec.seed = 0x13u + host * 64ull + tenant;
  return spec;
}

/// Grant tenant `tenant` a share on every one of the host's clients and
/// build its sharded namespace over the resulting TenantDevices.
void add_tenant(workload::Testbed& bed, HostRig& rig, std::uint32_t tenant,
                std::uint16_t cids, std::uint32_t qos_iops) {
  std::vector<std::unique_ptr<mux::TenantDevice>> devs;
  std::vector<block::BlockDevice*> shards;
  for (auto& client : rig.clients) {
    driver::Client::ShareRequest req;
    req.tenant = tenant;
    req.cid_count = cids;
    req.qos_iops = qos_iops;
    auto grant = bed.wait(client->create_share(req));
    if (!grant) die("create_share", grant.status());
    devs.push_back(std::make_unique<mux::TenantDevice>(*client->multiplexer(), *client,
                                                       tenant));
    shards.push_back(devs.back().get());
  }
  rig.tenant_devs.push_back(std::move(devs));
  rig.tenant_ns.push_back(
      std::make_unique<block::ShardedDevice>(bed.engine(), std::move(shards),
                                             block::ShardedDevice::Config{}));
}

struct PhaseResult {
  double aggregate_iops = 0;
  std::vector<double> tenant_p99_us;
  LatencyRecorder all;
};

/// Run the fixed tenant job on tenant index `t` of every borrowing host
/// concurrently (`t < 0`: all tenant indices at once).
PhaseResult run_phase(workload::Testbed& bed, std::vector<HostRig>& rigs, int only_tenant) {
  struct Pending {
    sim::Future<Result<workload::JobResult>> future;
  };
  std::vector<Pending> jobs;
  for (std::uint32_t h = 1; h <= kBorrowers; ++h) {
    HostRig& rig = rigs[h];
    for (std::uint32_t t = 0; t < kTenantsPerHost; ++t) {
      if (only_tenant >= 0 && t != static_cast<std::uint32_t>(only_tenant)) continue;
      jobs.push_back(Pending{workload::run_job(bed.cluster(), *rig.tenant_ns[t], h,
                                               tenant_job(h, t))});
    }
  }
  PhaseResult out;
  for (auto& job : jobs) {
    auto result = bed.wait(std::move(job.future), 120_s);
    if (!result) die("tenant job", result.status());
    if (result->errors != 0) die("tenant job errors", Status(Errc::io_error, "io errors"));
    out.aggregate_iops += result->iops();
    out.tenant_p99_us.push_back(result->read_latency.percentile(99) / 1000.0);
    out.all.merge(result->read_latency);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const fabric::SubstrateKind kind = substrate_flag(argc, argv);
  print_header("fig13: tenant multiplexing over shared queue pairs + namespace sharding");
  std::printf("%u hosts, %u sharded controllers, %u tenants (%u per borrowing host), "
              "substrate %s\n",
              kHosts, kDevices, kBorrowers * kTenantsPerHost, kTenantsPerHost,
              kind == fabric::SubstrateKind::ntb ? "ntb" : "cxl");

  workload::TestbedConfig bed_cfg = default_bench_testbed(kHosts, kind);
  bed_cfg.nvme_devices = kDevices;
  workload::Testbed bed(bed_cfg);

  // One manager per controller, on the device's own host. Distinct segment
  // ids per device: on the CXL substrate every shared segment lives in the
  // one pool address space, so the managers' defaults would collide.
  std::vector<std::unique_ptr<driver::Manager>> managers;
  for (std::uint32_t d = 0; d < kDevices; ++d) {
    driver::Manager::Config mc;
    mc.metadata_segment_id += d;
    mc.private_segment_base += static_cast<sisci::SegmentId>(d) << 8;
    auto mgr = bed.wait(driver::Manager::start(bed.service(), bed.device_host(d),
                                               bed.device_id(d), mc));
    if (!mgr) die("manager start", mgr.status());
    managers.push_back(std::move(*mgr));
  }

  // Every borrowing host attaches one client per device; the per-device
  // segment namespace keeps the four clients' segment ids disjoint.
  std::vector<HostRig> rigs(kBorrowers + 1);
  for (std::uint32_t h = 1; h <= kBorrowers; ++h) {
    for (std::uint32_t d = 0; d < kDevices; ++d) {
      driver::Client::Config cc;
      cc.segment_namespace = d;
      auto client = bed.wait(driver::Client::attach(bed.service(), h, bed.device_id(d), cc));
      if (!client) die("client attach", client.status());
      rigs[h].clients.push_back(std::move(*client));
    }
    for (std::uint32_t t = 0; t < kTenantsPerHost; ++t) {
      add_tenant(bed, rigs[h], t + 1, kTenantCids, /*qos_iops=*/0);
    }
  }

  print_header("phase 1+2: tenant scaling");
  const PhaseResult baseline = run_phase(bed, rigs, /*only_tenant=*/0);
  const PhaseResult scaled = run_phase(bed, rigs, /*only_tenant=*/-1);
  auto p99_spread = [](const PhaseResult& r) {
    std::vector<double> s = r.tenant_p99_us;
    std::sort(s.begin(), s.end());
    return std::pair<double, double>{s[s.size() / 2], s.back()};
  };
  const auto [base_med, base_max] = p99_spread(baseline);
  const auto [scaled_med, scaled_max] = p99_spread(scaled);
  std::printf("%-22s %12s %14s %14s\n", "phase", "tenants", "agg_kiops", "p99 med/max us");
  std::printf("%-22s %12zu %14.1f %8.1f/%.1f\n", "1 tenant/host",
              baseline.tenant_p99_us.size(), baseline.aggregate_iops / 1000.0, base_med,
              base_max);
  std::printf("%-22s %12zu %14.1f %8.1f/%.1f\n", "5 tenants/host",
              scaled.tenant_p99_us.size(), scaled.aggregate_iops / 1000.0, scaled_med,
              scaled_max);

  print_header("phase 3: noisy tenant (host 1)");
  HostRig& noisy_rig = rigs[1];
  workload::JobSpec victim_spec = tenant_job(1, 0);
  victim_spec.name = "victim";
  victim_spec.queue_depth = 1;
  victim_spec.ops = kVictimOps;
  auto victim_solo = bed.wait(
      workload::run_job(bed.cluster(), *noisy_rig.tenant_ns[0], 1, victim_spec), 120_s);
  if (!victim_solo) die("victim solo", victim_solo.status());

  add_tenant(bed, noisy_rig, kBullyTenant, kBullyCids, kBullyShareIops);
  block::ShardedDevice& bully_ns = *noisy_rig.tenant_ns.back();
  workload::JobSpec bully_spec;
  bully_spec.name = "bully";
  bully_spec.pattern = workload::JobSpec::Pattern::randwrite;
  bully_spec.block_bytes = kBlockBytes;
  bully_spec.queue_depth = kBullyCids;
  bully_spec.ops = 0;  // run on a clock so it outlasts the victim
  bully_spec.duration = kBullyDuration;
  bully_spec.seed = 0xb1;
  auto bully_future = workload::run_job(bed.cluster(), bully_ns, 1, bully_spec);
  auto victim_future =
      workload::run_job(bed.cluster(), *noisy_rig.tenant_ns[0], 1, victim_spec);
  auto victim_shared = bed.wait(std::move(victim_future), 120_s);
  if (!victim_shared) die("victim vs bully", victim_shared.status());
  auto bully_result = bed.wait(std::move(bully_future), 120_s);
  if (!bully_result) die("bully job", bully_result.status());

  const double solo_p99 = victim_solo->read_latency.percentile(99) / 1000.0;
  const double shared_p99 = victim_shared->read_latency.percentile(99) / 1000.0;
  const double bully_iops = bully_result->iops();
  const double bully_cap = 4.0 * kBullyShareIops;
  std::printf("victim p99 solo %.1f us, vs bully %.1f us; bully %.0f IOPS (cap %.0f)\n",
              solo_p99, shared_p99, bully_iops, bully_cap);

  // Every staged command must have been dispatched and completed — the DRR
  // scheduler may not strand work on any of the 124 multiplexers.
  std::uint64_t staged = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  for (std::uint32_t h = 1; h <= kBorrowers; ++h) {
    for (auto& client : rigs[h].clients) {
      const auto& ms = client->multiplexer()->stats();
      staged += ms.staged_cmds.value();
      completed += ms.completed_cmds.value();
      aborted += ms.aborted_cmds.value();
    }
  }

  print_header("claim checks");
  bool ok = true;
  auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "MISMATCH", what);
    ok &= cond;
  };
  check("at least 128 tenants ran over shared queue pairs",
        scaled.tenant_p99_us.size() >= 128);
  check("aggregate IOPS scales with the tenant population",
        scaled.aggregate_iops > baseline.aggregate_iops);
  check("DRR keeps the per-tenant p99 spread tight (max <= 3x median)",
        scaled_max <= 3.0 * scaled_med);
  check("the bully pins at its QoS cap (within burst slack)",
        bully_iops <= 1.35 * bully_cap);
  check("the bully still makes progress under the cap", bully_iops >= 0.4 * bully_cap);
  check("the victim's p99 stays bounded next to the bully (<= 5x solo)",
        shared_p99 <= 5.0 * solo_p99);
  check("no staged command was stranded (staged == completed, none aborted)",
        staged == completed && aborted == 0 && staged > 0);

  if (const char* path = json_flag(argc, argv)) {
    std::vector<BoxSummary> boxes = {
        BoxSummary::from("1-tenant-per-host", baseline.all),
        BoxSummary::from("5-tenants-per-host", scaled.all),
        BoxSummary::from("victim-solo", victim_solo->read_latency),
        BoxSummary::from("victim-vs-bully", victim_shared->read_latency)};
    BenchConfig config{
        {"substrate", kind == fabric::SubstrateKind::ntb ? "ntb" : "cxl"},
        {"hosts", std::to_string(kHosts)},
        {"devices", std::to_string(kDevices)},
        {"tenants", std::to_string(kBorrowers * kTenantsPerHost)},
        {"tenant_cids", std::to_string(kTenantCids)},
        {"ops_per_tenant", std::to_string(kOpsPerTenant)},
        {"bully_iops_cap", std::to_string(static_cast<std::uint64_t>(bully_cap))}};
    if (!write_bench_json(path, bench_document("fig13_tenants", config, boxes))) ok = false;
  }

  std::printf("\n%s\n", ok ? "ALL CLAIM CHECKS PASSED" : "SOME CLAIM CHECKS FAILED");
  return ok ? 0 : 1;
}
