// Multi-queue scaling: per-channel queue pairs behind the shared I/O
// engine. Sweeps channel count at a fixed per-channel queue depth for the
// distributed driver (remote client) and the NVMe-oF initiator, both
// running the same block::IoEngine submission core, and shows
//
//   1. IOPS grows monotonically with channels at fixed per-channel depth
//      (more queue pairs = more commands in flight = more device channels
//      busy), until the device itself saturates;
//   2. doorbell coalescing rings less than once per command under
//      concurrency, while the coalescing-off path rings exactly once per
//      command (the seed instruction stream).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace nvmeshare;
using namespace nvmeshare::bench;

constexpr std::uint64_t kOps = 8'000;
constexpr std::uint32_t kPerChannelDepth = 8;

struct Row {
  std::string scenario;
  std::uint32_t channels = 0;
  bool coalesce = false;
  double kiops = 0;
  double p50_us = 0;
  double doorbells_per_cmd = 0;
  BoxSummary box;
};

Row measure_ours(fabric::SubstrateKind kind, std::uint32_t channels, bool coalesce) {
  driver::Client::Config cc;
  cc.channels = channels;
  cc.queue_depth = kPerChannelDepth;
  cc.queue_entries = 64;
  cc.coalesce_doorbells = coalesce;
  Scenario s = make_ours_remote(cc, {}, default_bench_testbed(2, kind));
  workload::JobSpec spec = fio_qd1(/*read=*/true, kOps);
  spec.queue_depth = channels * kPerChannelDepth;
  auto result = run(s, spec);

  Row row;
  row.scenario = "ours-remote";
  row.channels = channels;
  row.coalesce = coalesce;
  row.kiops = result.iops() / 1000.0;
  row.p50_us = result.read_latency.percentile(50) / 1000.0;
  row.doorbells_per_cmd =
      static_cast<double>(s.client->io_engine().doorbell_writes()) / static_cast<double>(kOps);
  row.box = BoxSummary::from("ours-remote/ch" + std::to_string(channels) +
                                 (coalesce ? "+coalesce" : ""),
                             result.read_latency);
  return row;
}

Row measure_nvmeof(fabric::SubstrateKind kind, std::uint32_t channels, bool coalesce) {
  nvmeof::Initiator::Config ic;
  ic.channels = channels;
  ic.queue_depth = kPerChannelDepth;
  ic.coalesce_doorbells = coalesce;
  Scenario s = make_nvmeof_remote(ic, default_bench_testbed(2, kind));
  workload::JobSpec spec = fio_qd1(/*read=*/true, kOps);
  spec.queue_depth = channels * kPerChannelDepth;
  auto result = run(s, spec);

  Row row;
  row.scenario = "nvmeof-remote";
  row.channels = channels;
  row.coalesce = coalesce;
  row.kiops = result.iops() / 1000.0;
  row.p50_us = result.read_latency.percentile(50) / 1000.0;
  row.doorbells_per_cmd =
      static_cast<double>(s.initiator->io_engine().doorbell_writes()) /
      static_cast<double>(kOps);
  row.box = BoxSummary::from("nvmeof-remote/ch" + std::to_string(channels) +
                                 (coalesce ? "+coalesce" : ""),
                             result.read_latency);
  return row;
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-14s %9s %9s %9s %9s %14s\n", "scenario", "channels", "coalesce", "kiops",
              "p50_us", "doorbells/cmd");
  for (const auto& r : rows) {
    std::printf("%-14s %9u %9s %9.1f %9.2f %14.3f\n", r.scenario.c_str(), r.channels,
                r.coalesce ? "on" : "off", r.kiops, r.p50_us, r.doorbells_per_cmd);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const fabric::SubstrateKind kind = substrate_flag(argc, argv);
  print_header("multi-queue scaling: channels x fixed per-channel depth (4 KiB randread)");
  std::printf("substrate: %s\n", std::string(fabric::substrate_name(kind)).c_str());
  std::printf("ops per point: %llu, per-channel depth: %u\n",
              static_cast<unsigned long long>(kOps), kPerChannelDepth);

  std::vector<Row> ours;
  for (std::uint32_t ch : {1u, 2u, 4u}) {
    ours.push_back(measure_ours(kind, ch, /*coalesce=*/true));
  }
  const Row ours_no_coalesce = measure_ours(kind, 4, /*coalesce=*/false);

  std::vector<Row> fabric;
  for (std::uint32_t ch : {1u, 2u, 4u}) {
    fabric.push_back(measure_nvmeof(kind, ch, /*coalesce=*/true));
  }

  std::vector<Row> all = ours;
  all.push_back(ours_no_coalesce);
  all.insert(all.end(), fabric.begin(), fabric.end());
  print_header("summary");
  print_rows(all);

  print_header("claim checks");
  bool ok = true;
  auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "MISMATCH", what);
    ok &= cond;
  };
  check("ours: IOPS increases monotonically 1 -> 2 -> 4 channels",
        ours[1].kiops > ours[0].kiops && ours[2].kiops > ours[1].kiops);
  check("nvmeof: IOPS increases monotonically 1 -> 2 -> 4 channels",
        fabric[1].kiops > fabric[0].kiops && fabric[2].kiops > fabric[1].kiops);
  check("ours: coalescing rings the doorbell less than once per command (4 channels)",
        ours[2].doorbells_per_cmd < 1.0);
  check("ours: without coalescing every command rings exactly once",
        ours_no_coalesce.doorbells_per_cmd > 0.999 &&
            ours_no_coalesce.doorbells_per_cmd < 1.001);
  check("ours: coalescing does not cost median latency at 4 channels (within 25%)",
        ours[2].p50_us < 1.25 * ours_no_coalesce.p50_us);

  if (const char* path = json_flag(argc, argv)) {
    std::vector<BoxSummary> boxes;
    for (const auto& r : all) boxes.push_back(r.box);
    BenchConfig config{{"substrate", std::string(fabric::substrate_name(kind))},
                       {"block_bytes", "4096"},
                       {"per_channel_depth", std::to_string(kPerChannelDepth)},
                       {"channels", "1,2,4"},
                       {"ops", std::to_string(kOps)}};
    if (!write_bench_json(path, bench_document("fig11_scaling", config, boxes))) ok = false;
  }

  std::printf("\n%s\n", ok ? "ALL CLAIM CHECKS PASSED" : "SOME CLAIM CHECKS FAILED");
  return ok ? 0 : 1;
}
