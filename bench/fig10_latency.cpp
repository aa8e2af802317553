// Reproduces Figure 10 of the paper: I/O command completion latency for
// 4 KiB random reads and writes at queue depth 1, across four scenarios:
//
//   linux-local    stock Linux NVMe driver, device in the same host
//   nvmeof-remote  NVMe-oF over RDMA (SPDK-style target), second host
//   ours-local     the distributed driver operating the local device
//   ours-remote    the distributed driver from a remote host over PCIe/NTB
//
// The paper reports boxplots (whiskers min..p99) and highlights the
// *minimum* latency deltas: NVMe-oF adds 7.7 us (read) / 7.5 us (write)
// over local access, while the PCIe/NTB path adds only ~1 us (read) /
// ~2 us (write) — the network latency is "almost eliminated".
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace nvmeshare;
using namespace nvmeshare::bench;

constexpr std::uint64_t kOps = 15'000;

struct Measured {
  BoxSummary read;
  BoxSummary write;
};

Measured measure(Scenario scenario) {
  auto read_result = run(scenario, fio_qd1(/*read=*/true, kOps));
  auto write_result = run(scenario, fio_qd1(/*read=*/false, kOps, /*seed=*/4048));
  return Measured{
      BoxSummary::from(scenario.name + "/randread", read_result.read_latency),
      BoxSummary::from(scenario.name + "/randwrite", write_result.write_latency),
  };
}

}  // namespace

int main(int argc, char** argv) {
  const fabric::SubstrateKind kind = substrate_flag(argc, argv);
  const bool ntb = kind == fabric::SubstrateKind::ntb;
  print_header("Figure 10: I/O command completion latency (4 KiB, QD=1)");
  std::printf("substrate: %s\n", std::string(fabric::substrate_name(kind)).c_str());
  std::printf("ops per box: %llu (paper: 60 s of fio 3.28 per test)\n",
              static_cast<unsigned long long>(kOps));

  Measured linux_local = measure(make_linux_local(default_bench_testbed(1, kind)));
  Measured nvmeof = measure(make_nvmeof_remote({}, default_bench_testbed(2, kind)));
  Measured ours_local = measure(make_ours_local({}, {}, default_bench_testbed(1, kind)));
  Measured ours_remote = measure(make_ours_remote({}, {}, default_bench_testbed(2, kind)));

  const std::vector<BoxSummary> reads{linux_local.read, nvmeof.read, ours_local.read,
                                      ours_remote.read};
  const std::vector<BoxSummary> writes{linux_local.write, nvmeof.write, ours_local.write,
                                       ours_remote.write};

  std::printf("\n%s\n", format_box_header().c_str());
  for (const auto& b : reads) std::printf("%s\n", format_box_row(b).c_str());
  for (const auto& b : writes) std::printf("%s\n", format_box_row(b).c_str());

  std::printf("\nrandom read latency (whiskers min..p99, '=' box p25..p75, '#' median):\n%s",
              render_ascii_boxplot(reads).c_str());
  std::printf("\nrandom write latency:\n%s", render_ascii_boxplot(writes).c_str());

  // The deltas the paper calls out in Section VI.
  const double d_nvmeof_r = nvmeof.read.min_us - linux_local.read.min_us;
  const double d_nvmeof_w = nvmeof.write.min_us - linux_local.write.min_us;
  const double d_ours_r = ours_remote.read.min_us - ours_local.read.min_us;
  const double d_ours_w = ours_remote.write.min_us - ours_local.write.min_us;

  print_header("minimum-latency deltas (remote minus local)");
  std::printf("%-44s %10s %10s\n", "comparison", "measured", "paper");
  std::printf("%-44s %8.2fus %8.2fus\n", "NVMe-oF remote vs linux local, read", d_nvmeof_r,
              7.7);
  std::printf("%-44s %8.2fus %8.2fus\n", "NVMe-oF remote vs linux local, write", d_nvmeof_w,
              7.5);
  std::printf("%-44s %8.2fus %8.2fus\n", "ours remote vs ours local, read", d_ours_r, 1.0);
  std::printf("%-44s %8.2fus %8.2fus\n", "ours remote vs ours local, write", d_ours_w, 2.0);
  if (!ntb) {
    std::printf("(paper columns are the PCIe/NTB numbers; CXL pooled memory has no NTB "
                "hop, so remote deltas shrink further)\n");
  }

  print_header("shape checks (the qualitative claims of Section VI)");
  auto check = [](const char* what, bool ok) {
    std::printf("  [%s] %s\n", ok ? "ok" : "MISMATCH", what);
    return ok;
  };
  bool all = true;
  all &= check("our driver has a higher local baseline than the stock driver (naive, "
               "polling, bounce copy)",
               ours_local.read.min_us > linux_local.read.min_us);
  all &= check("NVMe-oF pays several microseconds of network overhead (read)",
               d_nvmeof_r > 4.0);
  all &= check("NVMe-oF pays several microseconds of network overhead (write)",
               d_nvmeof_w > 4.0);
  if (ntb) {
    all &= check("our remote read overhead is ~1 us (within 0.5..2 us)",
                 d_ours_r > 0.5 && d_ours_r < 2.0);
    all &= check("our remote write overhead is ~2 us (within 1..3 us)",
                 d_ours_w > 1.0 && d_ours_w < 3.0);
    all &= check("remote write overhead exceeds remote read overhead (non-posted data "
                 "fetch crosses the NTB twice)",
                 d_ours_w > d_ours_r);
  } else {
    // CXL pooled memory: queues/bounce live in the shared pool, so the
    // remote penalty is just the extra port hops — well under the NTB path
    // and far under the fabric.
    all &= check("CXL remote read overhead stays under 3 us", d_ours_r < 3.0);
    all &= check("CXL remote write overhead stays under 3 us", d_ours_w < 3.0);
    all &= check("CXL remote overhead beats the NVMe-oF fabric (read)",
                 d_ours_r < d_nvmeof_r);
    all &= check("CXL remote overhead beats the NVMe-oF fabric (write)",
                 d_ours_w < d_nvmeof_w);
  }
  all &= check("our remote access beats NVMe-oF remote access (read)",
               ours_remote.read.p50_us < nvmeof.read.p50_us);
  all &= check("our remote access beats NVMe-oF remote access (write)",
               ours_remote.write.p50_us < nvmeof.write.p50_us);
  all &= check("Optane-like consistency: p99 within 2x median everywhere",
               linux_local.read.p99_us < 2 * linux_local.read.p50_us &&
                   ours_remote.read.p99_us < 2 * ours_remote.read.p50_us);

  if (const char* path = json_flag(argc, argv)) {
    std::vector<BoxSummary> boxes = reads;
    boxes.insert(boxes.end(), writes.begin(), writes.end());
    BenchConfig config{{"substrate", std::string(fabric::substrate_name(kind))},
                      {"block_bytes", "4096"},
                      {"queue_depth", "1"},
                      {"ops", std::to_string(kOps)}};
    if (!write_bench_json(path, bench_document("fig10_latency", config, boxes))) all = false;
  }

  std::printf("\n%s\n", all ? "ALL SHAPE CHECKS PASSED" : "SOME SHAPE CHECKS FAILED");
  return all ? 0 : 1;
}
