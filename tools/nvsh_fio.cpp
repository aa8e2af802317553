// nvsh_fio: command-line workload runner, the simulator's analog of the
// paper's measurement tool (fio 3.28). Builds one of the four Figure 9
// scenarios (or variants), runs a synthetic workload, and prints a summary.
// With --json it also writes the machine-readable bench document
// ({bench, config, boxplots[], sim{}, metrics{}}; "-" = stdout) with latency
// boxplots, the job's engine events and elided poll ticks, and a full
// obs::Registry metrics snapshot.
//
//   nvsh_fio --scenario ours-remote --rw randread --bs 4096 --qd 1 --ops 20000
//   nvsh_fio --scenario nvmeof-remote --rw randwrite --runtime-ms 50 --qd 8 --json -
//   nvsh_fio --scenario ours-remote --sq-placement host --data-path iommu --verify
//   nvsh_fio --faults "seed=7;ntb_link_down:host=1,at=1ms,for=300us" --ops 5000
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "bench/bench_util.hpp"
#include "fault/fault.hpp"

namespace {

using namespace nvmeshare;
using namespace nvmeshare::bench;

struct Options {
  std::string scenario = "ours-remote";
  std::string substrate = "ntb";
  std::string rw = "randread";
  std::uint32_t bs = 4096;
  std::uint32_t qd = 1;
  std::uint32_t channels = 1;
  std::uint64_t ops = 10'000;
  std::uint64_t runtime_ms = 0;
  std::uint64_t region_blocks = 0;
  std::uint64_t seed = 2024;
  std::string sq_placement = "device";
  std::string data_path = "bounce";
  bool verify = false;
  bool integrity = false;  ///< end-to-end PI / data-digest pipeline (MODEL.md §7)
  std::string qos_class;   ///< urgent | high | medium | low; non-empty enables WRR
  std::uint64_t qos_iops = 0;  ///< requested IOPS budget (0 = class default)
  std::string json_path;  ///< empty = no JSON document; "-" = stdout
  std::string faults;     ///< fault plan DSL (docs/faults.md); empty = no chaos
  std::uint32_t standbys = 0;  ///< hot-standby managers (ours-remote; MODEL.md §10)
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --scenario S      ours-remote | ours-local | linux-local | nvmeof-remote\n"
      "                    (default: ours-remote)\n"
      "  --substrate S     ntb | cxl: interconnect behind the scenario — the paper's\n"
      "                    PCIe/NTB fabric or the CXL pooled-memory substrate\n"
      "                    (default: ntb)\n"
      "  --rw MODE         randread | randwrite | randrw | seqread | seqwrite | randtrim\n"
      "  --bs BYTES        request size (default 4096)\n"
      "  --qd N            queue depth per channel (default 1)\n"
      "  --channels N      I/O channels (queue pairs) per attachment, ours-* and\n"
      "                    nvmeof scenarios (default 1; max 16)\n"
      "  --ops N           number of requests (default 10000; 0 with --runtime-ms)\n"
      "  --runtime-ms MS   run for simulated time instead of an op count\n"
      "  --region-blocks N working-set size in device blocks (default: 1 GiB worth;\n"
      "                    small regions make --verify reads hit written data)\n"
      "  --seed N          workload seed (default 2024)\n"
      "  --sq-placement P  device | host (ours-* scenarios; Fig. 8 knob)\n"
      "  --data-path P     bounce | iommu (ours-* scenarios; Section V knob)\n"
      "  --verify          check read data against this run's writes\n"
      "  --integrity       end-to-end data integrity: PI-formatted namespace,\n"
      "                    client PRACT/PRCHK + shadow-tuple verify, manager\n"
      "                    background scrub, NVMe-oF data digests\n"
      "  --qos-class C     urgent | high | medium | low: request this priority\n"
      "                    class at attach and enable WRR arbitration on the\n"
      "                    manager (ours-* scenarios; docs/MODEL.md §9)\n"
      "  --qos-iops N      request an IOPS budget with the grant; the granted\n"
      "                    (possibly clamped) value arms the client's pacer\n"
      "  --json PATH       write the bench document (boxplots + metrics snapshot)\n"
      "                    to PATH; \"-\" = stdout\n"
      "  --faults PLAN     deterministic fault-injection plan (docs/faults.md), e.g.\n"
      "                    \"seed=7;ntb_link_down:host=1,at=1ms,for=300us\"; also\n"
      "                    enables the drivers' recovery machinery (timeouts,\n"
      "                    retries, heartbeats, watchdogs)\n"
      "  --standbys N      start N hot-standby managers on extra hosts watching the\n"
      "                    active manager's lease (ours-remote only; enables epoch\n"
      "                    leases and client admin-path retry, MODEL.md §10). Pair\n"
      "                    with --faults \"host_crash:host=0,at=...\" to exercise\n"
      "                    takeover; the takeover count lands in --json\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--scenario")) {
      opt.scenario = need_value(i);
    } else if (!std::strcmp(arg, "--substrate")) {
      opt.substrate = need_value(i);
      if (!fabric::parse_substrate(opt.substrate)) {
        std::fprintf(stderr, "unknown substrate: %s\n", opt.substrate.c_str());
        usage(argv[0]);
      }
    } else if (!std::strcmp(arg, "--rw")) {
      opt.rw = need_value(i);
    } else if (!std::strcmp(arg, "--bs")) {
      opt.bs = static_cast<std::uint32_t>(std::strtoul(need_value(i), nullptr, 0));
    } else if (!std::strcmp(arg, "--qd")) {
      opt.qd = static_cast<std::uint32_t>(std::strtoul(need_value(i), nullptr, 0));
    } else if (!std::strcmp(arg, "--channels")) {
      opt.channels = static_cast<std::uint32_t>(std::strtoul(need_value(i), nullptr, 0));
    } else if (!std::strcmp(arg, "--ops")) {
      opt.ops = std::strtoull(need_value(i), nullptr, 0);
    } else if (!std::strcmp(arg, "--runtime-ms")) {
      opt.runtime_ms = std::strtoull(need_value(i), nullptr, 0);
      opt.ops = 0;
    } else if (!std::strcmp(arg, "--region-blocks")) {
      opt.region_blocks = std::strtoull(need_value(i), nullptr, 0);
    } else if (!std::strcmp(arg, "--seed")) {
      opt.seed = std::strtoull(need_value(i), nullptr, 0);
    } else if (!std::strcmp(arg, "--sq-placement")) {
      opt.sq_placement = need_value(i);
    } else if (!std::strcmp(arg, "--data-path")) {
      opt.data_path = need_value(i);
    } else if (!std::strcmp(arg, "--verify")) {
      opt.verify = true;
    } else if (!std::strcmp(arg, "--integrity")) {
      opt.integrity = true;
    } else if (!std::strcmp(arg, "--qos-class")) {
      opt.qos_class = need_value(i);
    } else if (!std::strcmp(arg, "--qos-iops")) {
      opt.qos_iops = std::strtoull(need_value(i), nullptr, 0);
    } else if (!std::strcmp(arg, "--json")) {
      opt.json_path = need_value(i);
    } else if (!std::strcmp(arg, "--faults")) {
      opt.faults = need_value(i);
    } else if (!std::strcmp(arg, "--standbys")) {
      opt.standbys = static_cast<std::uint32_t>(std::strtoul(need_value(i), nullptr, 0));
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage(argv[0]);
    }
  }
  return opt;
}

Scenario build_scenario(const Options& opt, const std::optional<fault::FaultPlan>& faults) {
  const bool chaos = faults.has_value();

  driver::Client::Config cc;
  cc.queue_depth = std::max(opt.qd, 1u);
  cc.queue_entries = static_cast<std::uint16_t>(std::max(64u, 2 * cc.queue_depth));
  cc.channels = opt.channels;
  if (opt.sq_placement == "host") {
    cc.sq_placement = driver::Client::SqPlacement::host_side;
  } else if (opt.sq_placement != "device") {
    std::fprintf(stderr, "bad --sq-placement\n");
    std::exit(2);
  }
  if (opt.data_path == "iommu") {
    cc.data_path = driver::Client::DataPath::iommu;
  } else if (opt.data_path != "bounce") {
    std::fprintf(stderr, "bad --data-path\n");
    std::exit(2);
  }

  driver::Manager::Config mc;
  if (!opt.qos_class.empty() || opt.qos_iops != 0) {
    if (opt.qos_class.empty() || opt.qos_class == "urgent") {
      cc.qos_class = nvme::SqPriority::urgent;
    } else if (opt.qos_class == "high") {
      cc.qos_class = nvme::SqPriority::high;
    } else if (opt.qos_class == "medium") {
      cc.qos_class = nvme::SqPriority::medium;
    } else if (opt.qos_class == "low") {
      cc.qos_class = nvme::SqPriority::low;
    } else {
      std::fprintf(stderr, "bad --qos-class\n");
      std::exit(2);
    }
    cc.qos_iops = static_cast<std::uint32_t>(opt.qos_iops);
    mc.enable_wrr = true;
  }
  nvmeof::Initiator::Config ic;
  ic.channels = opt.channels;
  nvmeof::Target::Config tc;
  if (opt.integrity) {
    cc.pi_verify = true;
    mc.scrub_interval_ns = 200'000;  // background scrub rides along with the workload
    ic.data_digest = true;
    tc.data_digest = true;
  }
  if (chaos) {
    // Recovery knobs are all off by default (fault-free runs must execute
    // the exact seed instruction stream); a fault plan turns them on.
    cc.cmd_timeout_ns = 2'000'000;     // 2 ms per-command deadline
    cc.cmd_retry_limit = 4;
    cc.retry_backoff_ns = 100'000;
    cc.heartbeat_interval_ns = 500'000;
    mc.client_heartbeat_timeout_ns = 2'000'000;
    mc.csts_poll_interval_ns = 100'000;
    ic.capsule_timeout_ns = 2'000'000;
    ic.capsule_retry_limit = 4;
  }
  if (opt.standbys > 0) {
    if (opt.scenario != "ours-remote") {
      std::fprintf(stderr, "--standbys requires --scenario ours-remote\n");
      std::exit(2);
    }
    // Hot-standby takeover (MODEL.md §10): the active manager publishes an
    // epoch lease and clients ride a takeover out with mailbox retries.
    mc.lease_duration_ns = 1'000'000;
    mc.client_heartbeat_timeout_ns = 4'000'000;
    cc.mailbox_timeout_ns = 1'000'000;
    cc.mailbox_retry_limit = 12;
    cc.mailbox_retry_backoff_ns = 100'000;
    cc.heartbeat_interval_ns = 300'000;
  }

  auto testbed = [&](std::uint32_t hosts) {
    workload::TestbedConfig cfg =
        default_bench_testbed(hosts, *fabric::parse_substrate(opt.substrate));
    cfg.nvme.pi_enabled = opt.integrity;  // "format with metadata"
    cfg.faults = faults;
    return cfg;
  };
  if (opt.scenario == "ours-remote") {
    Scenario s = make_ours_remote(cc, mc, testbed(2 + opt.standbys));
    if (opt.standbys > 0) add_standbys(s, opt.standbys, mc);
    return s;
  }
  if (opt.scenario == "ours-local") return make_ours_local(cc, mc, testbed(1));
  if (opt.scenario == "linux-local") return make_linux_local(testbed(1));
  if (opt.scenario == "nvmeof-remote") return make_nvmeof_remote(ic, testbed(2), tc);
  std::fprintf(stderr, "bad --scenario\n");
  std::exit(2);
}

workload::JobSpec build_spec(const Options& opt) {
  workload::JobSpec spec;
  if (opt.rw == "randread") {
    spec.pattern = workload::JobSpec::Pattern::randread;
  } else if (opt.rw == "randwrite") {
    spec.pattern = workload::JobSpec::Pattern::randwrite;
  } else if (opt.rw == "randrw") {
    spec.pattern = workload::JobSpec::Pattern::randrw;
  } else if (opt.rw == "seqread") {
    spec.pattern = workload::JobSpec::Pattern::seqread;
  } else if (opt.rw == "seqwrite") {
    spec.pattern = workload::JobSpec::Pattern::seqwrite;
  } else if (opt.rw == "randtrim") {
    spec.pattern = workload::JobSpec::Pattern::randtrim;
  } else {
    std::fprintf(stderr, "bad --rw\n");
    std::exit(2);
  }
  spec.block_bytes = opt.bs;
  // --qd is per channel; the job keeps every channel's slots busy.
  spec.queue_depth = std::max(opt.qd, 1u) * std::max(opt.channels, 1u);
  spec.ops = opt.ops;
  spec.duration = static_cast<sim::Duration>(opt.runtime_ms) * 1'000'000;
  spec.region_blocks = opt.region_blocks;
  spec.seed = opt.seed;
  spec.verify = opt.verify;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.ops == 0 && opt.runtime_ms == 0) usage(argv[0]);

  const bool chaos = !opt.faults.empty();
  std::optional<fault::FaultPlan> faults;
  if (chaos) {
    auto plan = fault::parse_plan(opt.faults);
    if (!plan) {
      std::fprintf(stderr, "bad --faults plan: %s\n", plan.status().to_string().c_str());
      return 2;
    }
    faults = std::move(*plan);
  }

  // The testbed installs the plan before bring-up (drivers register crash
  // handlers with it as they start); arm it after, so timed faults (`at=`)
  // never race controller initialization.
  Scenario scenario = build_scenario(opt, faults);
  scenario.testbed->substrate().arm_faults();
  const sim::Engine& engine = scenario.testbed->engine();
  const SimCounts before{engine.events_processed(), engine.ticks_elided()};
  const workload::JobResult result = run(scenario, build_spec(opt), /*tolerate_errors=*/chaos);
  const SimCounts job{engine.events_processed() - before.events,
                      engine.ticks_elided() - before.ticks_elided};

  std::uint64_t takeovers = 0;
  for (const auto& sb : scenario.standbys) takeovers += sb->stats().takeovers.value();

  const auto& lat = result.total_latency;
  const bool quiet = opt.json_path == "-";  // keep stdout parseable
  if (!quiet) {
    std::printf("%s: %s bs=%u qd=%u\n", opt.scenario.c_str(), opt.rw.c_str(), opt.bs,
                opt.qd);
    std::printf("  ops=%llu errors=%llu verify_failures=%llu\n",
                static_cast<unsigned long long>(result.ops_completed),
                static_cast<unsigned long long>(result.errors),
                static_cast<unsigned long long>(result.verify_failures));
    std::printf("  iops=%.1f (%.2f MiB/s), elapsed %.3f ms simulated\n", result.iops(),
                result.throughput_mib_s(opt.bs), static_cast<double>(result.elapsed) / 1e6);
    std::printf("  latency us: min=%.2f p50=%.2f p99=%.2f max=%.2f mean=%.2f\n",
                ns_to_us(lat.min()), lat.percentile(50) / 1000.0, lat.percentile(99) / 1000.0,
                ns_to_us(lat.max()), lat.mean() / 1000.0);
    if (opt.standbys > 0) {
      std::printf("  standbys=%u takeovers=%llu\n", opt.standbys,
                  static_cast<unsigned long long>(takeovers));
    }
  }
  bool json_ok = true;
  if (!opt.json_path.empty()) {
    std::vector<BoxSummary> boxes;
    if (result.read_latency.count() != 0) {
      boxes.push_back(BoxSummary::from(opt.scenario + "/read", result.read_latency));
    }
    if (result.write_latency.count() != 0) {
      boxes.push_back(BoxSummary::from(opt.scenario + "/write", result.write_latency));
    }
    boxes.push_back(BoxSummary::from(opt.scenario + "/total", result.total_latency));
    BenchConfig config{{"scenario", opt.scenario},
                       {"substrate", opt.substrate},
                       {"rw", opt.rw},
                       {"bs", std::to_string(opt.bs)},
                       {"qd", std::to_string(opt.qd)},
                       {"channels", std::to_string(opt.channels)},
                       {"ops", std::to_string(result.ops_completed)},
                       {"seed", std::to_string(opt.seed)},
                       {"verify", opt.verify ? "1" : "0"},
                       {"integrity", opt.integrity ? "1" : "0"},
                       {"qos_class", opt.qos_class},
                       {"qos_iops", std::to_string(opt.qos_iops)}};
    if (chaos) config.emplace_back("faults", opt.faults);
    if (opt.standbys > 0) {
      config.emplace_back("standbys", std::to_string(opt.standbys));
      config.emplace_back("takeovers", std::to_string(takeovers));
    }
    json_ok = write_bench_json(opt.json_path, bench_document("nvsh_fio", config, boxes, &job));
  }
  return result.errors == 0 && result.verify_failures == 0 && json_ok ? 0 : 1;
}
