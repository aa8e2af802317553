// Shared scenario builders for the benchmark harness: the four Figure 9
// configurations (stock-Linux local, NVMe-oF remote, our driver local, our
// driver remote) plus result-printing helpers.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/client.hpp"
#include "driver/local_driver.hpp"
#include "driver/manager.hpp"
#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "obs/metrics.hpp"
#include "workload/fio.hpp"
#include "workload/testbed.hpp"

namespace nvmeshare::bench {

using workload::Testbed;
using workload::TestbedConfig;

/// A ready-to-measure scenario: a testbed plus a block device and the node
/// the workload should run on. Owns everything via keep-alives.
struct Scenario {
  std::string name;
  std::unique_ptr<Testbed> testbed;
  block::BlockDevice* device = nullptr;
  sisci::NodeId workload_node = 0;

  // keep-alives (whichever the scenario uses)
  std::unique_ptr<driver::Manager> manager;
  std::unique_ptr<driver::Client> client;
  std::unique_ptr<driver::LocalDriver> local;
  std::unique_ptr<nvmeof::Target> target;
  std::unique_ptr<nvmeof::Initiator> initiator;
  std::vector<std::unique_ptr<driver::Manager>> standbys;
};

/// A testbed of `hosts` hosts on substrate `kind` (what `--substrate`
/// selected), with every other setting at its default.
inline TestbedConfig default_bench_testbed(std::uint32_t hosts, fabric::SubstrateKind kind) {
  TestbedConfig cfg;
  cfg.hosts = hosts;
  cfg.substrate = kind;
  return cfg;
}

[[noreturn]] inline void die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "FATAL: %s: %s\n", what.c_str(), st.to_string().c_str());
  std::exit(1);
}

/// Figure 9a left half: stock Linux NVMe driver on the device's host.
inline Scenario make_linux_local(TestbedConfig cfg = {}) {
  Scenario s;
  s.name = "linux-local";
  cfg.hosts = 1;
  s.testbed = std::make_unique<Testbed>(cfg);
  auto drv = s.testbed->wait(driver::LocalDriver::start(
      s.testbed->cluster(), s.testbed->nvme_endpoint(), &s.testbed->irq(0), {}));
  if (!drv) die("linux-local bring-up", drv.status());
  s.local = std::move(*drv);
  s.device = s.local.get();
  s.workload_node = 0;
  return s;
}

/// Figure 9a right half: NVMe-oF over RDMA, SPDK-style target on the device
/// host, kernel initiator on a second host.
inline Scenario make_nvmeof_remote(nvmeof::Initiator::Config init_cfg = {},
                                   TestbedConfig cfg = {},
                                   nvmeof::Target::Config target_cfg = {}) {
  Scenario s;
  s.name = "nvmeof-remote";
  if (cfg.hosts < 2) cfg.hosts = 2;
  s.testbed = std::make_unique<Testbed>(cfg);
  auto target = s.testbed->wait(nvmeof::Target::start(
      s.testbed->cluster(), s.testbed->nvme_endpoint(), s.testbed->network(), target_cfg));
  if (!target) die("nvmeof target bring-up", target.status());
  s.target = std::move(*target);
  auto initiator = s.testbed->wait(nvmeof::Initiator::connect(
      s.testbed->cluster(), s.testbed->network(), *s.target, 1, init_cfg));
  if (!initiator) die("nvmeof initiator connect", initiator.status());
  s.initiator = std::move(*initiator);
  s.device = s.initiator.get();
  s.workload_node = 1;
  return s;
}

/// Figure 9b left half: our distributed driver, manager and client on the
/// device's own host.
inline Scenario make_ours_local(driver::Client::Config client_cfg = {},
                                driver::Manager::Config mgr_cfg = {},
                                TestbedConfig cfg = {}) {
  Scenario s;
  s.name = "ours-local";
  cfg.hosts = 1;
  s.testbed = std::make_unique<Testbed>(cfg);
  auto mgr = s.testbed->wait(
      driver::Manager::start(s.testbed->service(), 0, s.testbed->device_id(), mgr_cfg));
  if (!mgr) die("ours-local manager", mgr.status());
  s.manager = std::move(*mgr);
  auto client = s.testbed->wait(
      driver::Client::attach(s.testbed->service(), 0, s.testbed->device_id(), client_cfg));
  if (!client) die("ours-local client", client.status());
  s.client = std::move(*client);
  s.device = s.client.get();
  s.workload_node = 0;
  return s;
}

/// Figure 9b right half: our distributed driver with the client on a remote
/// host reached through Dolphin-style NTB adapters and a cluster switch.
inline Scenario make_ours_remote(driver::Client::Config client_cfg = {},
                                 driver::Manager::Config mgr_cfg = {},
                                 TestbedConfig cfg = {}) {
  Scenario s;
  s.name = "ours-remote";
  if (cfg.hosts < 2) cfg.hosts = 2;
  s.testbed = std::make_unique<Testbed>(cfg);
  auto mgr = s.testbed->wait(
      driver::Manager::start(s.testbed->service(), 0, s.testbed->device_id(), mgr_cfg));
  if (!mgr) die("ours-remote manager", mgr.status());
  s.manager = std::move(*mgr);
  auto client = s.testbed->wait(
      driver::Client::attach(s.testbed->service(), 1, s.testbed->device_id(), client_cfg));
  if (!client) die("ours-remote client", client.status());
  s.client = std::move(*client);
  s.device = s.client.get();
  s.workload_node = 1;
  return s;
}

/// Start `count` hot-standby managers on hosts 2..2+count-1 of an ours-remote
/// scenario. The active manager must publish leases (mgr_cfg.lease_duration_ns
/// > 0) and the testbed must have 2 + count hosts. Each standby gets distinct
/// segment ids so its metadata segment can coexist with the active manager's.
inline void add_standbys(Scenario& s, std::uint32_t count, driver::Manager::Config mgr_cfg) {
  for (std::uint32_t i = 0; i < count; ++i) {
    driver::Manager::Config sc = mgr_cfg;
    sc.metadata_segment_id = 0x4d455442 + i;  // "METB", "METC", ...
    sc.private_segment_base = 0x4e000000 + (static_cast<sisci::SegmentId>(i) << 8);
    auto sb = s.testbed->wait(driver::Manager::start_standby(
        s.testbed->service(), static_cast<sisci::NodeId>(2 + i), s.testbed->device_id(), sc));
    if (!sb) die("standby manager bring-up", sb.status());
    s.standbys.push_back(std::move(*sb));
  }
}

/// Run one FIO-style job on a scenario and return the result. With
/// `tolerate_errors` (fault-injection runs), I/O errors are reported in the
/// result instead of aborting the process.
inline workload::JobResult run(Scenario& s, workload::JobSpec spec,
                               bool tolerate_errors = false) {
  spec.name = s.name;
  auto result = workload::run_job_blocking(s.testbed->cluster(), *s.device, s.workload_node,
                                           spec);
  if (!result) die("job on " + s.name, result.status());
  if (!tolerate_errors && result->errors != 0) {
    std::fprintf(stderr, "FATAL: %s completed with %llu I/O errors\n", s.name.c_str(),
                 static_cast<unsigned long long>(result->errors));
    std::exit(1);
  }
  return std::move(*result);
}

/// The paper's workload: 4 KiB random read or write at queue depth 1.
inline workload::JobSpec fio_qd1(bool read, std::uint64_t ops, std::uint64_t seed = 2024) {
  workload::JobSpec spec;
  spec.pattern =
      read ? workload::JobSpec::Pattern::randread : workload::JobSpec::Pattern::randwrite;
  spec.block_bytes = 4096;
  spec.queue_depth = 1;
  spec.ops = ops;
  spec.seed = seed;
  return spec;
}

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

// --- machine-readable output ---------------------------------------------------
//
// Every bench (and tools/nvsh_fio) can emit one JSON document of the shape
//   {"bench": "...", "config": {...}, "boxplots": [...], "metrics": {...}}
// where `metrics` is the global obs::Registry snapshot. nvsh_fio adds
// "sim": {"events": N, "ticks_elided": M} before `metrics`. Formatting is
// fixed so identical seeds produce byte-identical documents.

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline void append_box_json(std::string& out, const BoxSummary& box) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"label\":\"%s\",\"count\":%zu,\"min_us\":%.3f,\"p25_us\":%.3f,"
                "\"p50_us\":%.3f,\"p75_us\":%.3f,\"p99_us\":%.3f,\"max_us\":%.3f,"
                "\"mean_us\":%.3f,\"stddev_us\":%.3f}",
                json_escape(box.label).c_str(), box.count, box.min_us, box.p25_us, box.p50_us,
                box.p75_us, box.p99_us, box.max_us, box.mean_us, box.stddev_us);
  out += buf;
}

/// Bench config rendered as a flat string->string object.
using BenchConfig = std::vector<std::pair<std::string, std::string>>;

/// The engine work of one job: events dispatched and empty poll rounds
/// skipped (sim::Engine::ticks_elided()). Both are fixed by the seed and the
/// code, not by the machine, and neither is in the metrics registry.
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t ticks_elided = 0;
};

inline std::string bench_document(const std::string& bench, const BenchConfig& config,
                                  const std::vector<BoxSummary>& boxes,
                                  const SimCounts* sim = nullptr) {
  std::string out = "{\"bench\":\"" + json_escape(bench) + "\",\"config\":{";
  bool first = true;
  for (const auto& [key, value] : config) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(key) + "\":\"" + json_escape(value) + '"';
  }
  out += "},\"boxplots\":[";
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    if (i != 0) out += ',';
    append_box_json(out, boxes[i]);
  }
  out += ']';
  if (sim != nullptr) {
    out += ",\"sim\":{\"events\":" + std::to_string(sim->events) +
           ",\"ticks_elided\":" + std::to_string(sim->ticks_elided) + '}';
  }
  out += ",\"metrics\":";
  out += obs::Registry::global().to_json();
  out += "}\n";
  return out;
}

/// Write `doc` to `path` ("-" = stdout). Returns false (with a message on
/// stderr) if the file cannot be written.
inline bool write_bench_json(const std::string& path, const std::string& doc) {
  if (path == "-") {
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Value of `--json <path>` (or nullptr when absent) from a raw argv.
inline const char* json_flag(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return nullptr;
}

/// Value of `--trace <path>` (or nullptr when absent) from a raw argv.
inline const char* trace_flag(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace") return argv[i + 1];
  }
  return nullptr;
}

/// Value of `--substrate {ntb,cxl}` from a raw argv (default ntb). Exits with
/// a usage message on an unknown substrate name.
inline fabric::SubstrateKind substrate_flag(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--substrate") {
      auto kind = fabric::parse_substrate(argv[i + 1]);
      if (!kind) {
        std::fprintf(stderr, "unknown substrate '%s' (expected ntb or cxl)\n", argv[i + 1]);
        std::exit(2);
      }
      return *kind;
    }
  }
  return fabric::SubstrateKind::ntb;
}

}  // namespace nvmeshare::bench
