// perfbench_sim: the repository benchmark. One process runs one named
// workload against the simulator's public API and prints its metrics; the
// last line of standard output is the result JSON. perfbench/README.md
// defines the workloads and metrics and lists what is left out.
//
//   perfbench_sim --workload paper_qd1 --seed 2024 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics: it repeats the run with obs::Tracer and the benchmark's own spans
// enabled, checks that the simulated results did not change, and writes the
// spans as Chrome trace JSON into --trace-dir.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "block/sharded_device.hpp"
#include "driver/client.hpp"
#include "driver/local_driver.hpp"
#include "driver/manager.hpp"
#include "harness.hpp"
#include "mux/mux.hpp"
#include "nvmeof/initiator.hpp"
#include "nvmeof/target.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/testbed.hpp"

namespace {

using namespace nvmeshare;
using namespace perfbench;

/// The seed bench/fig10_latency was calibrated at.
constexpr std::uint64_t kCalibrationSeed = 2024;
/// Timed rounds of equal work per run; see host_ios_per_s().
constexpr std::size_t kRounds = 100;
/// Requests of the untimed Fig. 10 probe that gives paper_delta_err_us on
/// the workloads that do not run the four Fig. 10 scenarios themselves.
constexpr std::size_t kProbeIos = 160'000;
constexpr std::size_t kSpanCapacity = 100'000;
constexpr std::size_t kTracerCapacity = 1 << 17;
/// Reference-load steps timed on each side of a bring-up, and of a round
/// (split evenly over its phases); about 4 ms on an idle core.
constexpr std::size_t kRefSteps = 30'000;
/// The reference load's speed on an idle core of a 2.1 GHz Xeon VM: host
/// times are reported in seconds of a core that fast.
constexpr double kRefStepsPerSecond = 8.0e6;

constexpr std::uint32_t kTenantHosts = 32;  ///< host 0 borrows nothing; 1..31 do
constexpr std::uint32_t kTenantDevices = 4;
constexpr std::uint32_t kTenantsPerHost = 5;  ///< 31 * 5 = 155 tenants
constexpr std::uint16_t kTenantCids = 5;
constexpr std::uint32_t kTenantQd = 2;
constexpr std::size_t kMaxDevices = kTenantDevices;

enum class Kind { paper_qd1, deep_randrw, bulk_seq, tenants };

struct WorkloadInfo {
  const char* name;
  Kind kind;
  /// Requests issued per --seconds. It sizes the request lists, so a run
  /// lasts about --seconds on a current x86 core while every simulated
  /// count stays a function of (seed, seconds) alone.
  double ios_per_second;
  std::size_t setups;  ///< bring-ups per run; setup_s is their median
};

constexpr WorkloadInfo kWorkloads[] = {
    {"paper_qd1", Kind::paper_qd1, 75'000, 21},
    {"deep_randrw", Kind::deep_randrw, 90'000, 21},
    {"bulk_seq", Kind::bulk_seq, 8'000, 21},
    {"tenants", Kind::tenants, 16'000, 3},
};

/// model.* buckets; a workload reports 0 for the scenarios it does not run.
constexpr const char* kScenarios[] = {"linux-local", "ours-local", "ours-remote",
                                      "nvmeof-remote", "tenants"};
constexpr int kScenarioCount = static_cast<int>(std::size(kScenarios));

int scenario_index(const std::string& name) {
  for (int i = 0; i < kScenarioCount; ++i) {
    if (name == kScenarios[i]) return i;
  }
  return 0;
}

struct Options {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = kCalibrationSeed;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {paper_qd1|deep_randrw|bulk_seq|tenants} [--seed N]\n"
               "          [--seconds S] [--trace 0|1] [--trace-dir DIR]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage(argv[0]);
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    if (arg == "--workload") {
      for (const WorkloadInfo& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) opt.workload = &w;
      }
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage(argv[0]);
      opt.trace = value[0] == '1';
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.workload == nullptr || !(opt.seconds > 0 && opt.seconds <= 600)) usage(argv[0]);
  return opt;
}

[[noreturn]] void die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(), st.to_string().c_str());
  std::exit(1);
}

template <typename T>
T must(Result<T> result, const char* what) {
  if (!result) die(what, result.status());
  return std::move(*result);
}

/// Media-jitter seed of the modeled drives: the calibrated default at the
/// calibration seed, shifted by the seed's distance from it otherwise, so
/// each seed gives the model its own jitter stream.
std::uint64_t device_seed(std::uint64_t seed) {
  return nvme::Controller::Config{}.seed + (seed - kCalibrationSeed);
}

// --- bring-up --------------------------------------------------------------------

/// Host time of the program's bring-up calls; setup_s is their total.
struct BringUp {
  double testbed_s = 0;
  double manager_s = 0;
  double attach_s = 0;
  double share_s = 0;
  double device_s = 0;  ///< local driver, NVMe-oF target + initiator, tenant + sharded devices
  std::uint32_t attaches = 0;
  std::uint32_t shares = 0;

  [[nodiscard]] double total() const {
    return testbed_s + manager_s + attach_s + share_s + device_s;
  }
};

/// One brought-up scenario: a testbed plus the drivers and devices streams
/// submit to. Members are destroyed bottom-up: devices before the clients
/// they sit on, everything before the testbed.
struct Rig {
  std::string scenario;
  std::unique_ptr<workload::Testbed> bed;
  std::vector<std::unique_ptr<driver::Manager>> managers;
  std::vector<std::unique_ptr<driver::Client>> clients;
  std::unique_ptr<driver::LocalDriver> local;
  std::unique_ptr<nvmeof::Target> target;
  std::unique_ptr<nvmeof::Initiator> initiator;
  std::vector<std::unique_ptr<mux::TenantDevice>> tenant_devs;
  std::vector<std::unique_ptr<block::ShardedDevice>> sharded;
  /// What streams submit to, and the host each one submits from.
  std::vector<block::BlockDevice*> devices;
  std::vector<sisci::NodeId> nodes;
  std::vector<const block::IoEngine*> io_engines;
  /// The payload pool's address in each submitting host's DRAM.
  std::map<sisci::NodeId, std::vector<std::uint64_t>> payload_addr;
};

using Rigs = std::vector<std::unique_ptr<Rig>>;

std::unique_ptr<Rig> new_rig(const char* scenario, workload::TestbedConfig cfg,
                             std::uint64_t seed, BringUp& bu) {
  auto rig = std::make_unique<Rig>();
  rig->scenario = scenario;
  cfg.nvme.seed = device_seed(seed);
  rig->bed = timed("testbed", bu.testbed_s,
                   [&] { return std::make_unique<workload::Testbed>(cfg); });
  return rig;
}

void add_device(Rig& rig, block::BlockDevice& dev, sisci::NodeId node) {
  rig.devices.push_back(&dev);
  rig.nodes.push_back(node);
}

void start_manager(Rig& rig, std::uint32_t dev, const driver::Manager::Config& mc, BringUp& bu) {
  workload::Testbed& bed = *rig.bed;
  rig.managers.push_back(must(timed("manager_start", bu.manager_s,
                                    [&] {
                                      return bed.wait(driver::Manager::start(
                                          bed.service(), bed.device_host(dev),
                                          bed.device_id(dev), mc));
                                    }),
                              "manager start"));
}

driver::Client& attach_client(Rig& rig, sisci::NodeId node, std::uint32_t dev,
                              const driver::Client::Config& cc, BringUp& bu) {
  workload::Testbed& bed = *rig.bed;
  rig.clients.push_back(must(timed("attach", bu.attach_s,
                                   [&] {
                                     return bed.wait(driver::Client::attach(
                                         bed.service(), node, bed.device_id(dev), cc));
                                   }),
                             "client attach"));
  ++bu.attaches;
  rig.io_engines.push_back(&rig.clients.back()->io_engine());
  return *rig.clients.back();
}

/// Fig. 9a left: the stock Linux driver on the device's host.
std::unique_ptr<Rig> linux_local(std::uint64_t seed, BringUp& bu) {
  workload::TestbedConfig cfg;
  cfg.hosts = 1;
  auto rig = new_rig("linux-local", cfg, seed, bu);
  workload::Testbed& bed = *rig->bed;
  rig->local = must(timed("local_driver_start", bu.device_s,
                          [&] {
                            return bed.wait(driver::LocalDriver::start(
                                bed.cluster(), bed.nvme_endpoint(), &bed.irq(0), {}));
                          }),
                    "local driver start");
  rig->io_engines.push_back(&rig->local->io_engine());
  add_device(*rig, *rig->local, 0);
  return rig;
}

/// Fig. 9b: our distributed driver, client on the device's host or on a
/// second host across the NTB fabric.
std::unique_ptr<Rig> ours(bool remote, const driver::Client::Config& cc, std::uint64_t seed,
                          BringUp& bu) {
  workload::TestbedConfig cfg;
  cfg.hosts = remote ? 2 : 1;
  auto rig = new_rig(remote ? "ours-remote" : "ours-local", cfg, seed, bu);
  start_manager(*rig, 0, {}, bu);
  const sisci::NodeId node = remote ? 1 : 0;
  add_device(*rig, attach_client(*rig, node, 0, cc, bu), node);
  return rig;
}

/// Fig. 9a right: NVMe-oF over RDMA, initiator on a second host.
std::unique_ptr<Rig> nvmeof_remote(const nvmeof::Initiator::Config& ic, std::uint64_t seed,
                                   BringUp& bu) {
  workload::TestbedConfig cfg;
  cfg.hosts = 2;
  auto rig = new_rig("nvmeof-remote", cfg, seed, bu);
  workload::Testbed& bed = *rig->bed;
  rig->target = must(timed("target_start", bu.device_s,
                           [&] {
                             return bed.wait(nvmeof::Target::start(
                                 bed.cluster(), bed.nvme_endpoint(), bed.network(), {}));
                           }),
                     "nvmeof target start");
  rig->initiator = must(timed("initiator_connect", bu.device_s,
                              [&] {
                                return bed.wait(nvmeof::Initiator::connect(
                                    bed.cluster(), bed.network(), *rig->target, 1, ic));
                              }),
                        "nvmeof initiator connect");
  rig->io_engines.push_back(&rig->initiator->io_engine());
  add_device(*rig, *rig->initiator, 1);
  return rig;
}

/// bench/fig13_tenants' cluster: 4 controllers with a manager each, 31
/// borrowing hosts with one client per controller, and per host 5 tenants,
/// each a ShardedDevice over a TenantDevice share on each of its 4 clients.
std::unique_ptr<Rig> tenant_cluster(std::uint64_t seed, BringUp& bu) {
  workload::TestbedConfig cfg;
  cfg.hosts = kTenantHosts;
  cfg.nvme_devices = kTenantDevices;
  auto rig = new_rig("tenants", cfg, seed, bu);
  workload::Testbed& bed = *rig->bed;
  for (std::uint32_t d = 0; d < kTenantDevices; ++d) {
    driver::Manager::Config mc;
    mc.metadata_segment_id += d;
    mc.private_segment_base += static_cast<sisci::SegmentId>(d) << 8;
    start_manager(*rig, d, mc, bu);
  }
  for (sisci::NodeId h = 1; h < kTenantHosts; ++h) {
    std::vector<driver::Client*> clients;
    for (std::uint32_t d = 0; d < kTenantDevices; ++d) {
      driver::Client::Config cc;
      cc.segment_namespace = d;
      clients.push_back(&attach_client(*rig, h, d, cc, bu));
    }
    for (std::uint32_t t = 1; t <= kTenantsPerHost; ++t) {
      std::vector<block::BlockDevice*> shards;
      for (driver::Client* client : clients) {
        driver::Client::ShareRequest req;
        req.tenant = t;
        req.cid_count = kTenantCids;
        (void)must(timed("share_grant", bu.share_s,
                         [&] { return bed.wait(client->create_share(req)); }),
                   "create_share");
        ++bu.shares;
        shards.push_back(timed("tenant_device", bu.device_s, [&] {
          rig->tenant_devs.push_back(
              std::make_unique<mux::TenantDevice>(*client->multiplexer(), *client, t));
          return rig->tenant_devs.back().get();
        }));
      }
      block::ShardedDevice* ns = timed("sharded_device", bu.device_s, [&] {
        rig->sharded.push_back(std::make_unique<block::ShardedDevice>(
            bed.engine(), std::move(shards), block::ShardedDevice::Config{}));
        return rig->sharded.back().get();
      });
      add_device(*rig, *ns, h);
    }
  }
  return rig;
}

Rigs bring_up(Kind kind, std::uint64_t seed, BringUp& bu) {
  Rigs rigs;
  switch (kind) {
    case Kind::paper_qd1:
      rigs.push_back(linux_local(seed, bu));
      rigs.push_back(nvmeof_remote({}, seed, bu));
      rigs.push_back(ours(false, {}, seed, bu));
      rigs.push_back(ours(true, {}, seed, bu));
      break;
    case Kind::deep_randrw: {
      driver::Client::Config cc;
      cc.channels = 4;
      cc.queue_depth = 32;
      cc.queue_entries = 64;
      rigs.push_back(ours(true, cc, seed, bu));
      break;
    }
    case Kind::bulk_seq: {
      driver::Client::Config cc;
      cc.channels = 4;
      cc.queue_depth = 8;
      cc.queue_entries = 64;
      nvmeof::Initiator::Config ic;
      ic.channels = 4;
      ic.queue_depth = 8;
      rigs.push_back(ours(true, cc, seed, bu));
      rigs.push_back(nvmeof_remote(ic, seed, bu));
      break;
    }
    case Kind::tenants:
      rigs.push_back(tenant_cluster(seed, bu));
      break;
  }
  return rigs;
}

// --- generator plan ------------------------------------------------------------------

/// The measured work: streams over the rigs and the phases one round runs
/// in order. Every request list and payload is built from the seed before
/// the clock starts.
struct Plan {
  struct Phase {
    Rig* rig = nullptr;
    std::vector<Stream*> streams;
    std::size_t ops = 0;  ///< requests per stream per round
  };
  Rigs rigs;
  std::unique_ptr<PayloadPool> pool;
  std::vector<std::unique_ptr<Stream>> streams;
  std::vector<Phase> phases;
  std::uint32_t request_bytes = 0;
};

/// Add a stream on device `dev` of `rig` with `ops` requests per round.
Stream& add_stream(Plan& plan, Rig& rig, std::size_t dev, const StreamShape& shape,
                   std::size_t ops, Rng& rng) {
  const sisci::NodeId node = rig.nodes.at(dev);
  std::vector<std::uint64_t>& addrs = rig.payload_addr[node];
  if (addrs.empty()) addrs = must(plan.pool->place(rig.bed->cluster(), node), "payload placement");
  auto s = std::make_unique<Stream>();
  s->engine = &rig.bed->engine();
  s->device = rig.devices.at(dev);
  s->dram = &rig.bed->substrate().host_dram(node);
  s->payload_addr = &addrs;
  s->read_buffer = must(rig.bed->cluster().alloc_dram(node, plan.request_bytes), "read buffer");
  s->scenario = scenario_index(rig.scenario);
  s->reqs = make_requests(shape, ops * kRounds, plan.pool->count(), rng);
  const auto writes = static_cast<std::size_t>(
      std::count_if(s->reqs.begin(), s->reqs.end(), [](const Req& r) { return r.write; }));
  s->write_ns.reserve(writes);
  s->read_ns.reserve(s->reqs.size() - writes);
  s->round_marks.reserve(kRounds);
  plan.streams.push_back(std::move(s));
  return *plan.streams.back();
}

Plan prepare(Kind kind, Rigs rigs, std::uint64_t seed, std::size_t total_ios) {
  Plan plan;
  plan.rigs = std::move(rigs);
  Rng rng(seed ^ 0x70657266'62656e63ULL);
  const auto per_stream = [&](std::size_t streams_per_round) {
    return std::max<std::size_t>(1, total_ios / (kRounds * streams_per_round));
  };
  switch (kind) {
    case Kind::paper_qd1: {
      // fio's QD-1 random read pass then random write pass, per scenario,
      // over a 16 MiB region: the drive's sparse store keeps every written
      // 32 KiB chunk, so a wider region would cost host memory, not fidelity.
      plan.request_bytes = 4096;
      plan.pool = std::make_unique<PayloadPool>(64, plan.request_bytes, rng.next());
      const std::size_t ops = per_stream(2 * plan.rigs.size());
      for (auto& rig : plan.rigs) {
        StreamShape shape{0, 16 * MiB / 4096, 8, 0.0, false};
        Stream& reads = add_stream(plan, *rig, 0, shape, ops, rng);
        shape.write_fraction = 1.0;
        Stream& writes = add_stream(plan, *rig, 0, shape, ops, rng);
        plan.phases.push_back({rig.get(), {&reads}, ops});
        plan.phases.push_back({rig.get(), {&writes}, ops});
      }
      break;
    }
    case Kind::deep_randrw: {
      // 4 channels x QD 32, 70/30 random read/write, one 1 MiB slice per
      // stream (128 MiB in all): enough distinct chunks for the store's
      // chunk granularity to show in memory, small enough to stay bounded.
      plan.request_bytes = 4096;
      plan.pool = std::make_unique<PayloadPool>(256, plan.request_bytes, rng.next());
      Rig& rig = *plan.rigs.front();
      constexpr std::uint32_t kStreams = 4 * 32;
      const std::size_t ops = per_stream(kStreams);
      Plan::Phase phase{&rig, {}, ops};
      for (std::uint32_t i = 0; i < kStreams; ++i) {
        phase.streams.push_back(
            &add_stream(plan, rig, 0, {i * 2048ULL, 256, 8, 0.3, false}, ops, rng));
      }
      plan.phases.push_back(std::move(phase));
      break;
    }
    case Kind::bulk_seq: {
      // 4 channels x QD 8 of 128 KiB requests per stack: a sequential write
      // pass, then a sequential read pass, each stream walking its own 2 MiB
      // slice and wrapping.
      plan.request_bytes = 128 * KiB;
      plan.pool = std::make_unique<PayloadPool>(16, plan.request_bytes, rng.next());
      constexpr std::uint32_t kStreams = 4 * 8;
      const std::size_t ops = per_stream(2 * kStreams * plan.rigs.size());
      for (auto& rig : plan.rigs) {
        Plan::Phase writes{rig.get(), {}, ops};
        Plan::Phase reads{rig.get(), {}, ops};
        for (std::uint32_t i = 0; i < kStreams; ++i) {
          StreamShape shape{i * 4096ULL, 16, 256, 1.0, true};
          writes.streams.push_back(&add_stream(plan, *rig, 0, shape, ops, rng));
          shape.write_fraction = 0.0;
          reads.streams.push_back(&add_stream(plan, *rig, 0, shape, ops, rng));
        }
        plan.phases.push_back(std::move(writes));
        plan.phases.push_back(std::move(reads));
      }
      break;
    }
    case Kind::tenants: {
      // 155 tenants at QD 2, 70/30 random read/write. Each tenant owns
      // 512 KiB of the sharded namespace (eight 64 KiB stripes, so all four
      // controllers see it) and its two streams split that range.
      plan.request_bytes = 4096;
      plan.pool = std::make_unique<PayloadPool>(64, plan.request_bytes, rng.next());
      Rig& rig = *plan.rigs.front();
      const std::size_t tenants = rig.devices.size();
      const std::size_t ops = per_stream(tenants * kTenantQd);
      Plan::Phase phase{&rig, {}, ops};
      for (std::size_t t = 0; t < tenants; ++t) {
        for (std::uint32_t j = 0; j < kTenantQd; ++j) {
          Stream& s =
              add_stream(plan, rig, t, {t * 1024 + j * 512ULL, 64, 8, 0.3, false}, ops, rng);
          s.group = static_cast<int>(t);
          phase.streams.push_back(&s);
        }
      }
      plan.phases.push_back(std::move(phase));
      break;
    }
  }
  return plan;
}

// --- measurement ---------------------------------------------------------------------

/// Counters read from the program's public stats() and registry cells;
/// their differences over the measured phase feed the per-I/O metrics.
enum Count : std::size_t {
  kEvents,
  kCtrlCmds,
  kCtrlFetchReads,
  kCtrlDoorbells,
  kTlps,
  kFabricBytes,
  kEngineDoorbells,
  kRdmaMsgs,
  kPollRounds,
  kBounceBytes,
  kRetries,
  kCidExhausted,
  kDrrRounds,
  kMuxStaged,
  kMuxCompleted,
  kMuxAborted,
  kCountKinds,
};
using Counters = std::array<std::uint64_t, kCountKinds>;

std::uint64_t registry_count(const char* name) {
  return *obs::Registry::global().counter_cell(name);
}

Counters sample(const Rigs& rigs) {
  Counters c{};
  for (const auto& rig : rigs) {
    workload::Testbed& bed = *rig->bed;
    c[kEvents] += bed.engine().events_processed();
    for (std::size_t d = 0; d < bed.device_count(); ++d) {
      const nvme::Controller::Stats& st = bed.controller(d).stats();
      c[kCtrlCmds] += st.commands_fetched.value();
      c[kCtrlFetchReads] += st.fetch_dma_reads.value();
      c[kCtrlDoorbells] += st.doorbell_writes.value();
    }
    const fabric::Stats& fs = bed.substrate().stats();
    c[kTlps] += fs.posted_writes.value() + fs.reads.value();
    c[kFabricBytes] += fs.bytes_written.value() + fs.bytes_read.value();
    for (const block::IoEngine* io : rig->io_engines) c[kEngineDoorbells] += io->doorbell_writes();
    if (rig->initiator) {
      const rdma::Network::Stats& rs = bed.network().stats();
      c[kRdmaMsgs] += rs.sends.value() + rs.rdma_writes.value() + rs.rdma_reads.value();
    }
  }
  struct Cell {
    Count kind;
    const char* name;
  };
  static constexpr Cell kCells[] = {
      {kPollRounds, "nvmeshare.client.poll_rounds"},
      {kBounceBytes, "nvmeshare.client.bounce_copy_bytes"},
      {kRetries, "nvmeshare.client.cmd_timeouts"},
      {kRetries, "nvmeshare.client.cmd_retries"},
      {kRetries, "nvmeshare.nvmeof_initiator.capsule_timeouts"},
      {kRetries, "nvmeshare.nvmeof_initiator.capsule_retries"},
      {kCidExhausted, "nvmeshare.queue.cid_exhausted"},
      {kDrrRounds, "nvmeshare.mux.drr_rounds"},
      {kMuxStaged, "nvmeshare.mux.staged_cmds"},
      {kMuxCompleted, "nvmeshare.mux.completed_cmds"},
      {kMuxAborted, "nvmeshare.mux.aborted_cmds"},
  };
  for (const Cell& cell : kCells) c[cell.kind] += registry_count(cell.name);
  return c;
}

/// Bytes each link of a rig has carried, at one simulated instant.
struct LinkSnap {
  sim::Time at = 0;
  std::array<std::uint64_t, kMaxDevices> up{};    ///< device -> host: read data
  std::array<std::uint64_t, kMaxDevices> down{};  ///< host -> device: write data
  std::uint64_t rdma = 0;
};

LinkSnap link_snap(Rig& rig) {
  workload::Testbed& bed = *rig.bed;
  LinkSnap s;
  s.at = bed.engine().now();
  for (std::size_t d = 0; d < bed.device_count() && d < kMaxDevices; ++d) {
    s.up[d] = bed.controller(d).stats().bytes_read.value();
    s.down[d] = bed.controller(d).stats().bytes_written.value();
  }
  if (rig.initiator) s.rdma = bed.network().stats().bytes_moved.value();
  return s;
}

/// Raise `pcie` / `rdma` to the highest link utilization between two
/// snapshots: modeled bytes / simulated ns / the link's configured capacity.
/// The RDMA counter is network-wide, both directions together.
void link_util(Rig& rig, const LinkSnap& a, const LinkSnap& b, double& pcie, double& rdma) {
  const double ns = static_cast<double>(b.at - a.at);
  if (ns <= 0) return;
  const workload::TestbedConfig& cfg = rig.bed->config();
  for (std::size_t d = 0; d < rig.bed->device_count() && d < kMaxDevices; ++d) {
    const std::uint64_t bytes = std::max(b.up[d] - a.up[d], b.down[d] - a.down[d]);
    pcie = std::max(pcie, static_cast<double>(bytes) / ns / cfg.pcie.link_bytes_per_ns);
  }
  if (rig.initiator) {
    rdma = std::max(rdma, static_cast<double>(b.rdma - a.rdma) / ns / cfg.rdma.bytes_per_ns);
  }
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// What one measured run produced.
struct RunResult {
  std::vector<double> round_rates;  ///< requests per reference-core second, per round
  std::vector<double> ref_rates;    ///< reference-load steps per host second, per round
  double wall_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t allocs = 0;
  sim::Duration sim_ns = 0;
  double pcie_util = 0;
  double rdma_util = 0;
  Counters delta{};
  std::uint64_t digest = 0;  ///< FNV-1a of the registry snapshot after the run
};

/// The reference load's speed around one piece of work: `steps` steps on
/// each side of it.
struct HostSpeed {
  std::size_t steps = kRefSteps;
  double before_s = 0;
  double after_s = 0;
  [[nodiscard]] double steps_per_s() const {
    return 2.0 * static_cast<double>(steps) / (before_s + after_s);
  }
  /// Scale a host duration to reference-core seconds.
  [[nodiscard]] double normalize(double seconds) const {
    return seconds * steps_per_s() / kRefStepsPerSecond;
  }
};

ReferenceLoad& reference_load() {
  static ReferenceLoad load;
  return load;
}

/// Run `fn` between two chunks of the reference load; returns its result
/// and records the host speed around it.
template <typename F>
auto gauged(HostSpeed& speed, F&& fn) {
  speed.before_s = reference_load().run(speed.steps);
  auto out = fn();
  speed.after_s = reference_load().run(speed.steps);
  return out;
}

RunResult execute(Plan& plan) {
  obs::Registry::global().reset_values();
  RunResult out;
  out.round_rates.reserve(kRounds);
  out.ref_rates.reserve(kRounds);
  const Counters before = sample(plan.rigs);
  const std::uint64_t allocs_before = heap_allocations();
  // Each phase is gauged on its own, so a round's phases on different rigs
  // are each scaled by the host speed of their own moment; the reference
  // steps per round stay kRefSteps on each side whatever the phase count.
  const std::size_t ref_steps = std::max<std::size_t>(1, kRefSteps / plan.phases.size());
  for (std::size_t round = 0; round < kRounds; ++round) {
    double seconds = 0;
    double ref_seconds = 0;
    std::size_t requests = 0;
    for (Plan::Phase& phase : plan.phases) {
      HostSpeed speed{ref_steps};
      const double phase_s = gauged(speed, [&] {
        const double begin = host_seconds();
        const LinkSnap a = link_snap(*phase.rig);
        std::size_t alive = phase.streams.size();
        for (Stream* s : phase.streams) run_stream(*s, phase.ops, alive);
        if (Status st = drive(phase.rig->bed->engine(), alive); !st) die("measured phase", st);
        const LinkSnap b = link_snap(*phase.rig);
        out.sim_ns += b.at - a.at;
        link_util(*phase.rig, a, b, out.pcie_util, out.rdma_util);
        return host_seconds() - begin;
      });
      seconds += phase_s;
      ref_seconds += speed.normalize(phase_s);
      requests += phase.ops * phase.streams.size();
    }
    out.wall_s += seconds;
    out.round_rates.push_back(static_cast<double>(requests) / ref_seconds);
    out.ref_rates.push_back(ref_seconds / seconds * kRefStepsPerSecond);
    for (auto& s : plan.streams) s->round_marks.emplace_back(s->read_ns.size(), s->write_ns.size());
  }
  out.allocs = heap_allocations() - allocs_before;
  const Counters after = sample(plan.rigs);
  for (std::size_t i = 0; i < kCountKinds; ++i) out.delta[i] = after[i] - before[i];
  for (const auto& s : plan.streams) {
    out.attempted += s->issued;
    out.ok += s->ok;
    out.failed += s->failed;
  }
  out.digest = fnv1a(obs::Registry::global().to_json());
  return out;
}

/// The median round's rate in requests per reference-core second. A shared
/// host's speed drifts for seconds at a time; scaling each round by the
/// reference load timed around it cancels most of that drift, and the
/// median drops the rounds where the two were caught at different moments.
double host_ios_per_s(const RunResult& run) { return median(run.round_rates); }

/// The post-run data check over every stream, rig by rig.
CheckCounts check(Plan& plan) {
  CheckCounts out;
  for (auto& rig : plan.rigs) {
    sim::Engine& engine = rig->bed->engine();
    std::size_t alive = 0;
    for (auto& s : plan.streams) alive += s->engine == &engine ? 1 : 0;
    if (alive == 0) continue;
    for (auto& s : plan.streams) {
      if (s->engine == &engine) check_stream(*s, *plan.pool, alive, out);
    }
    if (Status st = drive(engine, alive); !st) die("data check", st);
  }
  return out;
}

/// model.<scenario>.{read,write}_{min,p50,p99}_us plus model.iops and
/// model.sim_ms. Scenarios a workload does not run read 0.
std::map<std::string, double> model_metrics(const Plan& plan, const RunResult& run) {
  std::map<std::string, double> m;
  for (int sc = 0; sc < kScenarioCount; ++sc) {
    std::vector<std::uint32_t> reads;
    std::vector<std::uint32_t> writes;
    for (const auto& s : plan.streams) {
      if (s->scenario != sc) continue;
      reads.insert(reads.end(), s->read_ns.begin(), s->read_ns.end());
      writes.insert(writes.end(), s->write_ns.begin(), s->write_ns.end());
    }
    const std::string prefix = std::string("model.") + kScenarios[sc] + ".";
    for (const auto& [op, samples] : {std::pair{"read", &reads}, std::pair{"write", &writes}}) {
      m[prefix + op + "_min_us"] = percentile_us(*samples, 0);
      m[prefix + op + "_p50_us"] = percentile_us(*samples, 50);
      m[prefix + op + "_p99_us"] = percentile_us(*samples, 99);
    }
  }
  const double sim_s = static_cast<double>(run.sim_ns) / 1e9;
  m["model.iops"] = sim_s > 0 ? static_cast<double>(run.ok) / sim_s : 0;
  m["model.sim_ms"] = static_cast<double>(run.sim_ns) / 1e6;
  return m;
}

/// Mean |measured - paper| over Fig. 10's four minimum-latency deltas
/// (NVMe-oF vs linux local, read and write; ours remote vs ours local, read
/// and write), computed per round as bench/fig10_latency computes them over
/// its run, then averaged over rounds: one minimum is a noisy sample, and
/// the mean of many per-round errors is a steadier estimate of the same gap.
/// Needs the four Fig. 10 scenarios.
double paper_delta_err_us(const Plan& plan) {
  static constexpr double kPaper[4] = {7.7, 7.5, 1.0, 2.0};
  double total = 0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const auto min_us = [&](const char* scenario, bool write) {
      for (const auto& s : plan.streams) {
        if (s->scenario != scenario_index(scenario) || s->round_marks.size() <= r) continue;
        const std::vector<std::uint32_t>& v = write ? s->write_ns : s->read_ns;
        const auto mark = [&](std::size_t i) {
          return write ? s->round_marks[i].second : s->round_marks[i].first;
        };
        const std::size_t begin = r == 0 ? 0 : mark(r - 1);
        const std::size_t end = mark(r);
        if (begin < end) {
          return static_cast<double>(*std::min_element(v.begin() + begin, v.begin() + end)) /
                 1000.0;
        }
      }
      return std::nan("");
    };
    const double measured[4] = {
        min_us("nvmeof-remote", false) - min_us("linux-local", false),
        min_us("nvmeof-remote", true) - min_us("linux-local", true),
        min_us("ours-remote", false) - min_us("ours-local", false),
        min_us("ours-remote", true) - min_us("ours-local", true),
    };
    double sum = 0;
    for (int i = 0; i < 4; ++i) sum += std::fabs(measured[i] - kPaper[i]);
    total += sum / 4;
  }
  return total / static_cast<double>(kRounds);
}

/// paper_delta_err_us for workloads that do not run the Fig. 10 scenarios:
/// a short untimed QD-1 run of the four scenarios after the measured phase,
/// seeded from the run's seed and workload so it is an independent sample.
double fidelity_probe(std::uint64_t seed, Kind kind) {
  const std::uint64_t probe_seed = seed * 4 + static_cast<std::uint64_t>(kind);
  BringUp unused;
  Plan plan = prepare(Kind::paper_qd1, bring_up(Kind::paper_qd1, probe_seed, unused),
                      probe_seed, kProbeIos);
  (void)execute(plan);
  return paper_delta_err_us(plan);
}

/// Max over median of the tenants' simulated p99; 0 without tenants.
double p99_spread(const Plan& plan) {
  std::map<int, std::vector<std::uint32_t>> by_tenant;
  for (const auto& s : plan.streams) {
    auto& v = by_tenant[s->group];
    v.insert(v.end(), s->read_ns.begin(), s->read_ns.end());
    v.insert(v.end(), s->write_ns.begin(), s->write_ns.end());
  }
  if (by_tenant.size() < 2) return 0;
  std::vector<double> p99;
  for (auto& [tenant, v] : by_tenant) p99.push_back(percentile_us(std::move(v), 99));
  const double med = median(p99);
  return med > 0 ? *std::max_element(p99.begin(), p99.end()) / med : 0;
}

std::uint64_t store_chunks(const Plan& plan) {
  std::uint64_t chunks = 0;
  for (const auto& rig : plan.rigs) {
    for (std::size_t d = 0; d < rig->bed->device_count(); ++d) {
      chunks += rig->bed->controller(d).store().resident_chunks();
    }
  }
  return chunks;
}

double resident_mib(const Plan& plan) {
  std::uint64_t pages = 0;
  for (const auto& rig : plan.rigs) {
    fabric::Substrate& substrate = rig->bed->substrate();
    for (std::size_t h = 0; h < substrate.host_count(); ++h) {
      pages += substrate.host_dram(static_cast<fabric::HostId>(h)).resident_pages();
    }
  }
  return static_cast<double>(pages * mem::PhysMem::kPageSize) / static_cast<double>(MiB);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Mean simulated ns per pipeline phase from obs::Tracer, over all tracks.
std::vector<std::pair<std::string, double>> tracer_phases() {
  static constexpr obs::Phase kPhases[] = {
      obs::Phase::submit,       obs::Phase::bounce_copy, obs::Phase::doorbell,
      obs::Phase::cq_wait,      obs::Phase::completion,  obs::Phase::ctrl_fetch,
      obs::Phase::media,        obs::Phase::data_dma,    obs::Phase::cq_write,
      obs::Phase::capsule_send, obs::Phase::rdma_data,
  };
  const auto agg = obs::Tracer::aggregate(obs::Tracer::global().snapshot());
  std::vector<std::pair<std::string, double>> out;
  for (const obs::Phase phase : kPhases) {
    std::uint64_t count = 0;
    std::uint64_t total = 0;
    for (const auto& [key, stat] : agg) {
      if (key.second != phase) continue;
      count += stat.count;
      total += stat.total_ns;
    }
    out.emplace_back(obs::phase_name(phase),
                     count > 0 ? static_cast<double>(total) / static_cast<double>(count) : 0);
  }
  return out;
}

// --- output --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double per(double total, double count) { return count > 0 ? total / count : 0; }

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), value, m.unit.c_str());
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::size_t total_ios(const Options& opt) {
  return static_cast<std::size_t>(opt.seconds * opt.workload->ios_per_second);
}

int run_end_to_end(const Options& opt) {
  const Kind kind = opt.workload->kind;
  // setup_s is the median of several bring-ups, each in reference-core
  // seconds, half of them before the measured phase and half after it, so
  // that a slow spell of the host lands on few of them.
  std::vector<double> setups;
  const auto time_bring_up = [&] {
    BringUp bu;
    HostSpeed speed;
    Rigs rigs = gauged(speed, [&] { return bring_up(kind, opt.seed, bu); });
    setups.push_back(speed.normalize(bu.total()));
    return rigs;
  };
  Rigs rigs;
  for (std::size_t i = 0; i < (opt.workload->setups + 1) / 2; ++i) {
    rigs.clear();  // tear the previous bring-up down before timing the next
    rigs = time_bring_up();
  }
  double prepare_s = 0;
  Plan plan = timed("prepare", prepare_s,
                    [&] { return prepare(kind, std::move(rigs), opt.seed, total_ios(opt)); });
  const RunResult run = execute(plan);
  const CheckCounts checked = check(plan);
  const double rss = peak_rss_mib();
  while (setups.size() < opt.workload->setups) (void)time_bring_up();
  const double fidelity =
      kind == Kind::paper_qd1 ? paper_delta_err_us(plan) : fidelity_probe(opt.seed, kind);

  const std::uint64_t attempted = run.attempted + checked.attempted;
  const std::uint64_t failed = run.failed + checked.failed;
  const double ios = static_cast<double>(std::max<std::uint64_t>(run.ok, 1));
  std::printf("perfbench %s seed %llu: %llu requests, %llu checked, %.3f s measured\n",
              opt.workload->name, static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(checked.attempted), run.wall_s);
  std::printf("registry_digest %016llx\n", static_cast<unsigned long long>(run.digest));
  std::printf("round rates (1/s):");
  for (const double rate : run.round_rates) std::printf(" %.0f", rate);
  std::printf("\nreference-load speed (steps/s):");
  for (const double rate : run.ref_rates) std::printf(" %.0f", rate);
  std::printf("\n");
  const bool correct = failed == 0;
  print_result(correct, attempted, failed,
               {
                   {"setup_s", median(setups), "s"},
                   {"host_ios_per_s", host_ios_per_s(run), "1/s"},
                   {"peak_rss_mib", rss, "MiB"},
                   {"events_per_io", static_cast<double>(run.delta[kEvents]) / ios, "events"},
                   {"allocs_per_io", static_cast<double>(run.allocs) / ios, "allocs"},
                   {"op_success_frac",
                    static_cast<double>(attempted - failed) / static_cast<double>(attempted),
                    "fraction"},
                   {"ceiling_ratio", std::max(1.0, std::max(run.pcie_util, run.rdma_util)),
                    "ratio"},
                   {"paper_delta_err_us", fidelity, "us"},
               });
  return correct ? 0 : 1;
}

int run_per_layer(const Options& opt) {
  const Kind kind = opt.workload->kind;

  // Run A, untraced: the per-I/O counts, the reference rate for
  // trace.overhead, and the model.* values the traced run must reproduce.
  BringUp bu_a;
  double prepare_s = 0;
  Rigs rigs_a = bring_up(kind, opt.seed, bu_a);
  Plan a = timed("prepare", prepare_s,
                 [&] { return prepare(kind, std::move(rigs_a), opt.seed, total_ios(opt)); });
  const RunResult run_a = execute(a);
  const std::map<std::string, double> model_a = model_metrics(a, run_a);
  const double chunks_a = static_cast<double>(store_chunks(a));
  const double resident_a = resident_mib(a);
  const double spread_a = p99_spread(a);
  const std::uint32_t request_bytes = a.request_bytes;
  a = Plan{};

  // Run B, traced: spans around every bring-up call, run_until slice and
  // submit, plus the program's own per-phase tracer.
  spans().enable(kSpanCapacity);
  BringUp bu_b;
  double unused = 0;
  const std::uint64_t mailbox_before = registry_count("nvmeshare.manager.mailbox_requests");
  Rigs rigs_b = timed("bring_up", unused, [&] { return bring_up(kind, opt.seed, bu_b); });
  const std::uint64_t mailbox =
      registry_count("nvmeshare.manager.mailbox_requests") - mailbox_before;
  Plan b = timed("prepare", unused,
                 [&] { return prepare(kind, std::move(rigs_b), opt.seed, total_ios(opt)); });
  obs::Tracer::global().enable(kTracerCapacity);
  probe().on = true;
  const RunResult run_b = timed("measure", unused, [&] { return execute(b); });
  probe().on = false;
  obs::Tracer::global().disable();
  const auto phases = tracer_phases();
  obs::Tracer::global().clear();
  const CheckCounts checked = check(b);
  const bool same_model = model_metrics(b, run_b) == model_a;

  std::string meta = std::string("{\"workload\":\"") + opt.workload->name +
                     "\",\"seed\":" + std::to_string(opt.seed) + ",\"tracer_phase_mean_ns\":{";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    meta += (i == 0 ? "\"" : ",\"") + phases[i].first + "\":" + std::to_string(phases[i].second);
  }
  meta += "}}";
  const std::string path = opt.trace_dir + "/" + opt.workload->name + "-seed" +
                           std::to_string(opt.seed) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    const std::string doc = spans().chrome_json(meta);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

  const Counters& c = run_a.delta;
  const double ios = static_cast<double>(std::max<std::uint64_t>(run_a.ok, 1));
  const double cmds = static_cast<double>(std::max<std::uint64_t>(c[kCtrlCmds], 1));
  const double unfinished = static_cast<double>(c[kMuxStaged]) -
                            static_cast<double>(c[kMuxCompleted]) -
                            static_cast<double>(c[kMuxAborted]);
  const LoopProbe& p = probe();
  std::vector<Metric> metrics = {
      {"gen.prepare_s", prepare_s, "s"},
      {"gen.share", per(p.gen_s, run_b.wall_s), "fraction"},
      {"workload.testbed_s", bu_b.testbed_s, "s"},
      {"sim.ns_per_event", per(p.slice_s * 1e9, static_cast<double>(p.slice_events)), "ns"},
      {"block.submit_us", per(p.submit_s * 1e6, static_cast<double>(p.submits)), "us"},
      {"block.doorbells_per_cmd", static_cast<double>(c[kEngineDoorbells]) / ios, "ratio"},
      {"block.retries", static_cast<double>(c[kRetries]), "count"},
      {"driver.poll_rounds_per_io", static_cast<double>(c[kPollRounds]) / ios, "rounds"},
      {"driver.bounce_bytes_per_io", static_cast<double>(c[kBounceBytes]) / ios, "bytes"},
      {"driver.manager_start_s", bu_b.manager_s, "s"},
      {"driver.attach_ms", per(bu_b.attach_s * 1e3, bu_b.attaches), "ms"},
      {"driver.share_grant_ms", per(bu_b.share_s * 1e3, bu_b.shares), "ms"},
      {"driver.mailbox_requests", static_cast<double>(mailbox), "count"},
      {"nvme.fetch_reads_per_cmd", static_cast<double>(c[kCtrlFetchReads]) / cmds, "ratio"},
      {"nvme.doorbells_per_cmd", static_cast<double>(c[kCtrlDoorbells]) / cmds, "ratio"},
      {"nvme.store_chunks", chunks_a, "count"},
      {"nvme.cid_exhausted", static_cast<double>(c[kCidExhausted]), "count"},
      {"fabric.tlps_per_io", static_cast<double>(c[kTlps]) / ios, "tlps"},
      {"fabric.bytes_per_user_byte",
       static_cast<double>(c[kFabricBytes]) / (ios * static_cast<double>(request_bytes)), "ratio"},
      {"fabric.link_util", run_a.pcie_util, "ratio"},
      {"mem.resident_mib", resident_a, "MiB"},
      {"rdma.msgs_per_io", static_cast<double>(c[kRdmaMsgs]) / ios, "msgs"},
      {"rdma.link_util", run_a.rdma_util, "ratio"},
      {"mux.drr_rounds_per_io", static_cast<double>(c[kDrrRounds]) / ios, "rounds"},
      {"mux.unfinished", unfinished, "count"},
      {"mux.p99_spread", spread_a, "ratio"},
      {"ceiling_excess", std::max(0.0, std::max(run_a.pcie_util, run_a.rdma_util) - 1.0),
       "ratio"},
  };
  for (const auto& [name, value] : model_a) {
    const bool latency = name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0;
    metrics.push_back({name, value, latency ? "us" : name == "model.iops" ? "1/s" : "ms"});
  }
  for (const auto& [phase, mean_ns] : phases) {
    metrics.push_back({"trace." + phase + "_ns", mean_ns, "ns"});
  }
  metrics.push_back(
      {"trace.overhead", 1.0 - host_ios_per_s(run_b) / host_ios_per_s(run_a), "fraction"});

  std::printf("perfbench %s seed %llu: traced model.* %s the untraced run's\n",
              opt.workload->name, static_cast<unsigned long long>(opt.seed),
              same_model ? "equal" : "DIFFER FROM");
  std::printf("registry_digest %016llx\n", static_cast<unsigned long long>(run_a.digest));
  const std::uint64_t attempted = run_b.attempted + checked.attempted;
  const std::uint64_t failed = run_a.failed + run_b.failed + checked.failed;
  const bool correct = failed == 0 && same_model && unfinished == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  return opt.trace ? run_per_layer(opt) : run_end_to_end(opt);
}
