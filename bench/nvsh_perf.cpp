// nvsh_perf: minimal-overhead speed harness for the simulator itself — the
// SPDK-`perf` analog of tools/nvsh_fio. Where nvsh_fio measures *simulated*
// latency with fio-style flexibility, nvsh_perf measures how fast the
// simulator *runs*: wall-clock events per second through sim::Engine,
// simulated IOPS through block::IoEngine, and timestamp-counter cycles per
// simulated I/O. Three workloads, least to most stack:
//
//   engine  a self-rescheduling event storm straight on sim::Engine —
//           pure event-core throughput (schedule + dispatch, no I/O stack)
//   io      a tight acquire/run/release loop over block::IoEngine with an
//           inline null transport — the shared submission core in isolation
//   stack   the full ours-remote scenario (fabric, NVMe controller, bounce
//           path) driven by the fio workload generator — end-to-end
//
// Each mode also counts global operator new calls inside its measured
// window (a counting hook replaces operator new in this binary only), so
// the document reports heap allocations per item next to events per item.
// Next to events per item it also reports the empty poll rounds the engine
// skipped (sim::Engine::ticks_elided(); not an event, not in the registry).
//
// With --json the machine-readable document ({bench, config, results{},
// metrics{}}) is written for the BENCH_perf.json perf-trend file that
// tools/ci_perf.sh regression-checks PR-over-PR. Simulated metrics and
// allocation counts are deterministic per seed; wall-clock metrics are
// machine-dependent by nature. See docs/performance.md for the methodology.
//
//   nvsh_perf                          # all three modes, human summary
//   nvsh_perf --mode engine --events 4000000
//   nvsh_perf --mode io --ops 400000 --qd 32 --channels 4
//   nvsh_perf --json BENCH_perf.json   # the trend document
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

#include "bench_util.hpp"
#include "block/io_engine.hpp"

namespace {
std::uint64_t g_allocations = 0;

void* counted_new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Counting hook: the unaligned new/delete family (nothing in the simulator
// over-aligns), routed to malloc/free.
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace nvmeshare;
using namespace nvmeshare::bench;

/// Monotonic timestamp-counter read. On x86-64 this is the TSC (constant
/// rate on anything modern); on aarch64 the generic counter; elsewhere it
/// degrades to nanoseconds, making "cycles" read as ns. The unit only needs
/// to be stable within one run — cycles-per-IO is a ratio of two reads.
std::uint64_t rdcycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string mode = "all";  ///< engine | io | stack | all
  std::uint64_t events = 2'000'000;  ///< engine mode: events to dispatch
  std::uint64_t ops = 200'000;       ///< io mode: commands to run
  std::uint64_t stack_ops = 20'000;  ///< stack mode: end-to-end requests
  std::uint32_t qd = 32;
  std::uint32_t channels = 4;
  std::uint64_t seed = 2024;
  std::string substrate = "ntb";  ///< stack mode interconnect: ntb | cxl
  std::string json_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --mode M        engine | io | stack | all (default: all)\n"
               "  --events N      engine mode: events to dispatch (default 2000000)\n"
               "  --ops N         io mode: commands to run (default 200000)\n"
               "  --stack-ops N   stack mode: end-to-end requests (default 20000)\n"
               "  --qd N          queue depth per channel (default 32)\n"
               "  --channels N    channels / queue pairs (default 4; max 16)\n"
               "  --seed N        workload seed for stack mode (default 2024)\n"
               "  --substrate S   stack mode interconnect: ntb | cxl (default ntb)\n"
               "  --json PATH     write the perf document (\"-\" = stdout)\n",
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
    if (!std::strcmp(arg, "--mode")) {
      opt.mode = need_value(i);
    } else if (!std::strcmp(arg, "--events")) {
      opt.events = std::strtoull(need_value(i), nullptr, 0);
    } else if (!std::strcmp(arg, "--ops")) {
      opt.ops = std::strtoull(need_value(i), nullptr, 0);
    } else if (!std::strcmp(arg, "--stack-ops")) {
      opt.stack_ops = std::strtoull(need_value(i), nullptr, 0);
    } else if (!std::strcmp(arg, "--qd")) {
      opt.qd = static_cast<std::uint32_t>(std::strtoul(need_value(i), nullptr, 0));
    } else if (!std::strcmp(arg, "--channels")) {
      opt.channels = static_cast<std::uint32_t>(std::strtoul(need_value(i), nullptr, 0));
    } else if (!std::strcmp(arg, "--seed")) {
      opt.seed = std::strtoull(need_value(i), nullptr, 0);
    } else if (!std::strcmp(arg, "--substrate")) {
      opt.substrate = need_value(i);
      if (!fabric::parse_substrate(opt.substrate)) {
        std::fprintf(stderr, "unknown substrate: %s\n", opt.substrate.c_str());
        usage(argv[0]);
      }
    } else if (!std::strcmp(arg, "--json")) {
      opt.json_path = need_value(i);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage(argv[0]);
    }
  }
  return opt;
}

/// One mode's measurements. Simulated numbers are seed-deterministic;
/// wall/cycle numbers are machine-dependent (the trend CI tracks).
struct ModeResult {
  std::string mode;
  std::uint64_t work_items = 0;   ///< events (engine) or I/Os (io/stack)
  std::uint64_t sim_events = 0;   ///< engine events dispatched
  std::uint64_t ticks_elided = 0; ///< empty poll rounds the engine skipped
  sim::Duration sim_elapsed = 0;  ///< simulated ns covered
  std::uint64_t wall = 0;         ///< wall-clock ns
  std::uint64_t cycles = 0;       ///< timestamp-counter delta
  std::uint64_t allocs = 0;       ///< global operator new calls

  [[nodiscard]] double events_per_sec() const {
    return wall > 0 ? static_cast<double>(sim_events) * 1e9 / static_cast<double>(wall)
                    : 0.0;
  }
  [[nodiscard]] double sim_iops() const {
    return sim_elapsed > 0 ? static_cast<double>(work_items) * 1e9 /
                                 static_cast<double>(sim_elapsed)
                           : 0.0;
  }
  [[nodiscard]] double wall_iops() const {
    return wall > 0 ? static_cast<double>(work_items) * 1e9 / static_cast<double>(wall)
                    : 0.0;
  }
  [[nodiscard]] double cycles_per_item() const {
    return work_items > 0 ? static_cast<double>(cycles) / static_cast<double>(work_items)
                          : 0.0;
  }
  [[nodiscard]] double allocs_per_item() const {
    return work_items > 0 ? static_cast<double>(allocs) / static_cast<double>(work_items)
                          : 0.0;
  }
  [[nodiscard]] double events_per_item() const {
    return work_items > 0 ? static_cast<double>(sim_events) / static_cast<double>(work_items)
                          : 0.0;
  }
  [[nodiscard]] double ticks_elided_per_item() const {
    return work_items > 0
               ? static_cast<double>(ticks_elided) / static_cast<double>(work_items)
               : 0.0;
  }
};

// --- engine mode ---------------------------------------------------------------
//
// A fixed population of self-rescheduling actors, each hopping through a
// cycle of delays picked to look like the real hot path (doorbell stores,
// switch hops, media service) plus a rare long timeout that lands in the
// far-future/overflow tier of whatever queue the engine uses. No
// allocation, no I/O stack: dispatch + reschedule cost only.
ModeResult run_engine_mode(std::uint64_t total_events) {
  ModeResult r;
  r.mode = "engine";
  sim::Engine engine;
  // The delay mix: mostly short hops, some media-scale, an occasional
  // watchdog-scale jump. Actors drift apart, so ties stay rare but real.
  static constexpr sim::Duration kDelays[] = {80, 150, 0, 120, 7200, 130, 1000, 2'000'000};
  constexpr int kActors = 64;
  std::uint64_t remaining = total_events;

  struct Actor {
    sim::Engine* engine;
    std::uint64_t* remaining;
    std::uint32_t phase;
    void operator()() {
      if (*remaining == 0) return;
      --*remaining;
      phase = (phase + 1) & 7;
      engine->after(kDelays[phase], *this);
    }
  };
  for (int a = 0; a < kActors; ++a) {
    engine.after(kDelays[a & 7], Actor{&engine, &remaining,
                                       static_cast<std::uint32_t>(a) & 7});
  }

  const std::uint64_t a0 = g_allocations;
  const std::uint64_t w0 = wall_ns();
  const std::uint64_t c0 = rdcycles();
  engine.run();
  r.cycles = rdcycles() - c0;
  r.wall = wall_ns() - w0;
  r.allocs = g_allocations - a0;
  r.sim_events = engine.events_processed();
  r.ticks_elided = engine.ticks_elided();
  r.work_items = r.sim_events;
  r.sim_elapsed = engine.now();
  return r;
}

// --- io mode -------------------------------------------------------------------
//
// The SPDK-perf idea: the thinnest possible loop over the submission core.
// A null transport that completes every command a fixed 100 simulated ns
// after its doorbell, driven by qd*channels workers in a tight
// acquire/run/release loop. Measures IoEngine + sim::Engine, nothing else.
class NullTransport final : public block::IoTransport {
 public:
  NullTransport(sim::Engine& engine, std::uint32_t channels, std::uint16_t token_space)
      : engine_(engine), token_space_(token_space), staged_(channels) {}
  void attach(block::IoEngine* io) { io_ = io; }

  Result<std::uint16_t> issue(std::uint32_t chan, const block::Command* cmd) override {
    (void)cmd;
    const auto token = next_token_[chan]++;
    if (next_token_[chan] == token_space_) next_token_[chan] = 0;
    staged_[chan].push_back(token);
    return token;
  }

  Status ring(std::uint32_t chan) override {
    for (const std::uint16_t token : staged_[chan]) {
      engine_.after(100, [this, chan, token]() { (void)io_->complete(chan, token, 0); });
    }
    staged_[chan].clear();
    return Status::ok();
  }

  [[nodiscard]] bool retryable(std::uint16_t) const override { return false; }
  void start_recovery(std::uint32_t chan) override { io_->finish_recovery(chan); }
  [[nodiscard]] std::uint16_t trace_qid(std::uint32_t chan) const override {
    return static_cast<std::uint16_t>(chan + 1);
  }

 private:
  sim::Engine& engine_;
  std::uint16_t token_space_;  ///< cycle within the engine's pending-table cap
  block::IoEngine* io_ = nullptr;
  std::vector<std::vector<std::uint16_t>> staged_;
  std::uint16_t next_token_[block::kMaxEngineChannels] = {};
};

ModeResult run_io_mode(std::uint64_t ops, std::uint32_t qd, std::uint32_t channels) {
  ModeResult r;
  r.mode = "io";
  sim::Engine engine;
  // Token space == the engine's pending-table cap (max(queue_entries,
  // qd*channels)): completions are strict FIFO here, so cycling within the
  // cap never collides with an armed token, and never exceeds the cap the
  // engine now refuses to arm beyond.
  NullTransport transport(engine, channels, static_cast<std::uint16_t>(qd * channels));
  block::IoEngine::Config cfg;
  cfg.backend = "perf";
  cfg.channels = channels;
  cfg.queue_depth = qd;
  auto stop = std::make_shared<bool>(false);
  block::IoEngine io(engine, transport, stop, cfg);
  transport.attach(&io);

  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  struct Worker {
    static sim::Task run(sim::Engine& eng, block::IoEngine& io, std::uint64_t ops,
                         std::uint64_t& submitted, std::uint64_t& completed) {
      while (submitted < ops) {
        ++submitted;
        auto grant = co_await io.acquire();
        auto outcome = co_await sim::spawn(eng, io.run({grant}));
        io.release(grant);
        if (outcome.ok()) ++completed;
      }
    }
  };
  const std::uint32_t workers = qd * channels;
  for (std::uint32_t w = 0; w < workers; ++w) {
    Worker::run(engine, io, ops, submitted, completed);
  }

  const std::uint64_t a0 = g_allocations;
  const std::uint64_t w0 = wall_ns();
  const std::uint64_t c0 = rdcycles();
  engine.run();
  r.cycles = rdcycles() - c0;
  r.wall = wall_ns() - w0;
  r.allocs = g_allocations - a0;
  r.sim_events = engine.events_processed();
  r.ticks_elided = engine.ticks_elided();
  r.sim_elapsed = engine.now();
  r.work_items = completed;
  if (completed != ops) {
    std::fprintf(stderr, "FATAL: io mode completed %llu of %llu ops\n",
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(ops));
    std::exit(1);
  }
  return r;
}

// --- stack mode ----------------------------------------------------------------
//
// End-to-end: the paper's ours-remote scenario (client on host 1, manager +
// NVMe on host 0, real NTB fabric and bounce path) under a deep-queue
// random-read job. This is the number that says "the whole simulator runs
// at N IOPS per wall-clock second".
ModeResult run_stack_mode(std::uint64_t ops, std::uint32_t qd, std::uint32_t channels,
                          std::uint64_t seed) {
  ModeResult r;
  r.mode = "stack";
  driver::Client::Config cc;
  cc.channels = channels;
  cc.queue_depth = std::max(qd, 1u);
  cc.queue_entries = static_cast<std::uint16_t>(std::max(64u, 2 * cc.queue_depth));
  Scenario s = make_ours_remote(cc);

  workload::JobSpec spec;
  spec.pattern = workload::JobSpec::Pattern::randread;
  spec.block_bytes = 4096;
  spec.queue_depth = std::max(qd, 1u) * std::max(channels, 1u);
  spec.ops = ops;
  spec.seed = seed;

  sim::Engine& engine = s.testbed->engine();
  const std::uint64_t events_before = engine.events_processed();
  const std::uint64_t elided_before = engine.ticks_elided();
  const sim::Time sim_before = engine.now();
  const std::uint64_t a0 = g_allocations;
  const std::uint64_t w0 = wall_ns();
  const std::uint64_t c0 = rdcycles();
  const workload::JobResult result = run(s, spec);
  r.cycles = rdcycles() - c0;
  r.wall = wall_ns() - w0;
  r.allocs = g_allocations - a0;
  r.sim_events = engine.events_processed() - events_before;
  r.ticks_elided = engine.ticks_elided() - elided_before;
  r.sim_elapsed = engine.now() - sim_before;
  r.work_items = result.ops_completed;
  return r;
}

// --- reporting -----------------------------------------------------------------

void print_result(const ModeResult& r) {
  std::printf("%-7s %10llu items  %12llu events  %8.3f ms wall\n", r.mode.c_str(),
              static_cast<unsigned long long>(r.work_items),
              static_cast<unsigned long long>(r.sim_events),
              static_cast<double>(r.wall) / 1e6);
  std::printf("        events/item %.3f  elided ticks/item %.3f\n", r.events_per_item(),
              r.ticks_elided_per_item());
  std::printf("        events/sec %.3fM  cycles/item %.0f  allocs/item %.3f\n",
              r.events_per_sec() / 1e6, r.cycles_per_item(), r.allocs_per_item());
  if (r.mode != "engine") {
    std::printf("        sim IOPS %.0f  wall IOPS %.0f  (sim %.3f ms)\n", r.sim_iops(),
                r.wall_iops(), static_cast<double>(r.sim_elapsed) / 1e6);
  }
}

void append_result_json(std::string& out, const ModeResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "\"%s\":{\"items\":%llu,\"sim_events\":%llu,\"ticks_elided\":%llu,"
                "\"sim_elapsed_ns\":%lld,"
                "\"wall_ns\":%llu,\"cycles\":%llu,\"allocs\":%llu,\"events_per_sec\":%.1f,"
                "\"sim_iops\":%.1f,\"wall_iops\":%.1f,\"cycles_per_item\":%.1f,"
                "\"allocs_per_item\":%.4f}",
                r.mode.c_str(), static_cast<unsigned long long>(r.work_items),
                static_cast<unsigned long long>(r.sim_events),
                static_cast<unsigned long long>(r.ticks_elided),
                static_cast<long long>(r.sim_elapsed),
                static_cast<unsigned long long>(r.wall),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.allocs), r.events_per_sec(), r.sim_iops(),
                r.wall_iops(), r.cycles_per_item(), r.allocs_per_item());
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const bool all = opt.mode == "all";
  if (!all && opt.mode != "engine" && opt.mode != "io" && opt.mode != "stack") {
    std::fprintf(stderr, "bad --mode\n");
    usage(argv[0]);
  }
  if (opt.channels == 0 || opt.channels > block::kMaxEngineChannels || opt.qd == 0) {
    std::fprintf(stderr, "bad --channels/--qd\n");
    usage(argv[0]);
  }

  bench_substrate() = *fabric::parse_substrate(opt.substrate);

  const bool quiet = opt.json_path == "-";
  std::vector<ModeResult> results;
  if (all || opt.mode == "engine") results.push_back(run_engine_mode(opt.events));
  if (all || opt.mode == "io") results.push_back(run_io_mode(opt.ops, opt.qd, opt.channels));
  if (all || opt.mode == "stack") {
    results.push_back(run_stack_mode(opt.stack_ops, opt.qd, opt.channels, opt.seed));
  }

  if (!quiet) {
    std::printf("nvsh_perf: event-core and submission-path speed (wall-clock)\n");
    for (const auto& r : results) print_result(r);
  }

  if (!opt.json_path.empty()) {
    // Mirror the headline numbers into the registry so the `metrics`
    // snapshot carries them alongside the per-component counters.
    for (const auto& r : results) {
      obs::Gauge(std::string("nvmeshare.sim.") + r.mode + ".events_per_sec")
          .set(r.events_per_sec());
      obs::Gauge(std::string("nvmeshare.sim.") + r.mode + ".cycles_per_item")
          .set(r.cycles_per_item());
    }
    BenchConfig config{{"mode", opt.mode},
                       {"substrate", opt.substrate},
                       {"events", std::to_string(opt.events)},
                       {"ops", std::to_string(opt.ops)},
                       {"stack_ops", std::to_string(opt.stack_ops)},
                       {"qd", std::to_string(opt.qd)},
                       {"channels", std::to_string(opt.channels)},
                       {"seed", std::to_string(opt.seed)}};
    std::string doc = "{\"bench\":\"nvsh_perf\",\"config\":{";
    bool first = true;
    for (const auto& [key, value] : config) {
      if (!first) doc += ',';
      first = false;
      doc += '"' + json_escape(key) + "\":\"" + json_escape(value) + '"';
    }
    doc += "},\"results\":{";
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i != 0) doc += ',';
      append_result_json(doc, results[i]);
    }
    doc += "},\"metrics\":";
    doc += obs::Registry::global().to_json();
    doc += "}\n";
    if (!write_bench_json(opt.json_path, doc)) return 1;
  }
  return 0;
}
