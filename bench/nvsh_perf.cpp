// nvsh_perf: minimal-overhead speed microbenchmark for the simulator's
// event core and submission path, the SPDK-`perf` analog of tools/nvsh_fio.
// Where nvsh_fio measures *simulated* latency, nvsh_perf measures how fast
// two layers of the simulator *run*: wall-clock events per second through
// sim::Engine, and commands per second through block::IoEngine, with
// timestamp-counter cycles per item. Two workloads:
//
//   engine  a self-rescheduling event storm straight on sim::Engine —
//           pure event-core throughput (schedule + dispatch, no I/O stack)
//   io      a tight acquire/run/release loop over block::IoEngine with an
//           inline null transport — the shared submission core in isolation
//
// It only prints. The whole stack's cost is perfbench's (BENCHMARK.json,
// tools/perf_pairs.py), and its exact engine events per job are the `sim`
// fields of every nvsh_fio document in the golden corpus. See
// docs/performance.md for the methodology.
//
//   nvsh_perf                          # both modes, human summary
//   nvsh_perf --mode engine --events 4000000
//   nvsh_perf --mode io --ops 400000 --qd 32 --channels 4
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

#include "block/io_engine.hpp"
#include "sim/engine.hpp"

namespace {

using namespace nvmeshare;

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
  std::string mode = "all";  ///< engine | io | all
  std::uint64_t events = 2'000'000;  ///< engine mode: events to dispatch
  std::uint64_t ops = 200'000;       ///< io mode: commands to run
  std::uint32_t qd = 32;
  std::uint32_t channels = 4;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --mode M        engine | io | all (default: all)\n"
               "  --events N      engine mode: events to dispatch (default 2000000)\n"
               "  --ops N         io mode: commands to run (default 200000)\n"
               "  --qd N          io mode: queue depth per channel (default 32)\n"
               "  --channels N    io mode: channels (default 4; max 16)\n",
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
    } else if (!std::strcmp(arg, "--qd")) {
      opt.qd = static_cast<std::uint32_t>(std::strtoul(need_value(i), nullptr, 0));
    } else if (!std::strcmp(arg, "--channels")) {
      opt.channels = static_cast<std::uint32_t>(std::strtoul(need_value(i), nullptr, 0));
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      usage(argv[0]);
    }
  }
  return opt;
}

/// One mode's measurements. Simulated numbers are deterministic;
/// wall/cycle numbers are machine-dependent.
struct ModeResult {
  std::string mode;
  std::uint64_t work_items = 0;   ///< events (engine) or commands (io)
  std::uint64_t sim_events = 0;   ///< engine events dispatched
  sim::Duration sim_elapsed = 0;  ///< simulated ns covered
  std::uint64_t wall = 0;         ///< wall-clock ns
  std::uint64_t cycles = 0;       ///< timestamp-counter delta

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
  [[nodiscard]] double events_per_item() const {
    return work_items > 0 ? static_cast<double>(sim_events) / static_cast<double>(work_items)
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

  const std::uint64_t w0 = wall_ns();
  const std::uint64_t c0 = rdcycles();
  engine.run();
  r.cycles = rdcycles() - c0;
  r.wall = wall_ns() - w0;
  r.sim_events = engine.events_processed();
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

  const std::uint64_t w0 = wall_ns();
  const std::uint64_t c0 = rdcycles();
  engine.run();
  r.cycles = rdcycles() - c0;
  r.wall = wall_ns() - w0;
  r.sim_events = engine.events_processed();
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

// --- reporting -----------------------------------------------------------------

void print_result(const ModeResult& r) {
  std::printf("%-7s %10llu items  %12llu events  %8.3f ms wall\n", r.mode.c_str(),
              static_cast<unsigned long long>(r.work_items),
              static_cast<unsigned long long>(r.sim_events),
              static_cast<double>(r.wall) / 1e6);
  std::printf("        events/item %.3f  events/sec %.3fM  cycles/item %.0f\n",
              r.events_per_item(), r.events_per_sec() / 1e6, r.cycles_per_item());
  if (r.mode == "io") {
    std::printf("        sim IOPS %.0f  wall IOPS %.0f  (sim %.3f ms)\n", r.sim_iops(),
                r.wall_iops(), static_cast<double>(r.sim_elapsed) / 1e6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const bool all = opt.mode == "all";
  if (!all && opt.mode != "engine" && opt.mode != "io") {
    std::fprintf(stderr, "bad --mode\n");
    usage(argv[0]);
  }
  if (opt.channels == 0 || opt.channels > block::kMaxEngineChannels || opt.qd == 0) {
    std::fprintf(stderr, "bad --channels/--qd\n");
    usage(argv[0]);
  }

  std::printf("nvsh_perf: event-core and submission-path speed (wall-clock)\n");
  if (all || opt.mode == "engine") print_result(run_engine_mode(opt.events));
  if (all || opt.mode == "io") print_result(run_io_mode(opt.ops, opt.qd, opt.channels));
  return 0;
}
