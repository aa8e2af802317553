// Deterministic fault injection.
//
// A FaultPlan is a seed plus a list of fault specs; an Injector turns it
// into a reproducible schedule of failures hooked into the fabric
// (posted-write loss/delay, NTB link down), the NVMe controller (internal
// errors), the RDMA network (capsule loss), and the drivers (host crash).
// Every probabilistic decision draws from one seeded xoshiro256++ stream and
// every timed fault is an ordinary engine event, so two runs with the same
// plan and workload seed are byte-identical — including the
// `nvmeshare.fault.*` metrics this module emits.
//
// Each simulation's fabric::Substrate owns at most one Injector: a plan is
// installed on (or removed from) one substrate and acts on that cluster
// only. Without a plan the substrate holds none, and every hook is a single
// pointer test, so fault-free runs execute the instruction stream they did
// before this module existed and register no fault counters.
//
// Lifecycle: install the plan before the drivers start (they register crash
// handlers with the injector they find at start-up), arm it after bring-up
// (timed faults and windows count from arm time), and drop it with the
// substrate or by removing the plan. A new Injector starts with fresh
// trigger state and RNG, which is what makes in-process double-runs (the
// determinism checks in the chaos stress tests) possible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace nvmeshare::sim {
class Engine;
}

namespace nvmeshare::fault {

/// The fault vocabulary as a single X-macro: the enum, the name table, and
/// the plan-DSL parser all expand from this list, so adding a kind in one
/// place keeps all three in sync (fault_test pins the exhaustiveness).
#define NVS_FAULT_KINDS(X)                                                                 \
  X(drop_posted_write)  /* lose a posted write in flight (doorbell, CQE, ...) */           \
  X(delay_posted_write) /* posted write arrives extra_ns late */                           \
  X(ntb_link_down)      /* cable pull on a host's NTB links (timed, optional restore) */   \
  X(host_crash)         /* silently kill a driver instance (manager or client) */          \
  X(ctrl_error)         /* controller completes a command with Internal Error */           \
  X(drop_capsule)       /* lose an RDMA SEND (NVMe-oF command/response capsule) */         \
  X(flip_dma_bits)      /* flip one bit of a DMA payload at delivery */                    \
  X(torn_dma_write)     /* deliver only a prefix of a DMA write payload */                 \
  X(stale_read)         /* DMA read completes with stale (zero-filled) data */

enum class FaultKind : std::uint8_t {
#define NVS_FAULT_ENUM(name) name,
  NVS_FAULT_KINDS(NVS_FAULT_ENUM)
#undef NVS_FAULT_ENUM
};

/// Number of FaultKind values (X-macro expansion count).
inline constexpr std::size_t kFaultKindCount = [] {
  std::size_t n = 0;
#define NVS_FAULT_COUNT(name) ++n;
  NVS_FAULT_KINDS(NVS_FAULT_COUNT)
#undef NVS_FAULT_COUNT
  return n;
}();

[[nodiscard]] const char* fault_kind_name(FaultKind kind) noexcept;

/// Which resolved destination a posted-write fault applies to: BAR writes
/// are doorbells/registers, DRAM writes are CQEs and DMA data.
enum class WriteClass : std::uint8_t { any, bar, dram };

inline constexpr std::uint32_t kAnyHost = 0xffffffffu;
inline constexpr std::uint16_t kAnyQid = 0xffffu;
inline constexpr std::uint16_t kAnyCid = 0xffffu;

/// One injectable fault. Which fields matter depends on `kind`; unset
/// filters match everything.
struct FaultSpec {
  FaultKind kind = FaultKind::drop_posted_write;

  // -- timed faults (ntb_link_down, host_crash), relative to arm() time --
  sim::Time at = 0;
  sim::Duration duration = 0;  ///< link_down only: restore after this (0 = stays down)

  // -- operation-count faults (drops, delays, ctrl_error) --
  std::uint64_t nth = 0;    ///< 1-based ordinal of first matching op to hit (0 = off)
  double probability = 0;   ///< independent per-op chance (used when nth == 0)
  std::uint64_t count = 1;  ///< number of times to fire (0 = unlimited)
  /// Time window, relative to arm() time, that gates operation-count faults:
  /// ops outside [window_start, window_end) neither count nor fire. With
  /// window_end == 0 the window is open (every op is eligible, the seed
  /// behavior). A windowed spec with neither nth nor prob fires on EVERY
  /// in-window matching op — the "storm" trigger (docs/faults.md).
  sim::Duration window_start = 0;
  sim::Duration window_end = 0;

  // -- filters --
  std::uint32_t src_host = kAnyHost;  ///< initiating host / crash victim / link host
  std::uint32_t dst_host = kAnyHost;  ///< posted writes: host the write lands in
  WriteClass write_class = WriteClass::any;
  std::uint16_t qid = kAnyQid;  ///< ctrl_error: submission queue filter
  std::uint16_t cid = kAnyCid;  ///< ctrl_error: command id filter

  sim::Duration extra_ns = 0;  ///< delay_posted_write: added latency
  bool fatal = false;          ///< ctrl_error: raise CSTS.CFS instead of a status code
};

/// A complete, reproducible chaos schedule.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> faults;
};

/// Parse the `--faults` plan DSL (see docs/faults.md):
///   plan  := item (';' item)*
///   item  := 'seed=N' | kind[':' key=value (',' key=value)*]
///   keys  := at for from until nth prob count src dst host class qid cid extra fatal
/// Durations accept ns/us/ms/s suffixes (bare numbers are nanoseconds).
/// Example: "seed=7;drop_posted_write:src=1,class=bar,nth=3;ntb_link_down:host=1,at=2ms,for=500us"
Result<FaultPlan> parse_plan(std::string_view text);

class Injector {
 public:
  /// Fresh trigger state and an RNG seeded from `plan.seed`. Constructing
  /// one registers the `nvmeshare.fault.*` counters.
  explicit Injector(FaultPlan plan);
  /// Timed faults still queued in the engine become no-ops.
  ~Injector();

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Toggles the uplink of one host (Substrate::set_host_link, type-erased
  /// to keep this module a leaf).
  using SetHostLink = std::function<void(std::uint32_t host, bool up)>;
  /// Schedule the timed faults onto `engine` relative to its current time,
  /// which also opens the plan's windows; ntb_link_down faults call
  /// `set_link`.
  void arm(sim::Engine& engine, SetHostLink set_link);

  // --- crash registry --------------------------------------------------------
  // Drivers register a "power off this instance" callback when they start
  // (only when their substrate holds an injector); host_crash faults fire
  // every handler registered for the victim host. Tokens allow
  // deregistration from destructors.
  std::uint64_t register_crash_handler(std::uint32_t host, std::function<void()> fn);
  void unregister_crash_handler(std::uint64_t token);
  [[nodiscard]] bool has_crash_handlers() const noexcept { return !crash_handlers_.empty(); }

  // --- hot-path hooks -------------------------------------------------------

  struct PostedWriteDecision {
    bool drop = false;
    sim::Duration extra_ns = 0;
    // Corruption at delivery (flip_dma_bits / torn_dma_write). Offsets are
    // drawn from the injector's seeded RNG, so they are reproducible.
    bool flip = false;
    std::uint64_t flip_bit = 0;    ///< bit offset within the payload
    bool torn = false;
    std::uint64_t torn_bytes = 0;  ///< strict prefix length delivered
  };
  /// Consulted by Substrate::post_write/write_sg once the destination resolved.
  /// `len` is the payload byte count (used to place corruption).
  PostedWriteDecision on_posted_write(std::uint32_t src_host, std::uint32_t dst_host,
                                      bool to_bar, std::uint64_t len);

  /// Consulted by Substrate::read/read_sg at completer-access time. True =
  /// the read completes with stale (zero-filled) data instead of memory
  /// contents (stale_read).
  [[nodiscard]] bool on_dma_read(std::uint32_t src_host, std::uint32_t dst_host,
                                 bool from_bar);

  struct CtrlDecision {
    bool inject = false;
    bool fatal = false;
  };
  /// Consulted by the controller as it starts executing an I/O command.
  CtrlDecision on_ctrl_command(std::uint16_t qid, std::uint16_t cid);

  /// Consulted by rdma::QueuePair::post_send. True = lose the capsule.
  [[nodiscard]] bool on_capsule_send();

  /// Injection counters, registered as `nvmeshare.fault.*`.
  struct Stats {
    Stats();
    obs::Counter posted_drops;
    obs::Counter posted_delays;
    obs::Counter link_downs;
    obs::Counter link_ups;
    obs::Counter host_crashes;
    obs::Counter ctrl_errors;
    obs::Counter capsule_drops;
    obs::Counter bit_flips;
    obs::Counter torn_writes;
    obs::Counter stale_reads;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Shared trigger logic: counts the matching op and decides whether this
  /// spec fires on it.
  bool should_fire(std::size_t spec_index);

  FaultPlan plan_;
  Rng rng_;
  /// Set by arm(): windowed specs compare the engine clock against the arm
  /// time, the same origin timed faults use for `at`.
  sim::Engine* engine_ = nullptr;
  sim::Time arm_time_ = 0;
  /// Read by the events arm() scheduled; false once this injector is gone.
  std::shared_ptr<bool> live_ = std::make_shared<bool>(true);
  /// Per-spec runtime state, parallel to plan_.faults.
  struct TriggerState {
    std::uint64_t seen = 0;
    std::uint64_t fired = 0;
  };
  std::vector<TriggerState> trigger_;

  struct CrashHandler {
    std::uint32_t host = kAnyHost;
    std::function<void()> fn;
  };
  std::map<std::uint64_t, CrashHandler> crash_handlers_;
  std::uint64_t next_token_ = 1;

  Stats stats_;
};

}  // namespace nvmeshare::fault
