// Multi-queue I/O engine: the request lifecycle and submission/completion/
// retry core that all three data paths (driver::Client, driver::LocalDriver,
// nvmeof::Initiator) share instead of hand-rolling their own loops.
//
// The engine owns everything that is the same across backends:
//  - serve(): one request from submit to finish — validation, slot grant,
//    software costs, request counters and spans, the post-completion
//    verify-and-retry, and the stop and lifetime checks after suspensions;
//  - a set of per-channel queue slots, granted round robin behind one
//    acquire() facade;
//  - doorbell write coalescing: submissions that land inside one
//    doorbell-latency window share a single ring, so sustained load rings
//    the doorbell less than once per command (shadow-doorbell-style
//    batching; off by default, the seed rings once per command);
//  - the pending-command table with per-command deadline watchdogs,
//    exponential-backoff retries, and one channel-recovery cycle before a
//    command is failed;
//  - the pi_verify shadow-tuple table (client-side DIX: generate a DIF
//    tuple per written block, verify returned read data against it).
//
// What stays in the backend is the transport personality, expressed as an
// IoTransport: how data and command reach the device (bounce copy, IOMMU
// map or direct PRPs; SQE push vs. capsule staging), what happens to the
// data after completion (bounce copy-back, digest verify), what one
// doorbell write means (tail store vs. RDMA SEND burst), which NVMe
// statuses are worth retrying, and how a broken channel is rebuilt
// (mailbox re-create vs. fabric reconnect).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "block/block.hpp"
#include "common/status.hpp"
#include "common/token_bucket.hpp"
#include "common/units.hpp"
#include "integrity/integrity.hpp"
#include "mem/phys_mem.hpp"
#include "nvme/queue.hpp"
#include "nvme/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/task.hpp"

namespace nvmeshare::block {

/// Ceiling on channels per engine; matches the largest queue-pair batch the
/// manager mailbox can grant in one request (driver/mailbox.hpp).
inline constexpr std::uint32_t kMaxEngineChannels = 16;

/// Backend-neutral outcome of one engine run: either a genuine completion
/// (carrying the wire status), a deadline expiry, a transport-level error
/// (SQ unreachable, SEND failed), or an abort because the backend stopped.
struct CmdOutcome {
  enum class Kind : std::uint8_t { completed, timed_out, transport_error, aborted };
  Kind kind = Kind::completed;
  std::uint16_t status = 0;  ///< NVMe status field (kind == completed)
  std::uint16_t token = 0;   ///< completion token of the final attempt
  Status transport;          ///< first failure (kind == transport_error)
  std::uint64_t aux = 0;     ///< transport extra (NVMe-oF: response data digest)

  /// The command reached the device and came back (with any status).
  [[nodiscard]] bool completed() const noexcept { return kind == Kind::completed; }
  [[nodiscard]] bool ok() const noexcept { return completed() && status == 0; }
};

/// The Status a request finishes with for `outcome`: ok for a clean
/// completion, io_error naming a nonzero NVMe status, timed_out, the
/// transport's own failure, or aborted with the backend's `stopped` reason.
[[nodiscard]] Status outcome_status(const CmdOutcome& outcome, const char* stopped);

/// The NVMe I/O opcode a block request is issued as.
[[nodiscard]] nvme::IoOpcode nvme_opcode(Op op);

/// One request in flight through IoEngine::serve(), as the transport hooks
/// see it. `slot` is the engine-global grant slot; backends key their
/// per-request staging on it (bounce partition, PRP page, capsule buffer).
struct Command {
  Request request;
  std::uint32_t slot = 0;
  nvme::CidRange range;  ///< NVMe CID window; hi == 0 selects the whole queue
};

/// What one transport hook step asks of the request lifecycle.
struct Step {
  Step() = default;
  /// A step that ends the request with `st`.
  Step(Status st) : status(std::move(st)) {}  // NOLINT(google-explicit-constructor)

  Status status = Status::ok();  ///< a failure ends the request with it
  sim::Duration cost = 0;        ///< CPU time to charge before going on
  std::optional<obs::Phase> phase;  ///< span to mark once the cost is charged
  bool again = false;     ///< prepare/teardown: call the hook once more
  bool mismatch = false;  ///< settle: data failed a verify a resend may heal
};

/// The per-backend transport personality the engine drives. One channel ==
/// one queue pair (NVMe SQ/CQ or RDMA QP). All hooks run on the simulation
/// thread and none suspends: the request lifecycle charges the costs they
/// return, so it owns every suspension and every stop check after one.
class IoTransport {
 public:
  virtual ~IoTransport() = default;

  // --- the request lifecycle (IoEngine::serve) ------------------------------

  /// Abort reason of requests that find the backend stopped or destroyed.
  [[nodiscard]] virtual const char* stopped_reason() const { return "stopped"; }

  /// Jittered software cost of the submit (Phase::submit) or completion
  /// (Phase::completion) path, drawn from the backend's own cost model and
  /// random stream.
  [[nodiscard]] virtual sim::Duration cpu_ns(obs::Phase) { return 0; }

  /// Step `step` of placing the data and the wire command in the slot
  /// (bounce copy, IOMMU map, PRPs, SQE or capsule). A failed step must
  /// undo what earlier steps set up.
  virtual Step prepare(const Command&, std::uint32_t /*step*/) { return {}; }

  /// Data handling after a clean completion (bounce copy-back, read-digest
  /// verify). The lifecycle marks a returned phase with the command's cid.
  virtual Step settle(const Command&, const CmdOutcome&) { return {}; }

  /// true: the completion cost is charged only after a settle() without
  /// failure. false: it is charged as soon as the command completes, before
  /// settle().
  [[nodiscard]] virtual bool settle_before_completion() const { return false; }

  /// Step `step` of releasing what prepare() set up, once the command ran;
  /// `completed` tells whether it genuinely completed.
  virtual Step teardown(const Command&, bool /*completed*/, std::uint32_t /*step*/) {
    return {};
  }

  // --- the command core (IoEngine::run) --------------------------------------

  /// Place the command on channel `chan` without ringing any doorbell
  /// (push the SQE / stage the capsule). Returns the completion token the
  /// transport will later hand to IoEngine::complete() (NVMe cid, capsule
  /// cid). Fails when the queue memory is unreachable or the ring is full.
  /// `cmd` is the request serve() runs (null for a bare run()).
  virtual Result<std::uint16_t> issue(std::uint32_t chan, const Command* cmd) = 0;

  /// One doorbell write for everything issued on `chan` since the last
  /// ring (SQ tail store; NVMe-oF: post the staged SENDs).
  virtual Status ring(std::uint32_t chan) = 0;

  /// Whether a ring() failure dooms the staged attempts (true for message
  /// transports, where the SEND *is* the submission) or is absorbed by the
  /// deadline watchdog (NVMe doorbells to an unreachable BAR).
  [[nodiscard]] virtual bool ring_failure_fails_attempt() const { return false; }

  /// Is this wire status worth a bounded resubmission? (Default: no — a
  /// genuine device response is final.)
  [[nodiscard]] virtual bool retryable(std::uint16_t) const { return false; }

  /// Rebuild channel `chan` (delete/re-create the queue pair, reconnect).
  /// The transport must eventually call IoEngine::finish_recovery(chan).
  virtual void start_recovery(std::uint32_t chan) = 0;

  /// Queue id used for trace spans and (qid, cid) cross-host correlation.
  [[nodiscard]] virtual std::uint16_t trace_qid(std::uint32_t chan) const = 0;

  /// A command was armed on `chan` (completions are coming): wake an idle
  /// completion poller if the backend parks one.
  virtual void on_armed(std::uint32_t chan) { (void)chan; }

  /// The last armed command left the engine (completion, timeout, recovery
  /// sweep): a completion poller that parks when idle must see it.
  virtual void on_idle() {}
};

/// The request counters of every backend that serves through IoEngine,
/// registered as `<prefix>.reads` and so on. write_zeroes and discard count
/// as writes; errors counts requests that finished with a failure.
struct RequestStats {
  explicit RequestStats(const std::string& prefix);
  obs::Counter reads;
  obs::Counter writes;
  obs::Counter flushes;
  obs::Counter errors;
};

/// The backend's own metrics the engine updates for requests and for
/// timeout, retry, recovery and late-completion events (nvmeshare.client.*,
/// nvmeshare.local_driver.*, nvmeshare.nvmeof_initiator.*). They are the
/// only metrics for these events: the engine's own nvmeshare.engine.*
/// metrics cover per-channel traffic and QoS pacing. Null pointers are
/// skipped.
struct EngineCounters {
  RequestStats* requests = nullptr;
  obs::Counter* timeouts = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* recoveries = nullptr;
  obs::Counter* late_completions = nullptr;
  /// Latency of successful reads and writes.
  obs::Histogram* read_latency = nullptr;
  obs::Histogram* write_latency = nullptr;
};

class IoEngine {
 public:
  /// How the engine annotates trace spans around its awaits.
  enum class TraceStyle : std::uint8_t {
    none,    ///< no marks (local driver)
    nvme,    ///< sq_write / doorbell / cq_wait (queue-pair backends)
    fabric,  ///< capsule_send / cq_wait (message backends)
  };

  struct Config {
    std::string backend = "engine";  ///< metric component: engine.<backend>.*
    std::uint32_t channels = 1;
    std::uint32_t queue_depth = 32;    ///< in-flight ceiling per channel
    std::uint16_t queue_entries = 0;   ///< ring entries per channel; 0 = no ring
    /// Ring once per submission burst instead of once per command. Off by
    /// default: the seed path rings per command, and fault-free runs must
    /// execute the exact seed instruction stream.
    bool coalesce_doorbells = false;
    sim::Duration doorbell_ns = 80;  ///< doorbell store + fence CPU cost
    // Deadline/retry knobs, same semantics as before the refactor: a zero
    // timeout disables the watchdog, retries, and channel recovery.
    sim::Duration cmd_timeout_ns = 0;
    std::uint32_t cmd_retry_limit = 3;
    sim::Duration retry_backoff_ns = 100'000;
    // QoS pacing (token bucket over commands and payload bytes). Both rates
    // zero (the default) leave the pacer disarmed, so unconfigured runs
    // execute the exact seed instruction stream.
    std::uint64_t qos_iops_limit = 0;   ///< commands per second; 0 = off
    std::uint64_t qos_bytes_per_s = 0;  ///< payload bytes per second; 0 = off
    std::uint32_t qos_burst_cmds = 32;  ///< command-bucket capacity
    TraceStyle trace_style = TraceStyle::none;
    EngineCounters counters;
  };

  /// Attach-time validation shared by every backend. The load-bearing rule:
  /// queue_depth < queue_entries — a depth equal to entries makes SQ-full
  /// indistinguishable from SQ-empty on wrap, wedging the ring.
  [[nodiscard]] static Status validate(const Config& cfg);

  static constexpr std::uint64_t kQosBurstBytes = 1u << 20;  ///< QoS byte-bucket capacity

  /// Ceiling on a single backoff delay. A plain `base << attempts` wraps
  /// the 64-bit Duration for large bases; every backoff clamps here.
  static constexpr sim::Duration kMaxBackoffNs = 100'000'000;

  /// Exponential backoff before retry `attempt` (1-based): `base`, doubling
  /// per attempt, clamped to `max`. The clamp is compared before shifting —
  /// `base << n` on a 64-bit Duration wraps (and can go negative, i.e. a
  /// zero-length sleep) once the product crosses 2^63.
  [[nodiscard]] static sim::Duration backoff_ns(sim::Duration base, std::uint32_t attempt,
                                                sim::Duration max = kMaxBackoffNs);

  /// `stop` is the backend's stop flag: set, it aborts requests at their
  /// next check with the transport's stopped_reason().
  IoEngine(sim::Engine& engine, IoTransport& transport, std::shared_ptr<bool> stop,
           Config cfg);
  /// Requests suspended in serve() resolve `aborted` when they next wake,
  /// touching neither the engine nor its backend.
  ~IoEngine();
  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  /// Serve one block request from submit to finish: validate it against
  /// `device`, take a slot, charge the submit cost, let the transport place
  /// the data and command, run the command (see run()), charge the
  /// completion cost, let the transport settle the data (a PI or digest
  /// mismatch is resent with a fresh retry budget), tear down and finish.
  /// `range` confines NVMe CID allocation to a tenant's window.
  [[nodiscard]] sim::Future<Completion> serve(const BlockDevice& device, const Request& request,
                                              nvme::CidRange range = {});

  // --- slot accounting and channel scheduling -----------------------------

  /// A granted submission slot. `slot` is engine-global
  /// (chan * queue_depth + local index) so backends can key bounce
  /// partitions, PRP list pages, and capsule buffers directly on it.
  struct Grant {
    std::uint32_t chan = 0;
    std::uint32_t slot = 0;
  };

  /// Wait for a free slot, then pick a channel by the configured policy.
  /// Channels mid-recovery are skipped while any surviving channel has
  /// capacity (drain-to-survivors).
  [[nodiscard]] sim::Future<Grant> acquire();
  void release(const Grant& grant);

  // --- the shared submission/completion/retry core ------------------------

  struct RunArgs {
    Grant grant;
    const Command* cmd = nullptr;     ///< passed through to IoTransport::issue
    obs::PhaseMarker* ph = nullptr;   ///< optional phase marks (sq_write, ...)
    std::uint64_t trace = 0;          ///< trace id for (qid, cid) binding
    std::uint64_t bytes = 0;          ///< payload size, for byte-rate pacing
  };

  /// Run one command to a final outcome: issue, coalesced doorbell,
  /// completion wait bounded by the deadline watchdog, bounded
  /// exponential-backoff retries, and one channel-recovery cycle before
  /// giving up. serve() handles the data around it and spawns run() again
  /// for a verify-failure resubmission.
  sim::Co<CmdOutcome> run(RunArgs args);

  /// Deliver a completion observed by the backend's poller. Returns false
  /// for an unknown (already timed out / swept) token — counted as a late
  /// completion.
  bool complete(std::uint32_t chan, std::uint16_t token, std::uint16_t status,
                std::uint64_t aux = 0);

  /// True when no command is in flight anywhere (pollers park on this).
  [[nodiscard]] bool idle() const noexcept { return pending_count_ == 0; }

  // --- channel recovery ---------------------------------------------------

  /// Resolve every pending command on `chan` with a timed_out outcome (the
  /// waiting run() loops classify and retry); recovery sweeps call this.
  void fail_pending(std::uint32_t chan);
  /// fail_pending() across all channels (crash / stop paths).
  void fail_all_pending();
  /// Transport recovery finished (success or not): wake waiting commands.
  void finish_recovery(std::uint32_t chan);
  [[nodiscard]] bool recovering(std::uint32_t chan) const {
    return channels_[chan]->recovering;
  }

  /// Arm pi_verify: serve() generates a shadow DIF tuple per written block
  /// of the user buffer in `dram` and verifies read data against it, with
  /// `block_size`-byte logical blocks.
  void enable_pi(mem::PhysMem& dram, std::uint32_t block_size);

  [[nodiscard]] std::uint32_t channels() const noexcept { return cfg_.channels; }
  [[nodiscard]] std::uint32_t total_depth() const noexcept {
    return cfg_.channels * cfg_.queue_depth;
  }
  [[nodiscard]] std::uint32_t inflight(std::uint32_t chan) const {
    return channels_[chan]->inflight;
  }
  /// Doorbell writes / coalesced command counts, summed across channels
  /// (the per-channel values live in the metrics registry).
  [[nodiscard]] std::uint64_t doorbell_writes() const;
  [[nodiscard]] std::uint64_t coalesced_cmds() const;

  // --- QoS pacing ---------------------------------------------------------

  /// Whether either token bucket is armed (a nonzero rate was configured).
  [[nodiscard]] bool qos_enabled() const noexcept {
    return cfg_.qos_iops_limit != 0 || cfg_.qos_bytes_per_s != 0;
  }
  /// Nanoseconds submissions spent parked in the pacer, and commands that
  /// were deferred at least once.
  [[nodiscard]] std::uint64_t qos_throttle_ns() const noexcept {
    return qos_throttle_ns_.value();
  }
  [[nodiscard]] std::uint64_t qos_deferred_cmds() const noexcept {
    return qos_deferred_cmds_.value();
  }

 private:
  /// Write path: remember a tuple per block of the user buffer (before any
  /// bounce copy, so everything downstream is covered). write_zeroes and
  /// discard drop the tuples, mirroring device PI semantics. No-op unless
  /// armed.
  void pi_note_submit(const Request& request);
  /// Read path: check returned data against the shadow tuples. Blocks this
  /// engine never wrote have no tuple and are skipped; true unless armed.
  [[nodiscard]] bool pi_check_read(const Request& request);

  /// One coalesced doorbell burst: the first command to stage schedules the
  /// ring doorbell_ns later; everything staged meanwhile shares it.
  struct FlushBatch {
    explicit FlushBatch(sim::Engine& engine) : done(engine) {}
    sim::Event done;
    Status status = Status::ok();
    std::uint32_t staged = 0;
  };

  /// One in-flight command attempt. Nodes come from a chunked free-list
  /// arena and are indexed by completion token in a per-channel
  /// direct-mapped table, so the submit/complete hot path performs no heap
  /// allocation and no tree walk (the former std::map + per-attempt
  /// sim::Promise both allocated). The one-shot channel the waiting
  /// run() parks on is intrusive: complete()/the watchdog store the
  /// outcome here and schedule the resume through the engine queue —
  /// identical wake-up ordering to the Promise it replaces.
  struct PendingCmd {
    CmdOutcome outcome;
    std::uint64_t seq = 0;  ///< guards the token against reuse by a retry
    std::coroutine_handle<> waiter;
    bool resolved = false;
    PendingCmd* next_free = nullptr;
  };
  /// Awaitable for the command outcome (`co_await OutcomeAwaiter{...}`).
  struct OutcomeAwaiter {
    PendingCmd* cmd;
    [[nodiscard]] bool await_ready() const noexcept { return cmd->resolved; }
    void await_suspend(std::coroutine_handle<> h) noexcept { cmd->waiter = h; }
    [[nodiscard]] CmdOutcome await_resume() noexcept { return std::move(cmd->outcome); }
  };

  struct Channel {
    Channel(sim::Engine& engine, const std::string& prefix);
    std::vector<std::uint32_t> free_slots;  ///< local indices, LIFO
    std::uint32_t inflight = 0;
    bool recovering = false;
    sim::Event recovered;  ///< set whenever no recovery is running
    std::shared_ptr<FlushBatch> open_batch;
    /// Direct map: completion token -> armed command. Grown on demand to
    /// the largest token the transport hands out (NVMe cid < ring entries;
    /// NVMe-oF cid < channels * queue_depth).
    std::vector<PendingCmd*> pending;
    // Per-channel metrics (nvmeshare.engine.<backend>.qp<N>.*).
    obs::Gauge inflight_gauge;
    obs::Counter doorbell_writes;
    obs::Counter coalesced_cmds;
  };

  sim::Co<Completion> serve_steps(const BlockDevice& device, Request request,
                                  nvme::CidRange range);
  sim::Task acquire_task(sim::Promise<Grant> promise);
  sim::Task flush_task(std::uint32_t chan, std::shared_ptr<FlushBatch> batch);
  /// Doorbell-latency delay, then one ring for the burst this command
  /// joined; returns the ring status.
  sim::Co<Status> flush(std::uint32_t chan);
  /// Pick a channel for the next grant; requires at least one free slot
  /// somewhere (the slot semaphore guarantees it).
  [[nodiscard]] std::uint32_t pick_channel();
  void request_recovery(std::uint32_t chan);

  // --- pending-command arena ----------------------------------------------
  [[nodiscard]] PendingCmd* alloc_cmd();
  void free_cmd(PendingCmd* cmd) noexcept;
  /// The armed command for (chan, token), or nullptr.
  [[nodiscard]] PendingCmd* lookup(std::uint32_t chan, std::uint16_t token) const;
  /// One past the largest completion token a well-behaved transport can
  /// hand out; bounds the per-channel pending-table growth.
  [[nodiscard]] std::uint32_t token_cap() const noexcept {
    return std::max<std::uint32_t>(cfg_.queue_entries, total_depth());
  }
  /// Arm (chan, token) -> cmd. Returns false (without arming) for a token
  /// beyond token_cap() — the caller fails the attempt as a transport error.
  [[nodiscard]] bool arm(std::uint32_t chan, std::uint16_t token, PendingCmd* cmd);
  void disarm(std::uint32_t chan, std::uint16_t token) noexcept;
  /// Store the outcome and wake the waiting run() (via the engine queue,
  /// preserving deterministic wake-up order). Call after disarm().
  void resolve(PendingCmd* cmd, CmdOutcome outcome);

  sim::Engine& engine_;
  IoTransport& transport_;
  std::shared_ptr<bool> stop_;
  /// Cleared by the destructor. A coroutine checks its copy after every
  /// suspension before it touches the engine or the backend.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  Config cfg_;

  std::vector<std::unique_ptr<Channel>> channels_;
  std::unique_ptr<sim::Semaphore> slots_;  ///< total free slots, all channels
  std::uint32_t rr_cursor_ = 0;

  static constexpr std::size_t kCmdChunk = 64;  ///< arena growth quantum
  std::vector<std::unique_ptr<PendingCmd[]>> cmd_chunks_;
  std::size_t cmd_chunk_used_ = kCmdChunk;  ///< forces the first allocation
  PendingCmd* cmd_free_ = nullptr;
  std::size_t pending_count_ = 0;  ///< armed commands, all channels
  std::uint64_t cmd_seq_ = 0;

  TokenBucket qos_cmds_;
  TokenBucket qos_bytes_;
  obs::Counter qos_throttle_ns_;
  obs::Counter qos_deferred_cmds_;

  mem::PhysMem* pi_dram_ = nullptr;
  std::uint32_t pi_block_size_ = 0;
  std::unordered_map<std::uint64_t, integrity::ProtectionInfo> shadow_pi_;
};

}  // namespace nvmeshare::block
