// Client half of the distributed NVMe driver (Section V).
//
// A client attaches to a managed device from any node in the cluster:
//  1. acquires a shared device reference through SmartIO;
//  2. finds and maps the manager's metadata segment, reading the header
//     across the NTB;
//  3. allocates its queue memory — the CQ always local (it is polled), the
//     SQ either device-side (default, the Figure 8 placement: the CPU
//     writes entries *into device-side memory* through the NTB and the
//     controller fetches them locally) or host-side (ablation);
//  4. resolves device-visible addresses for the queues via SmartIO DMA
//     windows and asks the manager, over the shared-memory mailbox, to
//     create the queue pair with privileged admin commands;
//  5. registers itself as a block device and services requests using a
//     statically partitioned bounce buffer (default) or dynamic per-request
//     IOMMU-style mappings (the paper's future-work extension).
//
// After setup the client operates the controller completely independently
// of the manager and of other clients — no locks, no shared state, just its
// own SQ/CQ rings and doorbells.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "block/block.hpp"
#include "block/io_engine.hpp"
#include "common/status.hpp"
#include "driver/cost_model.hpp"
#include "driver/mailbox.hpp"
#include "mem/iommu.hpp"
#include "mux/mux.hpp"
#include "nvme/queue.hpp"
#include "obs/metrics.hpp"
#include "smartio/smartio.hpp"

namespace nvmeshare::driver {

class Client final : public block::BlockDevice, private block::IoTransport {
 public:
  /// Where the submission queue memory lives (Figure 8 ablation).
  enum class SqPlacement {
    device_side,  ///< paper default: SQ in the device host's memory
    host_side,    ///< SQ in the client's memory; controller fetches remotely
  };
  /// How request data becomes device-reachable.
  enum class DataPath {
    bounce_buffer,  ///< paper default: static partitioned bounce buffer
    iommu,          ///< future-work: dynamic per-request mapping, no copy
  };

  struct Config {
    std::uint16_t queue_entries = 64;  ///< SQ/CQ entries per channel
    std::uint32_t queue_depth = 32;    ///< concurrent requests per channel
    /// I/O channels (queue pairs). One by default — the single-QP layout the
    /// paper evaluates; more spreads submissions across independent SQ/CQ
    /// rings granted by the manager in one mailbox batch.
    std::uint32_t channels = 1;
    /// Ring each SQ doorbell once per submission burst instead of once per
    /// command (shadow-doorbell-style batching). Off by default: fault-free
    /// single-channel runs must execute the exact seed instruction stream.
    bool coalesce_doorbells = false;
    std::uint32_t slot_bytes = 128 * KiB;  ///< bounce partition per request
    SqPlacement sq_placement = SqPlacement::device_side;
    DataPath data_path = DataPath::bounce_buffer;
    CostModel costs = CostModel::distributed_driver();
    sim::Duration mailbox_timeout_ns = 100_ms;
    // --- fault recovery (docs/faults.md); all off by default so fault-free
    // --- runs execute exactly the pre-recovery instruction stream ---------
    /// Per-command deadline. 0 disables the watchdog and with it retries and
    /// queue-pair recovery (commands then wait forever, the seed behavior).
    sim::Duration cmd_timeout_ns = 0;
    /// Submission attempts per command before queue-pair recovery is tried.
    std::uint32_t cmd_retry_limit = 3;
    /// Backoff before the first retry; doubles per subsequent attempt, up
    /// to block::IoEngine::kMaxBackoffNs.
    sim::Duration retry_backoff_ns = 100'000;
    /// Cadence of the liveness heartbeat posted into this client's mailbox
    /// slot (the manager's reaper watches it). 0 disables heartbeating.
    sim::Duration heartbeat_interval_ns = 0;
    /// Mailbox RPC attempts (attach, QP create/delete/recover). 0 or 1 =
    /// single attempt, a timeout is terminal (seed behavior). More: each
    /// timed-out attempt backs off exponentially, re-resolves the manager —
    /// a takeover moves the metadata segment — and re-posts, so admin work
    /// issued during a manager outage completes once a standby is active.
    /// Responses are also epoch-checked against the last lease read
    /// (docs/MODEL.md §10): a fenced manager cannot confirm a grant.
    std::uint32_t mailbox_retry_limit = 0;
    /// Backoff before the second mailbox attempt; doubles per attempt, up
    /// to block::IoEngine::kMaxBackoffNs.
    sim::Duration mailbox_retry_backoff_ns = 200'000;
    /// End-to-end protection information (docs/MODEL.md §7). When set, the
    /// client generates a DIF tuple per block before the bounce copy of a
    /// write (and submits with PRACT so the controller seals its copy),
    /// submits reads with PRCHK, and verifies returned read data against
    /// the shadow tuples after the DMA lands. A verify failure re-enters
    /// the retry machinery like a retryable NVMe status. Valid while this
    /// client is the sole writer of the LBAs it verifies (the paper's
    /// partitioned usage). Off by default.
    bool pi_verify = false;
    // --- QoS (v4 mailbox grant; docs/MODEL.md §9) -------------------------
    /// Priority class requested from the manager. Urgent encodes as 0 in
    /// Create I/O SQ, so the default keeps the seed bytes; the class only
    /// changes arbitration when the manager enabled WRR.
    nvme::SqPriority qos_class = nvme::SqPriority::urgent;
    /// Requested rate budgets (0 = ask for the class default from the
    /// policy table). The *granted* values arm the I/O engine's
    /// token-bucket pacer; an uncapped grant leaves the client unpaced.
    std::uint32_t qos_iops = 0;
    std::uint32_t qos_bytes_per_s = 0;
    /// Disambiguates this client's segment ids when one node attaches to
    /// several devices (one client per device needs its own namespace).
    std::uint32_t segment_namespace = 0;
    std::uint64_t seed = 0xc11e;
  };

  /// Attach to a managed device from `node`; resolves once the queue pair
  /// exists and the block device is usable.
  static sim::Future<Result<std::unique_ptr<Client>>> attach(smartio::Service& service,
                                                             smartio::NodeId node,
                                                             smartio::DeviceId device,
                                                             Config cfg);

  ~Client() override;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- block::BlockDevice ------------------------------------------------------
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::uint32_t block_size() const override { return header_.block_size; }
  [[nodiscard]] std::uint64_t capacity_blocks() const override {
    return header_.capacity_blocks;
  }
  [[nodiscard]] std::uint32_t max_queue_depth() const override {
    return cfg_.queue_depth * cfg_.channels;
  }
  [[nodiscard]] std::uint64_t max_transfer_bytes() const override { return max_transfer_; }
  sim::Future<block::Completion> submit(const block::Request& request) override;

  /// Release the queue pair via the manager and stop the poller. The
  /// future resolves when the manager confirmed deletion.
  sim::Future<Status> detach();

  /// Power off this instance instantly (fault injection): every task stops,
  /// in-flight requests fail with `aborted`, and nothing is cleaned up —
  /// the queue pair stays allocated until the manager's reaper collects it.
  void crash();

  // --- tenant shares (docs/MODEL.md §12) ---------------------------------------
  /// What a tenant asks of this client's queue pair: a CID window, a DRR
  /// weight and QoS budgets (judged by the manager's policy table exactly
  /// like a queue-pair grant).
  struct ShareRequest {
    std::uint32_t tenant = 0;
    std::uint16_t cid_count = 8;  ///< CID window = in-flight cap for the tenant
    std::uint16_t weight = 1;     ///< DRR quantum multiplier
    nvme::SqPriority qos_class = nvme::SqPriority::urgent;
    std::uint32_t qos_iops = 0;
    std::uint32_t qos_bytes_per_s = 0;
  };

  /// Ask the manager for a tenant share of this client's queue pair
  /// (mailbox v6 create_share), then attach it to the local multiplexer.
  /// The client's own traffic moves below the share floor — CIDs
  /// [0, queue_depth) — the first time a share is granted; tenants get
  /// disjoint windows in [queue_depth, queue_entries). Single-channel
  /// clients only: a share pins CIDs of one specific queue pair.
  sim::Future<Result<mux::ShareGrant>> create_share(const ShareRequest& request);

  /// Detach an idle tenant locally and release its CID window at the
  /// manager (mailbox v6 delete_share).
  sim::Future<Status> delete_share(std::uint32_t tenant);

  /// The tenant multiplexer, created lazily by the first share grant
  /// (nullptr until then).
  [[nodiscard]] mux::QpMultiplexer* multiplexer() noexcept { return mux_.get(); }

  /// Queue id of channel `chan` (channel 0 by default).
  [[nodiscard]] std::uint16_t qid(std::uint32_t chan = 0) const noexcept {
    return chan < qids_.size() ? qids_[chan] : 0;
  }
  [[nodiscard]] std::uint32_t channels() const noexcept { return cfg_.channels; }
  [[nodiscard]] smartio::NodeId node() const noexcept { return node_; }
  /// The shared submission core (per-channel inflight/doorbell metrics).
  [[nodiscard]] const block::IoEngine& io_engine() const noexcept { return *engine_io_; }

  /// Per-client counters; each also feeds the global obs::Registry under
  /// `nvmeshare.client.*`, aggregated across all clients.
  struct Stats : block::RequestStats {
    Stats();
    obs::Counter bounce_copies;
    obs::Counter bounce_copy_bytes;
    obs::Counter iommu_maps;
    obs::Counter poll_rounds;
    obs::Counter cmd_timeouts;       ///< per-command deadlines that expired
    obs::Counter cmd_retries;        ///< commands re-submitted after a timeout
    obs::Counter qp_recoveries;      ///< queue-pair re-create cycles
    obs::Counter late_completions;   ///< CQEs whose command already timed out
    obs::Counter heartbeats;         ///< liveness beats posted to the mailbox
    obs::Counter mailbox_retries;    ///< mailbox attempts after a timeout
    obs::Counter manager_failovers;  ///< re-resolves that found a new manager
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  Client(smartio::Service& service, smartio::NodeId node, smartio::DeviceId device, Config cfg);

  static sim::Co<Result<std::unique_ptr<Client>>> attach_steps(std::unique_ptr<Client> self);
  /// Attach: find the manager, build the rings and windows, get the queue
  /// pairs granted, and start polling.
  sim::Co<Status> connect();
  /// Post a mailbox request and await the manager's response.
  sim::Co<Result<MboxSlot>> mailbox_call(MboxSlot request);
  sim::Co<Result<mux::ShareGrant>> create_share_steps(ShareRequest request);
  sim::Co<Status> delete_share_steps(std::uint32_t tenant);
  /// Build the multiplexer on first use, wired to dispatch through the
  /// engine with each tenant's CID window.
  mux::QpMultiplexer& ensure_mux();
  sim::Task poller(std::shared_ptr<bool> stop);
  /// Stop every task of this client; a poller waiting on a tick sees it.
  void halt();
  /// Something the next completion-poll round reads has changed.
  void notify_poller() noexcept {
    if (poll_timer_ != nullptr) poll_timer_->notify();
  }
  sim::Co<Status> detach_steps();
  sim::Task recover_task(std::uint32_t chan, std::shared_ptr<bool> stop);
  sim::Task heartbeat_task(std::shared_ptr<bool> stop);
  /// Re-look-up the manager's metadata registration and, if it moved (a
  /// standby took over), re-connect, re-map, re-read the header/lease and
  /// recompute this node's mailbox slot address. Returns ok when the
  /// mailbox address is usable (moved or not).
  sim::Co<Status> follow_manager();

  // --- block::IoTransport (the NVMe queue-pair personality) ----------------
  [[nodiscard]] const char* stopped_reason() const override { return "client detached"; }
  [[nodiscard]] sim::Duration cpu_ns(obs::Phase phase) override;
  block::Step prepare(const block::Command& cmd, std::uint32_t step) override;
  block::Step settle(const block::Command& cmd, const block::CmdOutcome& outcome) override;
  block::Step teardown(const block::Command& cmd, bool completed, std::uint32_t step) override;
  Result<std::uint16_t> issue(std::uint32_t chan, const block::Command* cmd) override;
  Status ring(std::uint32_t chan) override;
  [[nodiscard]] bool retryable(std::uint16_t status) const override;
  void start_recovery(std::uint32_t chan) override;
  [[nodiscard]] std::uint16_t trace_qid(std::uint32_t chan) const override;
  void on_armed(std::uint32_t chan) override;
  void on_idle() override;

  [[nodiscard]] sim::Engine& engine();
  [[nodiscard]] fabric::Substrate& fabric();
  /// Data copies between the user's DRAM buffer and a bounce slot. The copy
  /// itself is applied instantly; the time is charged separately from the
  /// cost model plus the substrate's staging cost (zero for local DRAM,
  /// port/DSA latency for a pooled bounce segment).
  Status copy_to_bounce(std::uint64_t slot_off, std::uint64_t src, std::uint64_t len);
  Status copy_from_bounce(std::uint64_t dst, std::uint64_t slot_off, std::uint64_t len);
  /// Build channel `chan`'s queue-pair view over this client's ring slices.
  [[nodiscard]] std::unique_ptr<nvme::QueuePair> make_queue_pair(std::uint32_t chan,
                                                                 std::uint16_t qid);
  /// Per-channel ring stride within the SQ/CQ segment.
  [[nodiscard]] std::uint64_t sq_stride_bytes() const noexcept {
    return nvme::ring_stride(cfg_.queue_entries, 64, cfg_.channels);
  }
  [[nodiscard]] std::uint64_t cq_stride_bytes() const noexcept {
    return nvme::ring_stride(cfg_.queue_entries, 16, cfg_.channels);
  }

  smartio::Service& service_;
  smartio::NodeId node_;
  smartio::DeviceId device_id_;
  Config cfg_;
  std::string name_;
  Rng rng_;

  smartio::DeviceRef ref_;
  smartio::BarWindow bar_;
  sisci::Map meta_map_;
  MetadataHeader header_;
  std::uint64_t mbox_addr_ = 0;  ///< this node's slot, client-visible address
  /// Where the metadata registration pointed when we last resolved it; a
  /// mismatch against SmartIO means a standby manager took over.
  std::pair<smartio::NodeId, sisci::SegmentId> meta_loc_{};
  std::uint64_t lease_epoch_ = 0;  ///< manager epoch from the last lease read

  sisci::Segment sq_seg_;
  sisci::Segment cq_seg_;
  sisci::Segment bounce_seg_;
  sisci::Segment prp_seg_;
  smartio::DmaWindow sq_win_;
  smartio::DmaWindow cq_win_;
  smartio::DmaWindow bounce_win_;
  smartio::DmaWindow prp_win_;
  sisci::Map sq_cpu_map_;
  sisci::Map cq_cpu_map_;  ///< CPU view of the CQ (direct unless pooled)

  /// One queue pair per channel; slot, pending, deadline, retry, and
  /// recovery bookkeeping all live in the shared engine.
  std::vector<std::unique_ptr<nvme::QueuePair>> qps_;
  std::vector<std::uint16_t> qids_;
  std::unique_ptr<block::IoEngine> engine_io_;
  std::uint32_t max_transfer_ = 0;
  /// What prepare() leaves in a granted slot for issue() and teardown().
  struct Staged {
    nvme::SubmissionEntry sqe;
    fabric::Window map;   ///< IOMMU mode: the device host's view of the buffer
    bool mapped = false;  ///< IOMMU mode: the buffer is mapped in iommu_
  };
  std::vector<Staged> staged_;  ///< one per engine slot

  std::unique_ptr<sim::Event> poller_kick_;  ///< wakes the idle poller on submit
  /// The running poller's tick (it lives in the poller's frame; null once
  /// the client halted) and the watch that notifies it on CQ writes.
  sim::PollTimer* poll_timer_ = nullptr;
  mem::WriteWatch cq_watch_;
  std::unique_ptr<sim::Semaphore> mailbox_lock_;
  /// Tenant multiplexing state. `own_range_` confines the client's own
  /// traffic once shares exist (empty = full range, the seed path).
  std::unique_ptr<mux::QpMultiplexer> mux_;
  nvme::CidRange own_range_{};
  mem::Iommu iommu_;
  std::shared_ptr<bool> stop_ = std::make_shared<bool>(false);
  bool attached_ = false;
  bool crashed_ = false;
  fault::Injector* crash_faults_ = nullptr;  ///< injector the crash handler is in
  std::uint64_t crash_token_ = 0;            ///< its registration there
  Stats stats_;
  obs::Histogram read_latency_hist_{"nvmeshare.client.read_latency_ns"};
  obs::Histogram write_latency_hist_{"nvmeshare.client.write_latency_ns"};
};

}  // namespace nvmeshare::driver
