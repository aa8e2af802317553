// Manager half of the distributed NVMe driver (Section V).
//
// The manager acquires the device exclusively, resets and initializes the
// controller through SmartIO mappings (its admin SQ is allocated with a
// device-side hint, its admin CQ locally — the Figure 8 policy), negotiates
// the I/O queue count, then downgrades to a shared claim and publishes a
// metadata segment so clients can find it. From then on it serves
// queue-pair create/delete requests arriving in the shared-memory mailbox,
// issuing the privileged admin commands on the clients' behalf.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "driver/cost_model.hpp"
#include "driver/mailbox.hpp"
#include "nvme/queue.hpp"
#include "obs/metrics.hpp"
#include "smartio/smartio.hpp"

namespace nvmeshare::driver {

class Manager {
 public:
  struct Config {
    std::uint16_t admin_entries = 32;
    std::uint16_t requested_io_queues = 31;
    sisci::SegmentId metadata_segment_id = 0x4d455441;  // "META"
    /// Base id for the manager's private segments (admin queues, identify
    /// buffer); ids base..base+3 are used.
    sisci::SegmentId private_segment_base = 0x4d000000;
    CostModel costs = CostModel::distributed_driver();
    sim::Duration mailbox_poll_ns = 2000;
    /// Per-request manager-side processing cost (decode + validation).
    sim::Duration mailbox_service_ns = 1500;
    // --- fault recovery (docs/faults.md); both watchdogs off by default ---
    /// Reap a client's queue pair when its mailbox heartbeat (or the pair's
    /// creation) is older than this. 0 disables the reaper. Only meaningful
    /// when clients heartbeat (Client::Config::heartbeat_interval_ns).
    sim::Duration client_heartbeat_timeout_ns = 0;
    /// Cadence of the reaper's scan over the mailbox slots.
    sim::Duration reaper_interval_ns = 500'000;
    /// Cadence of the CSTS watchdog that detects a fatal controller status
    /// and drives the reset + re-init path. 0 disables it.
    sim::Duration csts_poll_interval_ns = 0;
    // --- manager high availability (docs/MODEL.md §10); off by default -----
    /// Publish and renew a liveness lease of this duration in the metadata
    /// segment (v5). 0 disables HA: the lease slot stays zeroed and no
    /// standby will watch this manager. The active manager renews every
    /// lease_duration_ns / 4 — a handful of local-memory writes per
    /// millisecond, nothing on the I/O hot path.
    sim::Duration lease_duration_ns = 0;
    /// Standby: cadence of the remote lease reads while watching.
    sim::Duration standby_poll_ns = 100'000;
    /// Competing standbys resolve deterministically by staggering: the
    /// standby on node n waits n * claim_stagger_ns after seeing an expired
    /// lease before claiming, and another claim_stagger_ns after writing the
    /// claim (posted) before concluding it won.
    sim::Duration claim_stagger_ns = 50'000;
    /// Post-takeover reaper grace: no queue pair is reaped until this long
    /// after a takeover, giving surviving clients time to re-resolve the new
    /// mailbox location and heartbeat into it.
    sim::Duration takeover_grace_ns = 2'000'000;
    /// Cadence of the background scrubber (docs/MODEL.md §7): every tick it
    /// issues one vendor scrub command verifying the stored protection
    /// tuples of the next `scrub_blocks_per_cmd` blocks, wrapping at the
    /// namespace end. 0 disables scrubbing. Only useful when the namespace
    /// is PI-formatted (the command is a cheap no-op otherwise).
    sim::Duration scrub_interval_ns = 0;
    /// Blocks covered by one scrub command.
    std::uint16_t scrub_blocks_per_cmd = 256;
    // --- QoS / noisy-neighbor protection (docs/MODEL.md §9) ----------------
    /// Enable the controller with CC.AMS = weighted round robin and program
    /// the arbitration weights below; each client's granted priority class
    /// then rides in its Create I/O SQ commands. Off by default — the seed
    /// enables plain round robin and stays byte-identical.
    bool enable_wrr = false;
    std::uint8_t arb_burst_log2 = 3;     ///< Arbitration AB (2^AB per turn)
    std::uint8_t wrr_low_weight = 0;     ///< LPW, 0-based (weight = LPW + 1)
    std::uint8_t wrr_medium_weight = 1;  ///< MPW
    std::uint8_t wrr_high_weight = 3;    ///< HPW
    /// Cluster-wide per-class grant policy, published in the metadata
    /// segment (kQosPolicyOffset) and enforced on create_qp[_batch]: a
    /// disallowed class demotes the request downward, budgets clamp to the
    /// class caps. The default allows every class, uncapped.
    QosPolicyTable qos_policy;
  };

  /// Bring the controller up and start serving; resolves when the metadata
  /// segment is published.
  static sim::Future<Result<std::unique_ptr<Manager>>> start(smartio::Service& service,
                                                             smartio::NodeId node,
                                                             smartio::DeviceId device,
                                                             Config cfg);

  /// Bring up a hot standby (docs/MODEL.md §10): acquires a shared device
  /// reference, maps the active manager's metadata segment, and watches its
  /// lease. On expiry it claims the next epoch and takes over — adopting the
  /// old admin rings and grant state — without survivors releasing the
  /// device. Resolves once the standby is watching; fails if the active
  /// manager does not publish leases. The standby's `metadata_segment_id`
  /// and `private_segment_base` must differ from the active manager's (both
  /// sets of segments can be placed on the same host by hinted allocation).
  static sim::Future<Result<std::unique_ptr<Manager>>> start_standby(smartio::Service& service,
                                                                     smartio::NodeId node,
                                                                     smartio::DeviceId device,
                                                                     Config cfg);

  ~Manager();
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Stop the mailbox server and withdraw the metadata registration.
  /// Clients with established queue pairs keep working (they operate the
  /// controller independently of the manager — Section V); they just can't
  /// create or delete queues until a manager runs again.
  void shutdown();

  /// Power off this instance instantly (fault injection): the mailbox
  /// server and watchdogs stop, but — unlike shutdown() — the metadata
  /// registration is NOT withdrawn: the dead manager cannot clean up after
  /// itself, so clients find a mailbox nobody answers and time out.
  void crash();

  [[nodiscard]] const MetadataHeader& header() const noexcept { return header_; }
  [[nodiscard]] smartio::NodeId node() const noexcept { return node_; }
  [[nodiscard]] std::uint16_t active_queue_pairs() const;
  /// True while this instance answers mailbox requests (an active manager,
  /// or a standby whose takeover completed).
  [[nodiscard]] bool is_active() const noexcept { return serving_; }
  /// True while this instance watches another manager's lease.
  [[nodiscard]] bool is_standby() const noexcept { return standby_; }
  /// Epoch this instance serves (0 = HA disabled / still a standby).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Per-manager counters, also registered as `nvmeshare.manager.*`.
  struct Stats {
    Stats();
    obs::Counter mailbox_requests;
    obs::Counter qps_created;
    obs::Counter qps_deleted;
    obs::Counter request_errors;
    obs::Counter qps_reaped;    ///< orphaned queue pairs collected by the reaper
    obs::Counter ctrl_resets;   ///< fatal-status recoveries by the CSTS watchdog
    obs::Counter scrub_sweeps;      ///< full-namespace scrub passes completed
    obs::Counter scrub_mismatches;  ///< mismatching blocks reported by scrub commands
    obs::Counter lease_renewals;    ///< lease slots written by the active manager
    obs::Counter takeovers;         ///< standby promotions completed
    obs::Counter fencings;          ///< self-fences after observing a foreign epoch
    obs::Counter qps_adopted;       ///< active grants inherited across a takeover
    obs::Counter intent_rollbacks;  ///< half-created grants rolled back at takeover
    obs::Counter shares_granted;    ///< tenant CID sub-ranges granted (v6)
    obs::Counter shares_released;   ///< tenant CID sub-ranges released (v6)
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Issue one admin command (exposed for tests and privileged tooling).
  sim::Future<Result<nvme::CompletionEntry>> submit_admin(nvme::SubmissionEntry entry);

 private:
  Manager(smartio::Service& service, smartio::NodeId node, smartio::DeviceId device,
          Config cfg);

  static sim::Task init_task(std::unique_ptr<Manager> self,
                             sim::Promise<Result<std::unique_ptr<Manager>>> promise);
  sim::Task admin_task(nvme::SubmissionEntry entry,
                       sim::Promise<Result<nvme::CompletionEntry>> promise);
  sim::Task mailbox_server(std::shared_ptr<bool> stop);
  /// Start mailbox_server and the watch that wakes it on mailbox writes.
  void serve_mailbox();
  /// Stop every task of this manager; a mailbox server waiting on a tick
  /// sees it.
  void halt();
  sim::Future<bool> handle_slot_await(std::uint32_t slot_index, MboxSlot slot,
                                      std::shared_ptr<bool> stop);
  sim::Task handle_slot_task(std::uint32_t slot_index, MboxSlot slot,
                             std::shared_ptr<bool> stop, sim::Promise<bool> done);
  /// Dead-client detection: delete queue pairs whose owner stopped
  /// heartbeating (docs/faults.md).
  sim::Task reaper_task(std::shared_ptr<bool> stop);
  /// Fatal-status detection: poll CSTS and run controller reset + re-init
  /// when CFS is raised.
  sim::Task watchdog_task(std::shared_ptr<bool> stop);
  /// Background integrity scrubber: walk the namespace with vendor scrub
  /// commands, one range per tick.
  sim::Task scrub_task(std::shared_ptr<bool> stop);
  // --- manager high availability (docs/MODEL.md §10) ----------------------
  static sim::Task standby_init_task(std::unique_ptr<Manager> self,
                                     sim::Promise<Result<std::unique_ptr<Manager>>> promise);
  /// Standby main loop: watch the lease, claim on expiry, take over.
  sim::Task standby_watch_task(std::shared_ptr<bool> stop);
  sim::Future<Status> takeover_await(ManagerLease claim);
  sim::Task takeover_task(ManagerLease claim, sim::Promise<Status> done);
  /// Active-manager lease renewal; self-fences on a foreign epoch.
  sim::Task lease_task(std::shared_ptr<bool> stop);
  void publish_lease();
  /// Stop serving: another manager holds a newer epoch.
  void fence(std::uint64_t foreign_epoch);
  /// Persist the admin ring cursors (v5 journal) — local memory, zero cost.
  void journal_admin_ring();
  void write_owner_entry(std::uint16_t qid, const QpOwnerEntry& e);
  void clear_owner_entry(std::uint16_t qid) { write_owner_entry(qid, QpOwnerEntry{}); }
  /// Drop every tenant share of `qid` (the pair is going away), counting
  /// each as released.
  void release_shares(std::uint16_t qid);
  /// Does `client_node` own a grant whose SQ base falls in [lo, hi)?
  [[nodiscard]] bool has_stale_overlap(std::uint32_t client_node, std::uint64_t lo,
                                       std::uint64_t hi) const;
  /// Delete such grants (idempotent re-serve after a manager died mid-grant).
  sim::Future<bool> reclaim_stale_await(std::uint32_t client_node, std::uint64_t lo,
                                        std::uint64_t hi);
  sim::Task reclaim_stale_task(std::uint32_t client_node, std::uint64_t lo, std::uint64_t hi,
                               sim::Promise<bool> done);
  /// v4 QoS admission: demote the requested class to the nearest allowed
  /// lower-priority one and clamp the budgets to the class caps, writing
  /// the granted values into the slot's echo fields. Returns false when no
  /// class at or below the requested priority admits the client.
  [[nodiscard]] bool grant_qos(MboxSlot& slot) const;
  /// Priority class for a granted pair's Create I/O SQ: the granted class
  /// under WRR, urgent (which encodes as 0 — the seed bytes) otherwise.
  [[nodiscard]] nvme::SqPriority sq_priority(const MboxSlot& slot) const noexcept {
    return cfg_.enable_wrr ? static_cast<nvme::SqPriority>(slot.qos_granted_class & 0x3)
                           : nvme::SqPriority::urgent;
  }

  [[nodiscard]] sim::Engine& engine();
  [[nodiscard]] fabric::Substrate& fabric();

  smartio::Service& service_;
  smartio::NodeId node_;
  smartio::DeviceId device_id_;
  Config cfg_;
  Rng rng_{0xfeed};

  smartio::DeviceRef ref_;
  smartio::BarWindow bar_;
  sisci::Segment asq_seg_;
  sisci::Segment acq_seg_;
  sisci::Segment admin_data_seg_;
  sisci::Segment metadata_seg_;
  smartio::DmaWindow asq_win_;
  smartio::DmaWindow acq_win_;
  smartio::DmaWindow admin_data_win_;
  sisci::Map asq_cpu_map_;  ///< CPU view of the (possibly device-side) admin SQ
  sisci::Map acq_cpu_map_;  ///< CPU view of the admin CQ (direct unless pooled)
  std::unique_ptr<nvme::QueuePair> admin_qp_;
  std::unique_ptr<sim::Semaphore> admin_lock_;

  MetadataHeader header_;
  std::vector<bool> qid_used_;      ///< index = qid; [0] reserved for admin
  std::vector<std::uint32_t> qid_owner_;
  /// Creation time per qid: grace period before a client's first heartbeat.
  std::vector<sim::Time> qid_created_at_;
  /// SQ base per qid, for stale-grant reclamation on re-served creates.
  std::vector<std::uint64_t> qid_sq_addr_;
  /// One tenant share of a queue pair: a disjoint CID sub-range (v6).
  struct ShareEntry {
    std::uint32_t tenant = 0;
    std::uint16_t lo = 0;
    std::uint16_t hi = 0;  ///< exclusive
  };
  /// Tenant shares per qid, sorted by lo for first-fit gap scans. Manager-
  /// local bookkeeping: shares do not survive an HA takeover (clients
  /// re-request them, like they re-heartbeat) — see MODEL.md §12.
  std::vector<std::vector<ShareEntry>> qid_shares_;
  /// SQ size per qid (the CID space a share scan allocates from).
  std::vector<std::uint16_t> qid_sq_size_;
  // --- HA state -----------------------------------------------------------
  std::uint64_t epoch_ = 0;        ///< 0 until HA is enabled / takeover done
  sim::Time takeover_time_ = 0;    ///< reaper grace anchor (0 = never)
  bool standby_ = false;
  bool adopted_ring_ = false;      ///< admin rings live in another host's DRAM
  bool journal_ready_ = false;     ///< metadata segment exists; journal writes land
  AdminRingJournal journal_;
  smartio::NodeId watched_node_ = 0;        ///< registration owner being watched
  sisci::SegmentId watched_seg_id_ = 0;
  sisci::Map watched_meta_map_;    ///< CPU view of the watched (old) metadata
  sisci::Map adopt_asq_map_;       ///< CPU views of adopted admin rings
  sisci::Map adopt_acq_map_;
  /// The mailbox server's tick (in its frame; null once halted) and the
  /// watch that notifies it on writes into the mailbox slots.
  sim::PollTimer* mailbox_timer_ = nullptr;
  mem::WriteWatch mailbox_watch_;
  std::shared_ptr<bool> stop_ = std::make_shared<bool>(false);
  bool serving_ = false;
  bool crashed_ = false;
  std::uint64_t crash_token_ = 0;  ///< fault-injector registration
  Stats stats_;
};

}  // namespace nvmeshare::driver
