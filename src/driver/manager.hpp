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
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "driver/admin_queue.hpp"
#include "driver/cost_model.hpp"
#include "driver/mailbox.hpp"
#include "obs/metrics.hpp"
#include "smartio/smartio.hpp"

namespace nvmeshare::driver {

class Manager {
 public:
  static constexpr sim::Duration kMailboxPollNs = 2000;     ///< mailbox server poll period
  static constexpr sim::Duration kMailboxServiceNs = 1500;  ///< per-request decode + validation
  static constexpr sim::Duration kStandbyPollNs = 100'000;  ///< standby's lease-read cadence
  /// Competing standbys resolve deterministically by staggering: the
  /// standby on node n waits n * kClaimStaggerNs after seeing an expired
  /// lease before claiming, and another kClaimStaggerNs after writing the
  /// claim (posted) before concluding it won.
  static constexpr sim::Duration kClaimStaggerNs = 50'000;
  /// A standby's claim holds the lease this many lease durations, enough to
  /// outlive the whole takeover. No well-behaved writer publishes a later
  /// expiry.
  static constexpr std::uint64_t kClaimLeases = 4;
  /// Post-takeover reaper grace: no queue pair is reaped until this long
  /// after a takeover, giving surviving clients time to re-resolve the new
  /// mailbox location and heartbeat into it.
  static constexpr sim::Duration kTakeoverGraceNs = 2'000'000;
  static constexpr std::uint16_t kScrubBlocksPerCmd = 256;  ///< blocks per scrub command
  static constexpr std::uint8_t kArbBurstLog2 = 3;  ///< WRR Arbitration Burst (2^AB per turn)

  struct Config {
    std::uint16_t requested_io_queues = 31;
    sisci::SegmentId metadata_segment_id = 0x4d455441;  // "META"
    /// Base id for the manager's private segments (admin queues, identify
    /// buffer); ids base..base+3 are used.
    sisci::SegmentId private_segment_base = 0x4d000000;
    CostModel costs = CostModel::distributed_driver();
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
    /// Cadence of the background scrubber (docs/MODEL.md §7): every tick it
    /// issues one vendor scrub command verifying the stored protection
    /// tuples of the next kScrubBlocksPerCmd blocks, wrapping at the
    /// namespace end. 0 disables scrubbing. Only useful when the namespace
    /// is PI-formatted (the command is a cheap no-op otherwise).
    sim::Duration scrub_interval_ns = 0;
    // --- QoS / noisy-neighbor protection (docs/MODEL.md §9) ----------------
    /// Enable the controller with CC.AMS = weighted round robin and program
    /// the arbitration weights below; each client's granted priority class
    /// then rides in its Create I/O SQ commands. Off by default — the seed
    /// enables plain round robin and stays byte-identical.
    bool enable_wrr = false;
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

  /// The manager once `steps` succeeded.
  static sim::Co<Result<std::unique_ptr<Manager>>> start_steps(
      std::unique_ptr<Manager> self, sim::Co<Status> (Manager::*steps)());
  /// Exclusive bring-up: reset and enable the controller, identify it,
  /// downgrade to a shared claim, publish the metadata segment and serve.
  sim::Co<Status> bring_up();
  /// Create the admin rings (segments, DMA windows, CPU views) in this
  /// manager's memory, record them in the journal, and place them on the
  /// admin queue.
  Status make_admin_rings();
  /// The 4 KiB buffer admin commands transfer data through.
  Status make_admin_buffer();
  /// Start the mailbox server and every enabled background task.
  void start_serving();
  void register_crash_handler();
  sim::Task mailbox_server(std::shared_ptr<bool> stop);
  /// Start mailbox_server and the watch that wakes it on mailbox writes.
  void serve_mailbox();
  /// Stop every task of this manager; a mailbox server waiting on a tick
  /// sees it.
  void halt();
  /// Serve the request in mailbox slot `slot_index`; false when halted
  /// mid-request (no response written).
  sim::Co<bool> handle_slot(std::uint32_t slot_index, MboxSlot slot, std::shared_ptr<bool> stop);
  /// A mailbox handler's verdict, written back into the slot.
  struct Reply {
    Errc errc = Errc::ok;
    std::uint16_t qid = 0;
    std::uint16_t nvme_status = 0;
    bool stopped = false;  ///< halted mid-request: no response is written
  };
  // Per-opcode handlers. create_qp and delete_qp arrive here as batches of
  // one (qp_count = 1, delete's qid_in moved to qids[0]).
  sim::Co<Reply> create_pairs(MboxSlot& slot, const bool* stop);
  sim::Co<Reply> delete_pairs(MboxSlot& slot, const bool* stop);
  Reply create_share(MboxSlot& slot);
  Reply delete_share(MboxSlot& slot);
  /// Sizes, addresses and strides a create may use: rings that neither
  /// overlap each other nor wrap past 2^64.
  [[nodiscard]] static bool valid_create(const MboxSlot& slot);
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
  /// Standby bring-up: a shared device reference and the active manager's
  /// metadata segment, then the lease watch.
  sim::Co<Status> stand_by();
  /// Map the metadata segment at `loc` as the one being watched.
  Status watch(std::pair<smartio::NodeId, sisci::SegmentId> loc);
  /// Standby main loop: watch the lease, claim on expiry, take over.
  sim::Task standby_watch_task(std::shared_ptr<bool> stop);
  sim::Co<Status> take_over(ManagerLease claim);
  /// Has the watched lease lapsed? The expiry is a uint64 read from another
  /// host's segment: compared sign-safe, and clamped to kClaimLeases lease
  /// durations after this standby first read the value. A live manager
  /// overwrites a bogus value at its next renewal; a dead one lets it lapse.
  [[nodiscard]] bool lease_lapsed(const ManagerLease& lease);
  /// Active-manager lease renewal; self-fences on a foreign epoch.
  sim::Task lease_task(std::shared_ptr<bool> stop);
  void publish_lease();
  /// Stop serving: another manager holds a newer epoch.
  void fence(std::uint64_t foreign_epoch);
  /// Persist the admin ring cursors (v5 journal) — local memory, zero cost.
  void journal_admin_ring();
  void write_owner_entry(std::uint16_t qid, const QpOwnerEntry& e);
  /// Record `e` as qid's grant (a write-ahead intent or an active pair) and
  /// persist it in the owner table.
  void grant(std::uint16_t qid, const QpOwnerEntry& e);
  /// Drop qid's grant and its tenant shares (counted as released) and clear
  /// its owner-table row.
  void forget(std::uint16_t qid);
  /// Lowest I/O qid without an active grant; 0 when none is left.
  [[nodiscard]] std::uint16_t free_qid() const;
  /// Is `qid` an active grant of `node`?
  [[nodiscard]] bool owns(std::uint32_t node, std::uint16_t qid) const;
  sim::Future<Result<nvme::CompletionEntry>> set_arbitration();
  /// Does `client_node` own a grant whose SQ base falls in [lo, hi)?
  [[nodiscard]] bool has_stale_overlap(std::uint32_t client_node, std::uint64_t lo,
                                       std::uint64_t hi) const;
  /// Delete such grants (idempotent re-serve after a manager died mid-grant).
  sim::Co<bool> reclaim_stale(std::uint32_t client_node, std::uint64_t lo, std::uint64_t hi);
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
  AdminQueue admin_;

  MetadataHeader header_;
  /// One tenant share of a queue pair: a disjoint CID sub-range (v6).
  struct ShareEntry {
    std::uint32_t tenant = 0;
    std::uint16_t lo = 0;
    std::uint16_t hi = 0;  ///< exclusive
  };
  /// Everything the manager knows about one qid. `entry` is the owner-table
  /// row (owner, SQ base for stale-grant reclamation, sizes, QoS grant, and
  /// the creation time that gives a client grace before its first
  /// heartbeat); it changes only through grant() and forget().
  struct Grant {
    QpOwnerEntry entry;
    /// Tenant shares, sorted by lo for first-fit gap scans. Manager-local
    /// bookkeeping: shares do not survive an HA takeover (clients
    /// re-request them, like they re-heartbeat) — see MODEL.md §12.
    std::vector<ShareEntry> shares;
    [[nodiscard]] bool active() const noexcept {
      return entry.state == static_cast<std::uint32_t>(QpOwnerState::active);
    }
  };
  /// Index = qid; [0] is the admin pair and never granted. Empty until the
  /// controller is up (or, on a standby, until takeover).
  std::vector<Grant> grants_;
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
  std::uint64_t seen_expiry_ = 0;     ///< last lease expiry read by the watch
  std::uint64_t seen_expiry_at_ = 0;  ///< when the watch first read it
  sisci::Map adopt_asq_map_;       ///< CPU views of adopted admin rings
  sisci::Map adopt_acq_map_;
  /// The mailbox server's tick (in its frame; null once halted) and the
  /// watch that notifies it on writes into the mailbox slots.
  sim::PollTimer* mailbox_timer_ = nullptr;
  mem::WriteWatch mailbox_watch_;
  std::shared_ptr<bool> stop_ = std::make_shared<bool>(false);
  bool serving_ = false;
  bool crashed_ = false;
  fault::Injector* crash_faults_ = nullptr;  ///< injector the crash handler is in
  std::uint64_t crash_token_ = 0;            ///< its registration there
  Stats stats_;
};

}  // namespace nvmeshare::driver
