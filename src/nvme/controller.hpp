// Simulated single-function NVMe controller (Optane P4800X-like profile).
//
// The controller is a PCIe endpoint: BAR0 carries the register file,
// doorbells, and an MSI-X table. It fetches submission entries with DMA
// reads through the fabric, executes them against a sparse block store with
// a configurable service-time model, transfers data via PRPs, and posts
// completions with correct phase-tag semantics. Because all memory access
// goes through the fabric, queues may live anywhere a DMA address can reach
// — including memory on a remote host behind an NTB, which is exactly the
// property the paper's driver exploits.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "nvme/block_store.hpp"
#include "nvme/spec.hpp"
#include "obs/metrics.hpp"
#include "fabric/endpoint.hpp"
#include "fabric/substrate.hpp"
#include "sim/task.hpp"

namespace nvmeshare::nvme {

class Controller final : public fabric::Endpoint {
 public:
  static constexpr std::uint16_t kMaxQueueEntries = 1024;  ///< CAP.MQES + 1, any queue's bound
  static constexpr std::uint16_t kFetchBurst = 8;  ///< max SQEs fetched per DMA read

  /// Media / processing latency profile. Defaults approximate an Intel
  /// Optane P4800X: low, very consistent 4 KiB latency (the paper picked
  /// this device precisely for its consistency).
  struct ServiceModel {
    sim::Duration cmd_fixed_ns = 700;    ///< controller-internal processing per command
    sim::Duration read_media_ns = 7200;  ///< 4 KiB (8-block) media read
    sim::Duration write_media_ns = 7800;
    sim::Duration per_block_ns = 14;     ///< additional cost per block beyond 8
    sim::Duration flush_ns = 3000;
    double jitter_sigma = 0.015;         ///< lognormal sigma on media time
    double tail_probability = 0.004;     ///< rare slow command ...
    double tail_multiplier = 2.0;        ///< ... takes this much longer
    sim::Duration admin_ns = 2000;       ///< admin command processing
    sim::Duration enable_ns = 20'000;    ///< CC.EN=1 -> CSTS.RDY=1
    int channels = 7;                    ///< concurrent media operations
    /// Pause before retrying an I/O queue's SQ fetch or CQE post whose DMA
    /// failed (unreachable queue memory, e.g. NTB link down). Per-queue
    /// isolation: only admin-queue DMA failure is controller-fatal.
    sim::Duration queue_retry_ns = 20'000;
  };

  struct Config {
    /// Device name as seen in the SmartIO registry.
    std::string name = "nvme0";
    /// Queue pairs including the admin pair. P4800X: 32, hence the paper's
    /// "shared by up to 31 hosts".
    std::uint16_t max_queue_pairs = 32;
    std::uint64_t capacity_blocks = 375ull * 1000 * 1000 * 1000 / 512;
    std::uint32_t block_size = 512;
    /// Format the namespace with Type 1 protection information: the store
    /// keeps a DIF tuple per block, I/O commands honor PRACT/PRCHK, and the
    /// vendor scrub command verifies stored guards. Off by default —
    /// fault-free integrity-off runs execute the seed instruction stream.
    bool pi_enabled = false;
    ServiceModel service;
    std::uint64_t seed = 0x5eed;
  };

  Controller(sim::Engine& engine, Config cfg);

  // --- fabric::Endpoint -------------------------------------------------------
  [[nodiscard]] std::string_view name() const override { return cfg_.name; }
  [[nodiscard]] int bar_count() const override { return 1; }
  [[nodiscard]] std::uint64_t bar_size(int bar) const override {
    return bar == 0 ? 16 * KiB : 0;
  }
  Result<Bytes> bar_read(int bar, std::uint64_t offset, std::size_t len) override;
  Status bar_write(int bar, std::uint64_t offset, ConstByteSpan data) override;

  // --- introspection ------------------------------------------------------------
  [[nodiscard]] bool is_ready() const noexcept { return (csts_ & kCstsReady) != 0; }
  [[nodiscard]] bool is_fatal() const noexcept { return (csts_ & kCstsFatal) != 0; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] BlockStore& store() noexcept { return store_; }
  /// Number of I/O queue pairs currently alive (for tests).
  [[nodiscard]] int active_io_sq_count() const;

  /// Controller counters, also registered as `nvmeshare.controller.*`.
  struct Stats {
    Stats();
    obs::Counter doorbell_writes;
    obs::Counter commands_fetched;
    obs::Counter fetch_dma_reads;
    obs::Counter admin_commands;
    obs::Counter io_reads;
    obs::Counter io_writes;
    obs::Counter io_flushes;
    obs::Counter bytes_read;
    obs::Counter bytes_written;
    obs::Counter errors_completed;  ///< commands completed with non-zero status
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct CqState {
    bool valid = false;
    std::uint64_t base = 0;
    std::uint16_t size = 0;
    std::uint16_t tail = 0;
    std::uint16_t head = 0;  // shadow from CQ head doorbell
    bool phase = true;       // phase of entries the controller writes next
    bool irq_enabled = false;
    std::uint16_t irq_vector = 0;
    std::unique_ptr<sim::Event> space;  // signaled when head doorbell moves
  };
  struct SqState {
    bool valid = false;
    std::uint64_t base = 0;
    std::uint16_t size = 0;
    std::uint16_t head = 0;  // controller consume pointer
    std::uint16_t tail = 0;  // shadow from SQ tail doorbell
    std::uint16_t cqid = 0;
    /// QPRIO from Create I/O SQ (SqPriority value); only consulted when the
    /// controller was enabled with CC.AMS = WRR.
    std::uint8_t prio = 0;
    /// Earliest time the arbiter may retry this queue after a transient
    /// fetch-DMA failure (per-queue isolation: other queues keep flowing).
    sim::Time retry_not_before = 0;
  };
  struct MsixEntry {
    std::uint64_t addr = 0;
    std::uint32_t data = 0;
    bool masked = true;
  };

  // Register handling.
  [[nodiscard]] std::uint64_t read_register(std::uint64_t offset, std::size_t len) const;
  void write_cc(std::uint32_t value);
  void handle_doorbell(std::uint64_t offset, std::uint32_t value);
  void enable_controller();
  void disable_controller(bool fatal);

  // Command pipeline. One central arbiter services every SQ doorbell: the
  // admin queue drains with strict priority, then the I/O queues take turns
  // of at most arbitration-burst commands each (the burst is Set Features /
  // Arbitration AB). The turn order is the mechanism latched from CC.AMS at
  // enable time: plain round robin, or weighted round robin with urgent
  // class — urgent queues strictly first, then high/medium/low spending
  // per-class credits reloaded from the arbitration weights.
  sim::Task arbiter_task(std::uint64_t gen);
  /// `cls` value for scan_queues() that matches every priority class.
  static constexpr int kAnyClass = -1;
  /// The first fetchable I/O queue at or after `cursor`, rotating, of class
  /// `cls` (0 = nothing fetchable). Queues with work but mid-retry set
  /// `deferred` and lower `next_retry` to their retry time.
  [[nodiscard]] std::uint16_t scan_queues(std::uint16_t cursor, int cls, bool& deferred,
                                          sim::Time& next_retry);
  /// The I/O queue after `qid` in rotation order.
  [[nodiscard]] std::uint16_t next_queue(std::uint16_t qid) const noexcept;
  /// WRR queue selection for one arbitration turn. Returns the chosen qid
  /// (0 = nothing fetchable).
  [[nodiscard]] std::uint16_t wrr_pick(bool& deferred, sim::Time& next_retry);
  /// Fetch and dispatch up to `limit` commands from `qid` with one DMA
  /// read. Returns the count fetched, -1 after a transient DMA failure
  /// (the queue's retry_not_before was armed), -2 on a fatal one.
  sim::Co<int> fetch_turn(std::uint16_t qid, std::uint16_t limit, std::uint64_t gen);
  /// Commands one I/O queue may fetch per arbitration turn (2^AB; AB = 7
  /// means unlimited per spec).
  [[nodiscard]] std::uint16_t arb_burst() const noexcept {
    return arb_burst_log2_ >= 7 ? 0xFFFF
                                : static_cast<std::uint16_t>(1u << arb_burst_log2_);
  }
  sim::Task execute_command(std::uint16_t qid, SubmissionEntry sqe, std::uint16_t sq_head_after,
                            std::uint64_t gen);
  sim::Task complete(std::uint16_t sqid, std::uint16_t sq_head_after, std::uint16_t cid,
                     std::uint16_t status, std::uint32_t dw0, std::uint64_t gen,
                     sim::Time not_before);

  // Admin handlers; return {status, dw0}.
  struct AdminResult {
    std::uint16_t status = kScSuccess;
    std::uint32_t dw0 = 0;
  };
  sim::Task run_admin(SubmissionEntry sqe, std::uint16_t sq_head_after, std::uint64_t gen);
  AdminResult admin_create_cq(const SubmissionEntry& sqe);
  AdminResult admin_create_sq(const SubmissionEntry& sqe, std::uint64_t gen);
  AdminResult admin_delete_sq(const SubmissionEntry& sqe);
  AdminResult admin_delete_cq(const SubmissionEntry& sqe);
  AdminResult admin_set_features(const SubmissionEntry& sqe);
  AdminResult admin_get_features(const SubmissionEntry& sqe);

  sim::Task run_io(std::uint16_t qid, SubmissionEntry sqe, std::uint16_t sq_head_after,
                   std::uint64_t gen);

  /// A command's data pages as a scatter list, stored inline: a transfer
  /// of at most MDTS (128 KiB) spans 32 pages plus an unaligned head page,
  /// so walking a PRP chain never allocates.
  struct PrpScatter {
    static constexpr std::size_t kMaxEntries = 33;
    std::array<fabric::SgEntry, kMaxEntries> entries{};
    std::size_t count = 0;

    void push_back(fabric::SgEntry e) noexcept { entries[count++] = e; }
    [[nodiscard]] std::span<const fabric::SgEntry> span() const noexcept {
      return {entries.data(), count};
    }
  };

  /// Decode the PRP chain of a command into a scatter list of `total` bytes.
  /// May cost simulated time (PRP-list fetch is a DMA read).
  sim::Co<Result<PrpScatter>> walk_prps(std::uint64_t prp1, std::uint64_t prp2,
                                        std::uint64_t total);
  /// Append the data pages of a fetched PRP list to `sg`; false if an
  /// entry is not page-aligned. Not a coroutine, so the list is copied once
  /// onto the stack, not into a frame.
  static bool append_prp_list(const mem::Payload& list, std::uint64_t remaining,
                              PrpScatter& sg);

  [[nodiscard]] sim::Duration media_latency(IoOpcode op, std::uint32_t nblocks);

  sim::Engine& engine_;
  Config cfg_;
  BlockStore store_;
  Rng rng_;

  // Register file.
  std::uint64_t cap_ = 0;
  std::uint32_t vs_ = 0x00010400;  // 1.4
  std::uint32_t cc_ = 0;
  std::uint32_t csts_ = 0;
  std::uint32_t aqa_ = 0;
  std::uint64_t asq_ = 0;
  std::uint64_t acq_ = 0;

  std::vector<SqState> sqs_;
  std::vector<CqState> cqs_;
  std::vector<MsixEntry> msix_;
  std::unique_ptr<sim::Semaphore> channels_;
  std::unique_ptr<sim::Event> work_;  ///< any SQ doorbell; wakes the arbiter
  std::uint16_t rr_next_ = 1;         ///< next I/O queue to offer a turn
  std::uint8_t arb_burst_log2_ = 3;   ///< Arbitration feature AB field
  /// Arbitration mechanism latched from CC.AMS when the controller was
  /// enabled (writes to CC while enabled do not re-arbitrate).
  std::uint32_t ams_ = kCcAmsRoundRobin;
  std::uint8_t lpw_ = 0;  ///< low-priority weight, 0-based (weight = LPW+1)
  std::uint8_t mpw_ = 0;  ///< medium-priority weight, 0-based
  std::uint8_t hpw_ = 0;  ///< high-priority weight, 0-based
  std::array<std::uint16_t, 4> wrr_next_{};    ///< per-class round-robin cursor
  std::array<std::uint32_t, 3> wrr_credits_{};  ///< high/medium/low turns left
  std::uint64_t generation_ = 0;  ///< bumped on reset; stale work is dropped
  std::uint16_t granted_io_queues_ = 0;
  std::vector<std::uint16_t> pending_aer_cids_;
  Stats stats_;
};

}  // namespace nvmeshare::nvme
