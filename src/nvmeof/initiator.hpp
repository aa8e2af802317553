// Kernel-style NVMe-oF initiator over RDMA (Figure 9a's client side): a
// block device whose submit path builds a command capsule and SENDs it to
// the target; data moves one-sided (target-initiated RDMA), and completion
// capsules arrive via RECV with interrupt-driven handling.
//
// Submission, deadline, retry, and reconnect orchestration live in the
// shared block::IoEngine; this file supplies the message-transport
// personality: an issue stages a capsule, a ring posts the staged SENDs
// (so doorbell coalescing maps to SEND batching), and a broken channel is
// re-established by accepting a fresh RDMA queue pair from the target.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "block/block.hpp"
#include "block/io_engine.hpp"
#include "driver/cost_model.hpp"
#include "nvmeof/capsule.hpp"
#include "nvmeof/target.hpp"
#include "obs/metrics.hpp"
#include "rdma/rdma.hpp"

namespace nvmeshare::nvmeof {

class Initiator final : public block::BlockDevice, private block::IoTransport {
 public:
  struct Config {
    std::uint32_t queue_depth = 32;  ///< concurrent requests per channel
    /// I/O channels: independent RDMA queue pairs to the target, sharing
    /// one completion queue (kernel initiators open one QP per core).
    std::uint32_t channels = 1;
    /// Batch SENDs: capsules staged within one doorbell-latency window go
    /// out in a single post burst (off = seed stream, one post per capsule).
    bool coalesce_doorbells = false;
    driver::CostModel costs = driver::CostModel::nvmeof_initiator();
    // --- fault recovery (docs/faults.md); off by default ------------------
    /// Per-capsule response deadline. 0 disables the watchdog and with it
    /// retries and reconnects (commands then wait forever, the seed
    /// behavior).
    sim::Duration capsule_timeout_ns = 0;
    /// SEND attempts per command before the connection is re-established.
    std::uint32_t capsule_retry_limit = 3;
    /// Backoff before the first retry; doubles per subsequent attempt.
    sim::Duration retry_backoff_ns = 100'000;
    /// Attach a CRC-32C data digest (DDGST) to write capsules and verify
    /// the digest the target returns with read payloads. A read-digest
    /// mismatch re-enters the capsule retry machinery. Off by default.
    bool data_digest = false;
    std::uint64_t seed = 0x1217;
  };

  /// Connect to a target from `node`.
  static sim::Future<Result<std::unique_ptr<Initiator>>> connect(sisci::Cluster& cluster,
                                                                 rdma::Network& network,
                                                                 Target& target,
                                                                 rdma::NodeId node, Config cfg);

  ~Initiator() override;
  Initiator(const Initiator&) = delete;
  Initiator& operator=(const Initiator&) = delete;

  // --- block::BlockDevice ------------------------------------------------------
  [[nodiscard]] std::string_view name() const override { return "nvme-of"; }
  [[nodiscard]] std::uint32_t block_size() const override { return block_size_; }
  [[nodiscard]] std::uint64_t capacity_blocks() const override { return capacity_blocks_; }
  [[nodiscard]] std::uint32_t max_queue_depth() const override {
    return cfg_.queue_depth * cfg_.channels;
  }
  [[nodiscard]] std::uint64_t max_transfer_bytes() const override { return max_transfer_; }
  sim::Future<block::Completion> submit(const block::Request& request) override;

  /// The shared submission core (per-channel inflight/doorbell metrics).
  [[nodiscard]] const block::IoEngine& io_engine() const noexcept { return *engine_io_; }

  /// Per-initiator counters, also registered as `nvmeshare.nvmeof_initiator.*`.
  struct Stats : block::RequestStats {
    Stats();
    obs::Counter interrupts;
    obs::Counter capsule_timeouts;  ///< response deadlines that expired
    obs::Counter capsule_retries;   ///< capsules re-sent after a timeout
    obs::Counter reconnects;        ///< connection re-establishments
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// What one issue() stages for the next SEND burst.
  struct SendDesc {
    std::uint64_t addr = 0;
    std::uint32_t len = 0;
    std::uint16_t cid = 0;  ///< engine-global slot, unique across channels
  };

  Initiator(sisci::Cluster& cluster, rdma::Network& network, rdma::NodeId node, Config cfg);

  static sim::Co<Result<std::unique_ptr<Initiator>>> connect_steps(
      std::unique_ptr<Initiator> self, Target* target);
  sim::Task completion_loop(std::shared_ptr<bool> stop);
  sim::Task reconnect_task(std::uint32_t chan, std::shared_ptr<bool> stop);
  /// Post channel `chan`'s share of the RECV ring on its queue pair.
  void post_recv_ring(std::uint32_t chan);

  /// Capsule buffer of engine slot `slot`.
  [[nodiscard]] std::uint64_t capsule_addr(std::uint32_t slot) const noexcept {
    return cmd_base_ + static_cast<std::uint64_t>(slot) * kCapsuleSlotBytes;
  }
  /// Bytes one SEND of `request`'s capsule puts on the wire (in-capsule
  /// data included).
  [[nodiscard]] std::uint32_t wire_len(const block::Request& request) const;

  // --- block::IoTransport (the message-transport personality) --------------
  [[nodiscard]] const char* stopped_reason() const override { return "initiator stopped"; }
  [[nodiscard]] sim::Duration cpu_ns(obs::Phase phase) override;
  block::Step prepare(const block::Command& cmd, std::uint32_t step) override;
  block::Step settle(const block::Command& cmd, const block::CmdOutcome& outcome) override;
  [[nodiscard]] bool settle_before_completion() const override { return true; }
  Result<std::uint16_t> issue(std::uint32_t chan, const block::Command* cmd) override;
  Status ring(std::uint32_t chan) override;
  [[nodiscard]] bool ring_failure_fails_attempt() const override { return true; }
  void start_recovery(std::uint32_t chan) override;
  [[nodiscard]] std::uint16_t trace_qid(std::uint32_t chan) const override;

  sisci::Cluster& cluster_;
  rdma::Network& network_;
  rdma::NodeId node_;
  Config cfg_;
  Rng rng_;

  std::unique_ptr<rdma::Context> ctx_;
  std::unique_ptr<rdma::CompletionQueue> cq_;
  std::vector<rdma::QueuePair*> qps_;  ///< one per channel, shared CQ
  std::uint64_t cmd_base_ = 0;   ///< total_depth command capsule buffers
  std::uint64_t resp_base_ = 0;  ///< total_depth response capsule buffers

  std::uint64_t capacity_blocks_ = 0;
  std::uint32_t block_size_ = 0;
  std::uint32_t max_transfer_ = 0;

  std::unique_ptr<block::IoEngine> engine_io_;
  std::vector<std::vector<SendDesc>> staged_;  ///< per channel, until ring()
  Target* target_ = nullptr;  ///< for reconnects (targets outlive initiators)
  std::shared_ptr<bool> stop_ = std::make_shared<bool>(false);
  Stats stats_;
};

}  // namespace nvmeshare::nvmeof
