// Stock-Linux-style local NVMe driver: the paper's local baseline.
//
// Runs on the host the device is installed in, brings the controller up
// directly (BareController), uses one or more I/O queue pairs in local DRAM
// (one per channel, sharing a single MSI-X vector), DMAs straight into
// request buffers (no bounce buffer), and completes requests from MSI-X
// interrupts — a mature, lean submission path with interrupt-driven
// completion, exactly what Figure 9a's "stock Linux driver" scenario uses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "block/block.hpp"
#include "block/io_engine.hpp"
#include "driver/bringup.hpp"
#include "driver/cost_model.hpp"
#include "driver/irq.hpp"
#include "nvme/queue.hpp"
#include "obs/metrics.hpp"

namespace nvmeshare::driver {

class LocalDriver final : public block::BlockDevice, private block::IoTransport {
 public:
  struct Config {
    std::uint16_t queue_entries = 256;  ///< SQ/CQ entries per channel
    std::uint32_t queue_depth = 128;    ///< concurrent requests per channel
    /// I/O channels (queue pairs); all share one MSI-X vector.
    std::uint32_t channels = 1;
    block::IoEngine::Scheduler scheduler = block::IoEngine::Scheduler::round_robin;
    /// Ring each SQ doorbell once per submission burst (off = seed stream).
    bool coalesce_doorbells = false;
    CostModel costs = CostModel::stock_linux();
    /// false = poll the CQ instead of using MSI-X (SPDK-style usage).
    bool use_interrupts = true;
    std::uint64_t seed = 0x10ca1;
  };

  /// Bring up the controller and the I/O queue pairs. `irq` may be null
  /// when use_interrupts is false.
  static sim::Future<Result<std::unique_ptr<LocalDriver>>> start(sisci::Cluster& cluster,
                                                                 pcie::EndpointId endpoint,
                                                                 IrqController* irq,
                                                                 Config cfg);

  ~LocalDriver() override;
  LocalDriver(const LocalDriver&) = delete;
  LocalDriver& operator=(const LocalDriver&) = delete;

  // --- block::BlockDevice ------------------------------------------------------
  [[nodiscard]] std::string_view name() const override { return "nvme-local"; }
  [[nodiscard]] std::uint32_t block_size() const override { return ctrl_->block_size(); }
  [[nodiscard]] std::uint64_t capacity_blocks() const override {
    return ctrl_->capacity_blocks();
  }
  [[nodiscard]] std::uint32_t max_queue_depth() const override {
    return cfg_.queue_depth * cfg_.channels;
  }
  [[nodiscard]] std::uint64_t max_transfer_bytes() const override {
    return ctrl_->max_transfer_bytes();
  }
  sim::Future<block::Completion> submit(const block::Request& request) override;

  [[nodiscard]] BareController& controller() noexcept { return *ctrl_; }
  /// The shared submission core (per-channel inflight/doorbell metrics).
  [[nodiscard]] const block::IoEngine& io_engine() const noexcept { return *engine_io_; }

  /// Per-driver counters, also registered as `nvmeshare.local_driver.*`.
  struct Stats {
    Stats();
    obs::Counter reads;
    obs::Counter writes;
    obs::Counter flushes;
    obs::Counter errors;
    obs::Counter interrupts;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  LocalDriver(sisci::Cluster& cluster, Config cfg);

  static sim::Task init_task(std::unique_ptr<LocalDriver> self, pcie::EndpointId endpoint,
                             IrqController* irq,
                             sim::Promise<Result<std::unique_ptr<LocalDriver>>> promise);
  sim::Task io_task(block::Request request, sim::Promise<block::Completion> promise);
  sim::Task completion_loop(std::shared_ptr<bool> stop);

  // --- block::IoTransport (the local queue-pair personality) ---------------
  Result<std::uint16_t> issue(std::uint32_t chan, void* cookie) override;
  Status ring(std::uint32_t chan) override;
  [[nodiscard]] bool retryable(std::uint16_t status) const override;
  void start_recovery(std::uint32_t chan) override;
  [[nodiscard]] std::uint16_t trace_qid(std::uint32_t chan) const override;

  void drain_cq();

  sisci::Cluster& cluster_;
  Config cfg_;
  Rng rng_;
  std::unique_ptr<BareController> ctrl_;
  IrqController* irq_ = nullptr;
  std::uint32_t irq_vector_ = 0;
  bool irq_vector_allocated_ = false;

  std::uint64_t sq_addr_ = 0;  ///< channel c's SQ at sq_addr_ + c * ring bytes
  std::uint64_t cq_addr_ = 0;
  std::uint64_t prp_pages_addr_ = 0;  ///< total_depth PRP-list pages
  std::vector<std::uint16_t> qids_;
  std::vector<std::unique_ptr<nvme::QueuePair>> qps_;
  std::unique_ptr<block::IoEngine> engine_io_;

  std::unique_ptr<sim::Event> irq_event_;
  /// Polled mode: the completion loop's tick (in its frame; null once the
  /// driver stops) and the watch that notifies it on CQ writes.
  sim::PollTimer* poll_timer_ = nullptr;
  mem::WriteWatch cq_watch_;
  std::shared_ptr<bool> stop_ = std::make_shared<bool>(false);
  Stats stats_;
};

}  // namespace nvmeshare::driver
