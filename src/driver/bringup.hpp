// BareController: classic single-host NVMe controller bring-up, used by the
// baselines (stock-Linux-style local driver and the SPDK-style NVMe-oF
// target). Runs on the host the device is installed in and talks to BAR0
// directly — no SmartIO, no NTBs. The paper's distributed driver performs
// the same steps through the SmartIO abstractions (see driver/manager.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/status.hpp"
#include "driver/admin_queue.hpp"
#include "driver/cost_model.hpp"
#include "fabric/types.hpp"
#include "sisci/sisci.hpp"

namespace nvmeshare::driver {

class BareController {
 public:
  struct Config {
    std::uint16_t requested_io_queues = 31;
    CostModel costs = CostModel::stock_linux();
  };

  /// Reset and enable the controller, set up admin queues in local DRAM,
  /// identify controller + namespace, and negotiate I/O queue count.
  static sim::Future<Result<std::unique_ptr<BareController>>> init(sisci::Cluster& cluster,
                                                                   fabric::EndpointId endpoint,
                                                                   Config cfg);

  ~BareController();
  BareController(const BareController&) = delete;
  BareController& operator=(const BareController&) = delete;

  /// Issue one admin command and await its completion (serialized).
  sim::Co<Result<nvme::CompletionEntry>> submit_admin(nvme::SubmissionEntry entry);

  /// Create an I/O queue pair with both queues in this host's memory.
  /// Returns the queue id. `irq_vector`: MSI-X vector for CQ interrupts,
  /// or nullopt for a polled CQ.
  sim::Co<Result<std::uint16_t>> create_queue_pair(std::uint64_t sq_addr, std::uint16_t sq_size,
                                                   std::uint64_t cq_addr, std::uint16_t cq_size,
                                                   std::optional<std::uint16_t> irq_vector);

  // --- discovered properties ---------------------------------------------------
  [[nodiscard]] std::uint64_t capacity_blocks() const noexcept { return capacity_blocks_; }
  [[nodiscard]] std::uint32_t block_size() const noexcept { return block_size_; }
  [[nodiscard]] std::uint32_t max_transfer_bytes() const noexcept { return mdts_bytes_; }
  [[nodiscard]] std::uint16_t granted_io_queues() const noexcept { return granted_io_queues_; }
  [[nodiscard]] std::uint64_t bar_base() const noexcept { return bar_base_; }
  [[nodiscard]] fabric::HostId host() const noexcept { return host_; }
  [[nodiscard]] sisci::Cluster& cluster() noexcept { return cluster_; }

  /// Doorbell addresses for queue `qid` (local BAR addresses).
  [[nodiscard]] std::uint64_t sq_doorbell(std::uint16_t qid) const {
    return bar_base_ + nvme::sq_doorbell_offset(qid);
  }
  [[nodiscard]] std::uint64_t cq_doorbell(std::uint16_t qid) const {
    return bar_base_ + nvme::cq_doorbell_offset(qid);
  }

  /// Program MSI-X table entry `vector` to fire at `addr` with `data`.
  Status program_msix(std::uint16_t vector, std::uint64_t addr, std::uint32_t data);

 private:
  BareController(sisci::Cluster& cluster, fabric::EndpointId endpoint, Config cfg);

  static sim::Co<Result<std::unique_ptr<BareController>>> init_steps(
      std::unique_ptr<BareController> self);

  sisci::Cluster& cluster_;
  fabric::EndpointId endpoint_;
  Config cfg_;
  fabric::HostId host_ = 0;
  std::uint64_t bar_base_ = 0;
  std::uint64_t asq_addr_ = 0;
  std::uint64_t acq_addr_ = 0;
  std::uint64_t admin_data_addr_ = 0;  ///< 4 KiB buffer for identify payloads
  AdminQueue admin_;

  std::uint64_t capacity_blocks_ = 0;
  std::uint32_t block_size_ = 0;
  std::uint32_t mdts_bytes_ = 0;
  std::uint16_t granted_io_queues_ = 0;
  std::uint16_t next_qid_ = 1;
};

}  // namespace nvmeshare::driver
