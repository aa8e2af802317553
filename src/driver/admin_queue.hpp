// The NVMe admin layer, written once for both controller owners: the
// single-host BareController (baselines) and the distributed driver's
// Manager, which performs the same steps through SmartIO mappings on its
// clients' behalf (Section V). One admin queue pair and its lock, the CC.EN
// handshake, the identify step, and I/O queue-pair create/delete.
//
// The multi-command steps are sim::Co, so they run inline in the caller's
// coroutine: factoring them out here adds no engine event.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/status.hpp"
#include "driver/cost_model.hpp"
#include "fabric/substrate.hpp"
#include "nvme/queue.hpp"
#include "nvme/spec.hpp"
#include "sim/task.hpp"

namespace nvmeshare::driver {

/// Admin SQ and CQ depth of both controller owners (Manager, BareController).
inline constexpr std::uint16_t kAdminEntries = 32;

/// One admin ring: the CPU's view of it (SQE stores, CQ polling), the
/// address ASQ/ACQ latch, and the backing memory zeroed before an enable.
struct AdminRing {
  std::uint64_t cpu_addr = 0;
  std::uint64_t device_addr = 0;
  fabric::HostId home = 0;  ///< host whose DRAM backs the ring
  std::uint64_t phys = 0;
  std::uint64_t bytes = 0;
};

/// Where the controller's registers and admin rings are, as one host sees
/// them.
struct AdminLayout {
  fabric::Initiator cpu;
  std::uint64_t bar = 0;  ///< BAR0 base in `cpu`'s address space
  std::uint16_t entries = 0;
  AdminRing sq;
  AdminRing cq;
};

/// What the CC.EN 0 -> 1 handshake observed.
struct EnableResult {
  /// ok once CSTS.RDY rose; else the first failure (strict) or a timeout.
  Status status;
  bool down = false;   ///< RDY dropped after CC.EN was cleared
  bool ready = false;  ///< RDY rose after CC.EN was set
};

/// Controller and namespace 1 as the identify step found them.
struct ControllerInfo {
  std::uint32_t max_transfer_bytes = 0;
  std::uint64_t capacity_blocks = 0;
  std::uint32_t block_size = 0;
  std::uint16_t granted_io_queues = 0;
};

/// One I/O queue pair to create: SQ and CQ share `qid`.
struct IoPairSpec {
  std::uint16_t qid = 0;
  std::uint64_t sq_addr = 0;
  std::uint16_t sq_size = 0;
  std::uint64_t cq_addr = 0;
  std::uint16_t cq_size = 0;
  std::optional<std::uint16_t> irq_vector;  ///< nullopt: polled CQ
  nvme::SqPriority priority = nvme::SqPriority::urgent;
};

struct CreateResult {
  /// ok, io_error naming the refusing command, or the transport failure.
  Status status;
  std::uint16_t nvme_status = 0;  ///< the refusing completion's status field
  /// The caller's stop flag rose while a command was in flight; the step
  /// returned at once and rolled nothing back.
  bool stopped = false;
};

struct DeleteResult {
  bool sq_ok = false;
  bool cq_ok = false;
};

class AdminQueue {
 public:
  AdminQueue(fabric::Substrate& fabric, const CostModel& costs);

  /// Use `layout` from the next enable() or adopt() on.
  void place(const AdminLayout& layout) { layout_ = layout; }

  /// Called after each push (before its doorbell), after each consumed
  /// completion, and after enable() rebuilds the ring wrapper.
  void on_advance(std::function<void()> hook) { on_advance_ = std::move(hook); }

  /// The CC.EN 0 -> 1 handshake: clear CC.EN and wait for CSTS.RDY to drop,
  /// zero the rings, program AQA/ASQ/ACQ, set CC.EN | `cc_extra` and wait
  /// for RDY; the queue wrapper then restarts at index 0. `strict`
  /// (bring-up) returns at a failed CC or AQA write, a failed CSTS read,
  /// CFS, or the poll limit. Otherwise (controller recovery) failures are
  /// only reported: every poll runs to its limit and the sequence always
  /// completes.
  sim::Co<EnableResult> enable(std::uint32_t cc_extra, bool strict);

  /// Continue rings another owner left at `state` (no controller reset).
  void adopt(const nvme::QueuePair::RingState& state);

  /// Issue one admin command and await its completion (serialized). NVMe
  /// failures come back in the completion's status. Callers spawn it.
  sim::Co<Result<nvme::CompletionEntry>> submit(nvme::SubmissionEntry entry);

  /// Identify controller and namespace 1 through the 4 KiB buffer `data`,
  /// then negotiate `requested` I/O queues.
  sim::Co<Result<ControllerInfo>> identify(AdminRing data, std::uint16_t requested);
  /// Set Features / Number of Queues; the granted I/O queue count.
  sim::Co<Result<std::uint16_t>> negotiate_queues(std::uint16_t requested);

  /// Create the CQ, then the SQ bound to it; a refused SQ deletes the CQ
  /// again. `stop`, when given, is checked after each create.
  sim::Co<CreateResult> create_io_pair(IoPairSpec spec, const bool* stop = nullptr);
  /// Delete SQ `qid`, then CQ `qid`; both are always attempted.
  sim::Co<DeleteResult> delete_io_pair(std::uint16_t qid);

  /// Held across submit(); controller recovery takes it to rebuild the rings.
  [[nodiscard]] sim::Semaphore& lock() noexcept { return lock_; }
  [[nodiscard]] nvme::QueuePair::RingState ring_state() const { return qp_->ring_state(); }

 private:
  /// Poll CSTS until RDY equals `want` (see enable() for `strict`).
  sim::Co<Status> wait_ready(bool want, bool strict);
  Status write_reg(std::uint64_t offset, std::uint64_t value, std::size_t width);
  sim::Co<Result<nvme::CompletionEntry>> delete_cq(std::uint16_t qid);
  [[nodiscard]] sim::Engine& engine() const noexcept { return fabric_.engine(); }
  void open();
  void advanced() {
    if (on_advance_) on_advance_();
  }

  fabric::Substrate& fabric_;
  CostModel costs_;
  AdminLayout layout_;
  std::unique_ptr<nvme::QueuePair> qp_;
  sim::Semaphore lock_;
  std::function<void()> on_advance_;
};

}  // namespace nvmeshare::driver
