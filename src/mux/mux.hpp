// Tenant multiplexing over one physical NVMe queue pair.
//
// The paper's sharing model is one queue pair per borrowing host, which caps
// the cluster at 31 hosts (the controller exposes 32 pairs). Following the
// mediated-queue idea of "Software-based NVMe Virtualization with I/O Queues
// Passthrough" (PAPERS.md), this layer lets many lightweight *tenants* —
// containers, VMs, users on the borrowing host — share that host's pair:
//
//  * each tenant holds a manager-granted share carrying a disjoint CID
//    sub-range of the pair's command-identifier space (nvme::CidRange), so
//    a completion routes back to its owner by CID alone and one tenant can
//    never occupy another's submission slots;
//  * submissions stage in per-tenant rings and a deficit-round-robin
//    scheduler dequeues them fairly (byte-aware: the deficit is spent in
//    blocks) before SQE placement;
//  * per-tenant token buckets (same fixed-point scheme as the I/O engine's
//    pacer) enforce the share's QoS grant, so a noisy tenant throttles
//    itself instead of its neighbours.
//
// The multiplexer is transport-agnostic: it hands each dequeued request to
// a DispatchFn the owning driver provides (driver::Client routes it through
// its normal engine path, pinned to the tenant's CID range). TenantDevice
// wraps one tenant as a block::BlockDevice so unmodified workloads run per
// tenant.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "block/block.hpp"
#include "common/status.hpp"
#include "common/token_bucket.hpp"
#include "common/units.hpp"
#include "nvme/queue.hpp"
#include "obs/metrics.hpp"
#include "sim/ring.hpp"
#include "sim/task.hpp"

namespace nvmeshare::mux {

/// One tenant's manager-granted slice of a physical queue pair: a disjoint
/// CID sub-range (also the tenant's in-flight window), a DRR weight, and
/// the QoS budgets the manager's policy table actually granted.
struct ShareGrant {
  std::uint32_t tenant = 0;
  std::uint16_t qid = 0;
  nvme::CidRange range;
  std::uint16_t weight = 1;                ///< DRR quantum multiplier
  std::uint32_t qos_iops = 0;              ///< granted; 0 = unpaced
  std::uint32_t qos_bytes_per_s = 0;       ///< granted; 0 = unpaced
};

/// Fair multiplexer for one shared queue pair. Single simulation thread,
/// deterministic: tenants are served in attach order, all wake-ups go
/// through the engine queue.
class QpMultiplexer {
 public:
  /// How a dequeued request reaches the wire: the owning driver submits it
  /// through its normal data path with CID allocation pinned to `range`.
  using DispatchFn =
      std::function<sim::Future<block::Completion>(const block::Request&, const nvme::CidRange&)>;

  /// DRR quantum in blocks added per round to each backlogged tenant
  /// (scaled by the share's weight). A request costs max(1, nblocks).
  static constexpr std::uint32_t kQuantumBlocks = 8;
  static constexpr std::uint64_t kQosBurstBytes = 256 * KiB;  ///< QoS byte-bucket capacity

  struct Config {
    std::uint32_t block_size = 512;     ///< for byte-rate pacing
    std::uint32_t qos_burst_cmds = 16;  ///< command-bucket capacity
  };

  QpMultiplexer(sim::Engine& engine, DispatchFn dispatch, std::shared_ptr<bool> stop,
                Config cfg);
  QpMultiplexer(const QpMultiplexer&) = delete;
  QpMultiplexer& operator=(const QpMultiplexer&) = delete;
  ~QpMultiplexer();

  /// Register a granted share. Fails on a duplicate tenant id, an empty
  /// range, or a range overlapping an already-attached share (the manager
  /// guarantees disjointness; this guards against a buggy caller).
  Status attach_tenant(const ShareGrant& grant);

  /// Remove an idle tenant (no staged or in-flight commands).
  Status detach_tenant(std::uint32_t tenant);

  /// Stage one request on the tenant's ring; the future resolves with the
  /// end-to-end completion (staging wait included in latency_ns).
  sim::Future<block::Completion> submit(std::uint32_t tenant, const block::Request& request);

  /// Wake the scheduler (the owning driver calls this when stopping so the
  /// parked coroutine observes the stop flag and drains).
  void kick();

  [[nodiscard]] std::size_t tenant_count() const noexcept { return order_.size(); }
  [[nodiscard]] const ShareGrant* grant(std::uint32_t tenant) const;
  /// Commands a tenant currently has staged + in flight.
  [[nodiscard]] std::size_t tenant_backlog(std::uint32_t tenant) const;

  /// Multiplexer counters, registered as `nvmeshare.mux.*` (aggregated
  /// across every multiplexer in the cluster).
  struct Stats {
    Stats();
    obs::Gauge tenants;             ///< shares currently attached (this instance)
    obs::Counter shares_attached;
    obs::Counter staged_cmds;       ///< submissions accepted into staging rings
    obs::Counter dispatched_cmds;   ///< DRR dequeues handed to the driver
    obs::Counter completed_cmds;
    obs::Counter drr_rounds;        ///< scheduler passes over the tenant list
    obs::Counter throttle_ns;       ///< ns dispatches spent parked in QoS pacing
    obs::Counter deferred_cmds;     ///< dispatches that hit a QoS stall
    obs::Counter aborted_cmds;      ///< staged work failed at stop/detach
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Staged {
    block::Request request;
    sim::Time start = 0;
    sim::Promise<block::Completion> promise;
  };

  struct Tenant {
    explicit Tenant(ShareGrant g) : grant(g) {}
    ShareGrant grant;
    sim::Ring<Staged> ring;  ///< staged commands, FIFO; a warm ring allocates nothing
    std::int64_t deficit = 0;
    std::uint32_t inflight = 0;  ///< dispatched, not yet completed
    TokenBucket cmd_bucket;
    TokenBucket byte_bucket;
  };

  sim::Task scheduler_task(std::shared_ptr<bool> stop);
  sim::Task dispatch_task(Tenant& t, Staged staged, std::shared_ptr<bool> stop);
  void resolve_aborted(Staged& staged);
  /// Resolve a tenant's staged commands as aborted, in FIFO order.
  void abort_staged(Tenant& t);

  sim::Engine& engine_;
  DispatchFn dispatch_;
  std::shared_ptr<bool> stop_;
  /// Cleared by the destructor so coroutines parked on the kick event (or
  /// awaiting a dispatch) never touch a destroyed multiplexer. `stop_` is
  /// the *owner's* flag — not ours to set.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  Config cfg_;
  sim::Event kick_;
  bool scheduler_running_ = false;
  std::unordered_map<std::uint32_t, std::unique_ptr<Tenant>> tenants_;
  std::vector<std::uint32_t> order_;  ///< attach order = DRR service order
  Stats stats_;
};

/// One tenant's share exposed as a block device: geometry mirrors the
/// underlying device, the queue depth is the share's CID window, and every
/// submission flows through the multiplexer's DRR + QoS machinery.
class TenantDevice final : public block::BlockDevice {
 public:
  TenantDevice(QpMultiplexer& mux, block::BlockDevice& underlying, std::uint32_t tenant);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::uint32_t block_size() const override { return underlying_.block_size(); }
  [[nodiscard]] std::uint64_t capacity_blocks() const override {
    return underlying_.capacity_blocks();
  }
  [[nodiscard]] std::uint32_t max_queue_depth() const override;
  [[nodiscard]] std::uint64_t max_transfer_bytes() const override {
    return underlying_.max_transfer_bytes();
  }
  sim::Future<block::Completion> submit(const block::Request& request) override;

 private:
  QpMultiplexer& mux_;
  block::BlockDevice& underlying_;
  std::uint32_t tenant_;
  std::string name_;
};

}  // namespace nvmeshare::mux
