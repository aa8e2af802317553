// Host-side view of one NVMe queue pair: SQ tail/CQ head bookkeeping, phase
// tag tracking, CID allocation, and the actual (posted) stores that reach
// the queue memory and doorbells through the PCIe fabric.
//
// Shared by every driver in the tree: the distributed driver's manager and
// clients, the local baseline driver, and the NVMe-oF target. The queue
// memory may be local DRAM, an NTB window, or CXL pooled memory — the ring
// logic is identical,
// which is precisely the paper's observation that "any address a controller
// can use DMA to is a valid queue memory location".
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "nvme/spec.hpp"
#include "obs/metrics.hpp"
#include "fabric/substrate.hpp"

namespace nvmeshare::nvme {

/// A contiguous `[lo, hi)` slice of a queue pair's CID space. Tenant shares
/// (src/mux) each hold a disjoint range so completions can be routed back to
/// their owner by CID alone, with no per-command tagging on the wire.
/// Bytes from one channel's ring to the next when `channels` rings of
/// `entries` x `entry_bytes` share one allocation. One channel keeps the
/// exact ring size; several are page-rounded, because NVMe queue base
/// addresses must be page-aligned.
[[nodiscard]] inline std::uint64_t ring_stride(std::uint32_t entries, std::uint32_t entry_bytes,
                                               std::uint32_t channels) {
  const std::uint64_t ring = static_cast<std::uint64_t>(entries) * entry_bytes;
  return channels == 1 ? ring : div_ceil(ring, kPageSize) * kPageSize;
}

struct CidRange {
  std::uint16_t lo = 0;
  std::uint16_t hi = 0;  ///< exclusive
  [[nodiscard]] std::uint16_t count() const noexcept {
    return static_cast<std::uint16_t>(hi - lo);
  }
  [[nodiscard]] bool contains(std::uint16_t cid) const noexcept {
    return cid >= lo && cid < hi;
  }
  [[nodiscard]] bool overlaps(const CidRange& o) const noexcept {
    return lo < o.hi && o.lo < hi;
  }
  friend bool operator==(const CidRange&, const CidRange&) = default;
};

class QueuePair {
 public:
  struct Config {
    std::uint16_t qid = 0;
    std::uint16_t sq_size = 0;
    std::uint16_t cq_size = 0;
    /// Address (in the operating host's space) where SQEs are written.
    std::uint64_t sq_write_addr = 0;
    /// Address (in the operating host's space) where CQEs are polled; must
    /// be CPU-pollable without stalling (local DRAM, pooled memory, or an
    /// established CPU window).
    std::uint64_t cq_poll_addr = 0;
    std::uint64_t sq_doorbell_addr = 0;
    std::uint64_t cq_doorbell_addr = 0;
    fabric::Initiator cpu;  ///< the host operating this queue pair
  };

  QueuePair(fabric::Substrate& fabric, Config cfg);

  [[nodiscard]] std::uint16_t qid() const noexcept { return cfg_.qid; }
  /// Commands currently submitted but not yet completed.
  [[nodiscard]] std::uint16_t inflight() const noexcept { return inflight_; }
  [[nodiscard]] bool sq_full() const noexcept {
    return inflight_ >= static_cast<std::uint16_t>(cfg_.sq_size - 1);
  }

  /// Write one SQE at the current tail (posted store through the fabric),
  /// assigning a free CID which is also returned. Does not ring the
  /// doorbell, so several entries can be batched per doorbell write.
  ///
  /// Backpressure contract: when every CID is busy (queue full, or a full
  /// lap of the scan finds no free slot) this returns
  /// `Errc::resource_exhausted` instead of spinning — callers retry after
  /// completions drain. The scan is bounded by construction.
  Result<std::uint16_t> push(SubmissionEntry entry);

  /// Ranged variant for multiplexed tenants: allocate the CID only from
  /// `range` (`[lo, hi)` must lie inside the SQ). A tenant's sub-range can
  /// be exhausted while the queue itself is not full, so the
  /// `resource_exhausted` backpressure path is the common case here, not a
  /// corner case.
  Result<std::uint16_t> push(SubmissionEntry entry, const CidRange& range);

  /// Free CIDs remaining in `range` (range is clamped to the SQ).
  [[nodiscard]] std::uint16_t free_in_range(const CidRange& range) const noexcept;

  /// Ring the SQ tail doorbell with the current tail value.
  Status ring_sq_doorbell();

  /// Check the CQ head slot once. Consumes and returns the entry if a new
  /// completion (correct phase tag) is present. Zero simulated cost: the
  /// caller models its polling cadence.
  std::optional<CompletionEntry> poll();

  /// Batched reap: drain up to `out.size()` ready completions in one pass.
  /// Returns the number of entries written (stops at the first slot whose
  /// phase tag is stale). Rings no doorbell — callers batch that too. A
  /// non-empty drain counts one `nvmeshare.queue.reap_batches`, so the mean
  /// batch size is cqes_consumed / reap_batches.
  std::size_t reap(std::span<CompletionEntry> out);

  /// Tell the controller how far the CQ has been consumed.
  Status ring_cq_doorbell();

  /// Drain the CQ: reap() batches of 32 until a short batch, hand every
  /// entry to `on_cqe`, then ring the CQ head doorbell once if any arrived.
  template <typename OnCqe>
  void drain(OnCqe&& on_cqe) {
    std::array<CompletionEntry, 32> batch;
    bool got = false;
    for (;;) {
      const std::size_t n = reap(batch);
      for (std::size_t i = 0; i < n; ++i) on_cqe(batch[i]);
      if (n > 0) got = true;
      if (n < batch.size()) break;
    }
    if (got) (void)ring_cq_doorbell();
  }

  /// Externally persisted ring cursors — what a hot-standby manager needs to
  /// continue an admin queue pair another host was operating (the ring
  /// memory itself survives in that host's DRAM).
  struct RingState {
    std::uint16_t sq_tail = 0;
    std::uint16_t cq_head = 0;
    std::uint16_t next_cid = 0;
    bool expected_phase = true;
  };
  [[nodiscard]] RingState ring_state() const noexcept {
    return {sq_tail_, cq_head_, next_cid_, expected_phase_};
  }

  /// Adopt ring cursors persisted by this queue pair's previous operator.
  /// Only the cursors move — the ring contents stay untouched. The previous
  /// operator's in-flight CIDs are *not* restored: their completions, if
  /// they ever arrive, surface through the counted spurious-CQE path.
  void restore(const RingState& s);

  /// Per-queue-pair ring counters, also registered as `nvmeshare.queue.*`
  /// (aggregated across every driver's queue pairs).
  struct Stats {
    Stats();
    obs::Counter sqes_pushed;
    obs::Counter sq_doorbells;
    obs::Counter cq_doorbells;
    obs::Counter cqes_consumed;
    /// Non-empty reap() drains (mean batch size = cqes_consumed / reap_batches).
    obs::Counter reap_batches;
    /// CQEs whose CID was out of range or not in flight (duplicate or
    /// corrupted completion) — consumed, counted, and logged, never
    /// silently dropped.
    obs::Counter spurious_cqes;
    /// push() attempts rejected because no free CID existed in the
    /// requested range — the backpressure signal that replaced the old
    /// allocator's unbounded scan.
    obs::Counter cid_exhausted;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Consume the CQ head slot into `e` if a fresh completion is present.
  bool take_at_head(CompletionEntry& e);

  /// Write `entry` (CID already chosen and marked busy by the caller) at
  /// the current tail.
  Result<std::uint16_t> place(SubmissionEntry entry, std::uint16_t cid);

  fabric::Substrate& fabric_;
  Config cfg_;
  std::uint16_t sq_tail_ = 0;
  std::uint16_t cq_head_ = 0;
  bool expected_phase_ = true;
  std::uint16_t inflight_ = 0;
  std::uint16_t next_cid_ = 0;
  std::vector<bool> cid_busy_;
  Stats stats_;
};

}  // namespace nvmeshare::nvme
