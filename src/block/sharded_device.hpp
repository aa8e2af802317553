// Namespace sharding: one block device federated over N controllers.
//
// The paper shares a *single-function* NVMe device, so one controller's
// bandwidth is the ceiling for the whole cluster. ShardedDevice raises that
// ceiling the way md-raid0 does for local disks: the LBA space is striped
// chunk-by-chunk across N underlying devices (each typically a
// driver-backed device on a different borrowed controller), and every
// request is routed — split at chunk boundaries when it straddles them —
// to the owning shard. Retries and recovery stay per-shard: each sub-request
// travels the owning device's normal submit path, so a controller reset on
// shard 2 never touches traffic bound for shard 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "block/block.hpp"
#include "obs/metrics.hpp"

namespace nvmeshare::block {

/// RAID-0-style striping over homogeneous block devices. Deterministic:
/// sub-requests are issued in ascending-LBA order, completions are awaited
/// in the same order, and the merged status is the first sub-error.
class ShardedDevice final : public BlockDevice {
 public:
  struct Config {
    std::uint32_t stripe_blocks = 128;  ///< chunk size (64 KiB at 512 B blocks)
  };

  /// All shards must share a block size; capacity is truncated to the
  /// smallest shard so every stripe column exists on every device.
  ShardedDevice(sim::Engine& engine, std::vector<BlockDevice*> shards, Config cfg);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::uint32_t block_size() const override;
  [[nodiscard]] std::uint64_t capacity_blocks() const override { return capacity_blocks_; }
  [[nodiscard]] std::uint32_t max_queue_depth() const override;
  [[nodiscard]] std::uint64_t max_transfer_bytes() const override;
  sim::Future<Completion> submit(const Request& request) override;

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Owning shard of `lba` (exposed for tests and placement-aware callers).
  [[nodiscard]] std::size_t shard_of(std::uint64_t lba) const noexcept {
    return static_cast<std::size_t>((lba / cfg_.stripe_blocks) % shards_.size());
  }
  /// `lba` translated into the owning shard's local LBA space.
  [[nodiscard]] std::uint64_t local_lba(std::uint64_t lba) const noexcept {
    const std::uint64_t chunk = lba / cfg_.stripe_blocks;
    return (chunk / shards_.size()) * cfg_.stripe_blocks + lba % cfg_.stripe_blocks;
  }

  /// Sharding counters, registered as `nvmeshare.mux.shard_*`.
  struct Stats {
    Stats();
    obs::Counter requests;       ///< requests accepted at the sharded surface
    obs::Counter sub_requests;   ///< per-shard requests issued underneath
    obs::Counter splits;         ///< requests that straddled a chunk boundary
    obs::Counter flush_fanout;   ///< per-shard flushes broadcast
    obs::Counter sub_errors;     ///< sub-requests that completed with an error
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Pieces a request keeps in its coroutine frame before spilling to the
  /// heap: a flush over up to this many shards, or a request spanning up to
  /// this many chunks.
  static constexpr std::size_t kInlinePieces = 8;

  sim::Co<Completion> submit_steps(Request request);

  sim::Engine& engine_;
  std::vector<BlockDevice*> shards_;
  Config cfg_;
  std::uint64_t capacity_blocks_ = 0;
  std::string name_;
  Stats stats_;
};

}  // namespace nvmeshare::block
