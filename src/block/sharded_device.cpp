#include "block/sharded_device.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <utility>

namespace nvmeshare::block {

ShardedDevice::Stats::Stats()
    : requests("nvmeshare.mux.shard_requests"),
      sub_requests("nvmeshare.mux.shard_sub_requests"),
      splits("nvmeshare.mux.shard_splits"),
      flush_fanout("nvmeshare.mux.shard_flush_fanout"),
      sub_errors("nvmeshare.mux.shard_sub_errors") {}

ShardedDevice::ShardedDevice(sim::Engine& engine, std::vector<BlockDevice*> shards, Config cfg)
    : engine_(engine), shards_(std::move(shards)), cfg_(cfg) {
  assert(!shards_.empty() && "sharded device needs at least one shard");
  cfg_.stripe_blocks = std::max<std::uint32_t>(cfg_.stripe_blocks, 1);
  // Truncate to the smallest shard, in whole chunks, so chunk k of every
  // stripe column resolves to a valid local LBA on its owner.
  std::uint64_t min_chunks = std::numeric_limits<std::uint64_t>::max();
  for (const BlockDevice* s : shards_) {
    assert(s->block_size() == shards_.front()->block_size() &&
           "shards must share a block size");
    min_chunks = std::min(min_chunks, s->capacity_blocks() / cfg_.stripe_blocks);
  }
  capacity_blocks_ = min_chunks * shards_.size() * cfg_.stripe_blocks;
  name_ = "shard" + std::to_string(shards_.size()) + "[" +
          std::string(shards_.front()->name()) + "]";
}

std::uint32_t ShardedDevice::block_size() const { return shards_.front()->block_size(); }

std::uint32_t ShardedDevice::max_queue_depth() const {
  std::uint32_t depth = 0;
  for (const BlockDevice* s : shards_) depth += s->max_queue_depth();
  return depth;
}

std::uint64_t ShardedDevice::max_transfer_bytes() const {
  // A request may be split across shards, but a single chunk-sized piece
  // must fit in one shard's transfer limit; the aggregate limit scales with
  // the shard count because pieces travel independently.
  std::uint64_t per_shard = std::numeric_limits<std::uint64_t>::max();
  for (const BlockDevice* s : shards_) per_shard = std::min(per_shard, s->max_transfer_bytes());
  return per_shard * shards_.size();
}

sim::Future<Completion> ShardedDevice::submit(const Request& request) {
  return sim::spawn(engine_, submit_steps(request));
}

sim::Co<Completion> ShardedDevice::submit_steps(Request request) {
  if (Status st = validate_request(*this, request); !st) co_return Completion{std::move(st), 0};
  ++stats_.requests;
  const sim::Time start = engine_.now();

  // Carve the request at chunk boundaries and fan the pieces out. Issuing
  // before awaiting lets the shards work in parallel; awaiting in issue
  // order keeps the merge deterministic. The first kInlinePieces futures
  // live in the coroutine frame, which the frame pool recycles; a request
  // spanning more chunks spills the rest to the heap.
  std::array<sim::Future<Completion>, kInlinePieces> inline_pieces;
  std::vector<sim::Future<Completion>> spilled;
  std::size_t count = 0;
  auto issue = [&](BlockDevice& shard, const Request& piece) {
    if (count < kInlinePieces) {
      inline_pieces[count] = shard.submit(piece);
    } else {
      spilled.push_back(shard.submit(piece));
    }
    ++count;
    ++stats_.sub_requests;
  };
  if (request.op == Op::flush) {
    // Flush has no LBA extent: durability requires every shard to flush.
    for (BlockDevice* s : shards_) {
      issue(*s, request);
      ++stats_.flush_fanout;
    }
  } else {
    const std::uint32_t bs = block_size();
    std::uint64_t lba = request.lba;
    std::uint32_t left = request.nblocks;
    std::uint64_t buffer = request.buffer_addr;
    while (left > 0) {
      const std::uint32_t in_chunk =
          cfg_.stripe_blocks - static_cast<std::uint32_t>(lba % cfg_.stripe_blocks);
      const std::uint32_t n = std::min(left, in_chunk);
      Request piece = request;
      piece.lba = local_lba(lba);
      piece.nblocks = n;
      piece.buffer_addr = buffer;
      issue(*shards_[shard_of(lba)], piece);
      lba += n;
      left -= n;
      buffer += static_cast<std::uint64_t>(n) * bs;
    }
    if (count > 1) ++stats_.splits;
  }

  // Merge: first sub-error wins (ascending-LBA order), latency is
  // end-to-end across the slowest piece.
  Status merged = Status::ok();
  for (std::size_t i = 0; i < count; ++i) {
    Completion done =
        co_await (i < kInlinePieces ? inline_pieces[i] : spilled[i - kInlinePieces]);
    if (!done.status) {
      ++stats_.sub_errors;
      if (merged.is_ok()) merged = std::move(done.status);
    }
  }
  co_return Completion{std::move(merged), engine_.now() - start};
}

}  // namespace nvmeshare::block
