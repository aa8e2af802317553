// Minimal Linux-block-layer analog.
//
// The paper's kernel driver registers a block device and services I/O
// requests whose data buffers are arbitrary memory the block layer hands it
// — the constraint that forces the bounce-buffer design. This module models
// that interface: a Request carries an opaque physical buffer address in
// the submitting host's DRAM, and a BlockDevice implementation completes it
// asynchronously on the simulation engine.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/status.hpp"
#include "fabric/types.hpp"
#include "sim/task.hpp"

namespace nvmeshare::block {

enum class Op : std::uint8_t { read, write, flush, write_zeroes, discard };

/// One block-layer I/O request. `buffer_addr` is a physical address in the
/// submitting host's DRAM (like a bio's page list, flattened); it is not
/// required to be reachable by the device — making it reachable (bounce
/// copy or dynamic mapping) is the driver's job. flush and write_zeroes
/// carry no buffer.
struct Request {
  Op op = Op::read;
  std::uint64_t lba = 0;
  std::uint32_t nblocks = 0;
  std::uint64_t buffer_addr = 0;
};

/// Outcome of one request, delivered through the submit() future.
struct Completion {
  Status status;
  sim::Duration latency_ns = 0;  ///< submit-to-complete, as the block layer sees it
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::uint32_t block_size() const = 0;
  [[nodiscard]] virtual std::uint64_t capacity_blocks() const = 0;
  /// Requests the device can hold in flight; submit() beyond this queues.
  [[nodiscard]] virtual std::uint32_t max_queue_depth() const = 0;
  /// Largest request in bytes the device accepts.
  [[nodiscard]] virtual std::uint64_t max_transfer_bytes() const = 0;

  /// Submit one request; the future resolves when the request completes.
  virtual sim::Future<Completion> submit(const Request& request) = 0;
};

/// Validate a request against device limits (shared by implementations).
Status validate_request(const BlockDevice& dev, const Request& request);

/// Most blocks one NVMe I/O command carries (make_io's 16-bit count).
inline constexpr std::uint32_t kMaxCommandBlocks = 0xFFFF;

/// validate_request plus the limit of a single NVMe command, for the
/// backends that turn each request into one command (Client, LocalDriver,
/// the NVMe-oF initiator): a write_zeroes longer than kMaxCommandBlocks is
/// rejected instead of being truncated to its low 16 bits. ShardedDevice
/// splits requests per stripe and checks only validate_request.
Status validate_command_request(const BlockDevice& dev, const Request& request);

}  // namespace nvmeshare::block
