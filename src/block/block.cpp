#include "block/block.hpp"

namespace nvmeshare::block {

Status validate_request(const BlockDevice& dev, const Request& request) {
  if (request.op == Op::flush) return Status::ok();
  if (request.nblocks == 0) {
    return Status(Errc::invalid_argument, "zero-length block request");
  }
  // Compare without forming lba + nblocks: near UINT64_MAX the sum wraps
  // and a request ending past capacity would pass.
  const std::uint64_t capacity = dev.capacity_blocks();
  if (request.lba > capacity || request.nblocks > capacity - request.lba) {
    return Status(Errc::out_of_range, "request beyond device capacity");
  }
  if (request.op == Op::write_zeroes || request.op == Op::discard) {
    return Status::ok();  // no caller data transfer
  }
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(request.nblocks) * dev.block_size();
  if (bytes > dev.max_transfer_bytes()) {
    return Status(Errc::invalid_argument, "request exceeds max transfer size");
  }
  return Status::ok();
}

Status validate_command_request(const BlockDevice& dev, const Request& request) {
  NVS_RETURN_IF_ERROR(validate_request(dev, request));
  if (request.op == Op::write_zeroes && request.nblocks > kMaxCommandBlocks) {
    return Status(Errc::invalid_argument, "write_zeroes exceeds one command's block count");
  }
  return Status::ok();
}

}  // namespace nvmeshare::block
