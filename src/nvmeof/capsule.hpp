// NVMe-oF capsule wire format (simplified fabric command/response capsules
// for the RDMA transport). Data for writes is pulled by the target with an
// RDMA READ; data for reads is pushed with an RDMA WRITE — both one-sided,
// addressed by the initiator-provided buffer address.
#pragma once

#include <cstdint>

#include "integrity/integrity.hpp"
#include "mem/phys_mem.hpp"

namespace nvmeshare::nvmeof {

enum class FabricOp : std::uint8_t { read = 1, write = 2, flush = 3, write_zeroes = 4, discard = 5 };

/// Tracer correlation key for NVMe-oF commands: the initiator binds its
/// trace under (nvmeof_trace_qid(node), capsule.cid), and the target looks
/// the same key up to attribute its spans. The high bit keeps the pseudo-qid
/// space disjoint from real NVMe queue ids.
constexpr std::uint16_t nvmeof_trace_qid(std::uint16_t initiator_node) {
  return static_cast<std::uint16_t>(0x8000u | initiator_node);
}

/// Writes up to this size travel in-capsule (SPDK's default in-capsule data
/// size); larger writes are pulled by the target with an RDMA READ.
inline constexpr std::uint32_t kInlineDataMax = 4096;
/// Capsule flag: the command carries its write payload inline.
inline constexpr std::uint8_t kFlagInlineData = 0x01;
/// Wire size of a command-capsule slot (header + worst-case inline data).
inline constexpr std::uint32_t kCapsuleSlotBytes = 64 + kInlineDataMax;

struct CommandCapsule {
  std::uint8_t opcode = 0;  ///< FabricOp
  std::uint8_t flags = 0;
  std::uint16_t cid = 0;
  std::uint32_t nsid = 1;
  std::uint64_t slba = 0;
  std::uint32_t nblocks = 0;
  std::uint32_t data_len = 0;
  /// Initiator-side registered buffer the target RDMA-READs (writes) from
  /// or RDMA-WRITEs (reads) into.
  std::uint64_t initiator_data_addr = 0;
  /// CRC-32C over the write payload (DDGST); 0 = digest not in use. The
  /// target verifies it after the payload lands (inline or RDMA READ).
  std::uint32_t data_digest = 0;
  std::uint8_t reserved[28] = {};
};
static_assert(sizeof(CommandCapsule) == 64);

struct ResponseCapsule {
  std::uint32_t dw0 = 0;
  std::uint16_t cid = 0;
  std::uint16_t status = 0;  ///< NVMe status field (0 = success)
  /// CRC-32C over the read payload the target pushed; 0 = not in use. The
  /// initiator verifies it against the data that landed in its buffer.
  std::uint32_t data_digest = 0;
  std::uint8_t reserved[4] = {};
};
static_assert(sizeof(ResponseCapsule) == 16);

/// The data digest (CRC-32C) of [addr, addr+len) in `mem`, computed over
/// its page runs in place. A range that cannot be read fails the digest.
inline Result<std::uint32_t> memory_digest(const mem::PhysMem& mem, std::uint64_t addr,
                                           std::uint64_t len) {
  std::uint32_t crc = 0;
  NVS_RETURN_IF_ERROR(
      mem.for_each_run(addr, len, [&](ConstByteSpan run) { crc = integrity::crc32c(run, crc); }));
  return crc;
}

}  // namespace nvmeshare::nvmeof
