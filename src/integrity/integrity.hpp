// End-to-end data integrity: T10-PI-style protection information and the
// checksums that guard it.
//
// NVMe's end-to-end data protection attaches an 8-byte DIF tuple to every
// logical block: a CRC-16/T10DIF guard over the block data, a 16-bit
// application tag, and a 32-bit reference tag (the low bits of the LBA for
// Type 1 protection). The controller generates or verifies the tuple per
// the command's PRACT/PRCHK bits and fails reads/writes with the spec's
// Guard / App Tag / Ref Tag Check Error statuses; hosts may additionally
// compute the same tuple over their own buffers to close the last
// DRAM-to-DRAM gap. NVMe-oF capsules use CRC-32C as a data digest, exactly
// like the transport spec's DDGST.
//
// This module is a leaf: pure functions plus a lazily-constructed counter
// block. The counters only register with the metrics registry once
// something actually uses integrity (first stats() call), so integrity-off
// runs keep byte-identical metrics snapshots.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"

namespace nvmeshare::integrity {

/// CRC-16/T10DIF (poly 0x8BB7, init 0, no reflection) — the DIF guard.
[[nodiscard]] std::uint16_t crc16_t10dif(ConstByteSpan data) noexcept;

/// CRC-32C (Castagnoli, reflected, init/xorout 0xFFFFFFFF) — the NVMe-oF
/// data digest. `crc` chains: the CRC of a‖b is crc32c(b, crc32c(a)).
[[nodiscard]] std::uint32_t crc32c(ConstByteSpan data, std::uint32_t crc = 0) noexcept;

/// Per-block protection information (the 8-byte DIF tuple).
struct ProtectionInfo {
  std::uint16_t guard = 0;    ///< CRC-16/T10DIF over the block data
  std::uint16_t app_tag = 0;  ///< opaque to the device
  std::uint32_t ref_tag = 0;  ///< Type 1: low 32 bits of the LBA

  friend bool operator==(const ProtectionInfo&, const ProtectionInfo&) = default;
};

/// Application tag this stack writes (no multi-tenant tagging yet).
inline constexpr std::uint16_t kDefaultAppTag = 0x5ea1;

/// Generate Type-1 PI for one block of data at `lba`.
[[nodiscard]] ProtectionInfo generate_pi(ConstByteSpan block, std::uint64_t lba,
                                         std::uint16_t app_tag = kDefaultAppTag) noexcept;

/// Outcome of checking stored/received PI against data, ordered by the
/// NVMe spec's check precedence (guard, then app tag, then ref tag).
enum class PiCheck : std::uint8_t {
  ok,
  guard_mismatch,    ///< -> Guard Check Error (SCT 2h / SC 82h)
  app_tag_mismatch,  ///< -> Application Tag Check Error (SCT 2h / SC 83h)
  ref_tag_mismatch,  ///< -> Reference Tag Check Error (SCT 2h / SC 84h)
};

/// Which of the three fields to check (the command's PRCHK bits).
struct PiCheckMask {
  bool guard = true;
  bool app_tag = true;
  bool ref_tag = true;
};

/// Verify `pi` against one block of data at `lba`. Checks run in spec
/// precedence order; disabled checks (mask) are skipped.
[[nodiscard]] PiCheck verify_pi(const ProtectionInfo& pi, ConstByteSpan block,
                                std::uint64_t lba, PiCheckMask mask = {},
                                std::uint16_t app_tag = kDefaultAppTag) noexcept;

/// Process-wide integrity counters, registered as `nvmeshare.integrity.*`.
/// Lazily constructed: call stats() only on paths where integrity (or a
/// corruption fault) is actually in play, never unconditionally — the first
/// call registers the counters, and fault-free integrity-off runs must keep
/// their metrics snapshots byte-identical to before this module existed.
struct Stats {
  Stats();
  obs::Counter pi_generated;            ///< blocks that got a fresh tuple
  obs::Counter pi_verified;             ///< blocks checked clean
  obs::Counter guard_errors;            ///< controller-side guard mismatches
  obs::Counter app_tag_errors;
  obs::Counter ref_tag_errors;
  obs::Counter client_verify_failures;  ///< host-side post-DMA check failures
  obs::Counter digests_generated;       ///< NVMe-oF capsule payload digests
  obs::Counter digest_errors;           ///< NVMe-oF digest mismatches
  obs::Counter blocks_scrubbed;         ///< blocks walked by the scrubber
  obs::Counter scrub_errors;            ///< stored-guard mismatches found
};

[[nodiscard]] Stats& stats();

}  // namespace nvmeshare::integrity
