#include "integrity/integrity.hpp"

#include <array>

namespace nvmeshare::integrity {

namespace {

/// CRC-16/T10DIF table, poly 0x8BB7, MSB-first.
constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t crc = static_cast<std::uint16_t>(i << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) != 0 ? static_cast<std::uint16_t>((crc << 1) ^ 0x8BB7)
                                : static_cast<std::uint16_t>(crc << 1);
    }
    table[i] = crc;
  }
  return table;
}

/// CRC-32C table, reflected poly 0x82F63B78, LSB-first.
constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kCrc16Table = make_crc16_table();
constexpr auto kCrc32cTable = make_crc32c_table();

}  // namespace

std::uint16_t crc16_t10dif(ConstByteSpan data) noexcept {
  std::uint16_t crc = 0;
  for (const std::byte b : data) {
    const auto idx = static_cast<std::uint8_t>((crc >> 8) ^ std::to_integer<std::uint8_t>(b));
    crc = static_cast<std::uint16_t>((crc << 8) ^ kCrc16Table[idx]);
  }
  return crc;
}

std::uint32_t crc32c(ConstByteSpan data, std::uint32_t crc) noexcept {
  crc ^= 0xFFFFFFFFu;
  for (const std::byte b : data) {
    const auto idx =
        static_cast<std::uint8_t>((crc ^ std::to_integer<std::uint8_t>(b)) & 0xFF);
    crc = (crc >> 8) ^ kCrc32cTable[idx];
  }
  return crc ^ 0xFFFFFFFFu;
}

ProtectionInfo generate_pi(ConstByteSpan block, std::uint64_t lba,
                           std::uint16_t app_tag) noexcept {
  ProtectionInfo pi;
  pi.guard = crc16_t10dif(block);
  pi.app_tag = app_tag;
  pi.ref_tag = static_cast<std::uint32_t>(lba);
  return pi;
}

PiCheck verify_pi(const ProtectionInfo& pi, ConstByteSpan block, std::uint64_t lba,
                  PiCheckMask mask, std::uint16_t app_tag) noexcept {
  if (mask.guard && pi.guard != crc16_t10dif(block)) return PiCheck::guard_mismatch;
  if (mask.app_tag && pi.app_tag != app_tag) return PiCheck::app_tag_mismatch;
  if (mask.ref_tag && pi.ref_tag != static_cast<std::uint32_t>(lba)) {
    return PiCheck::ref_tag_mismatch;
  }
  return PiCheck::ok;
}

Stats::Stats()
    : pi_generated("nvmeshare.integrity.pi_generated"),
      pi_verified("nvmeshare.integrity.pi_verified"),
      guard_errors("nvmeshare.integrity.guard_errors"),
      app_tag_errors("nvmeshare.integrity.app_tag_errors"),
      ref_tag_errors("nvmeshare.integrity.ref_tag_errors"),
      client_verify_failures("nvmeshare.integrity.client_verify_failures"),
      digests_generated("nvmeshare.integrity.digests_generated"),
      digest_errors("nvmeshare.integrity.digest_errors"),
      blocks_scrubbed("nvmeshare.integrity.blocks_scrubbed"),
      scrub_errors("nvmeshare.integrity.scrub_errors") {}

Stats& stats() {
  static Stats instance;
  return instance;
}

}  // namespace nvmeshare::integrity
