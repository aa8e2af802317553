// Sparse backing store for one NVMe namespace. Its pages sit in a
// mem::PageTable (mem/page_table.hpp) sized from capacity, so a mostly
// empty multi-hundred-GB namespace costs memory proportional to the 2 MiB
// regions actually written; unwritten blocks read as zeroes (matching a
// freshly formatted SSD with deallocated blocks). The data are
// copy-on-write pages (mem/page.hpp), so media reads and writes of whole
// aligned pages move page references, not bytes.
//
// Residency is counted in 32 KiB chunks: a chunk is resident from its first
// write until a Write Zeroes covers it whole. The table's per-leaf mask
// holds one bit per chunk of the leaf's 2 MiB.
//
// Formatted with protection information, the store additionally keeps one
// 8-byte DIF tuple per written block ("extended metadata", held out-of-band
// here). Deallocated blocks have no tuple: per spec, checks are skipped for
// them.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "integrity/integrity.hpp"
#include "mem/page_table.hpp"
#include "mem/payload.hpp"

namespace nvmeshare::nvme {

class BlockStore {
 public:
  BlockStore(std::uint64_t capacity_blocks, std::uint32_t block_size);

  [[nodiscard]] std::uint64_t capacity_blocks() const noexcept { return capacity_blocks_; }
  [[nodiscard]] std::uint32_t block_size() const noexcept { return block_size_; }

  /// Append `nblocks` starting at `slba` to `out`.
  Status read(std::uint64_t slba, std::uint32_t nblocks, mem::Payload& out) const;
  /// Write `nblocks` starting at `slba`; `in` must hold nblocks*block_size.
  Status write(std::uint64_t slba, std::uint32_t nblocks, const mem::Payload& in);
  /// Deallocate / zero a range (Write Zeroes). Drops stored PI: checks are
  /// disabled for deallocated blocks until they are written again.
  Status write_zeroes(std::uint64_t slba, std::uint32_t nblocks);

  // --- protection information ------------------------------------------------

  /// "Format with metadata": enable (or disable) per-block PI storage.
  /// Clears any stored tuples, like a real NVMe Format command would.
  void format_with_pi(bool enabled);
  [[nodiscard]] bool pi_enabled() const noexcept { return pi_enabled_; }

  /// Stored tuple for one block; nullopt if PI is off or the block was
  /// never written (deallocated).
  [[nodiscard]] std::optional<integrity::ProtectionInfo> read_pi(std::uint64_t lba) const;
  /// Store the tuple for one block (no-op unless formatted with PI).
  void write_pi(std::uint64_t lba, const integrity::ProtectionInfo& pi);

  /// Scrub back end: verify each written block's stored tuple against its
  /// stored data and return the number of mismatching blocks. Deallocated
  /// blocks are skipped.
  Result<std::uint64_t> verify_stored_pi(std::uint64_t slba, std::uint32_t nblocks) const;

  /// 32 KiB chunks written and not wholly zeroed since.
  [[nodiscard]] std::size_t resident_chunks() const noexcept { return resident_chunks_; }

 private:
  static constexpr std::uint64_t kChunkBytes = 32 * 1024;
  /// Chunks one page-table leaf covers: one bit each in its mask.
  static constexpr std::uint64_t kLeafChunks =
      mem::PageTable::kLeafPages * mem::kPageSize / kChunkBytes;
  static_assert(kLeafChunks == 64, "one mask bit per chunk");

  [[nodiscard]] Status check_range(std::uint64_t slba, std::uint32_t nblocks) const;
  /// Mark chunks [first, end) resident, or not.
  void mark_chunks(std::uint64_t first, std::uint64_t end, bool resident);

  std::uint64_t capacity_blocks_;
  std::uint32_t block_size_;
  bool pi_enabled_ = false;
  mem::PageTable pages_;
  std::size_t resident_chunks_ = 0;
  std::unordered_map<std::uint64_t, integrity::ProtectionInfo> pi_;  // lba -> tuple
};

}  // namespace nvmeshare::nvme
