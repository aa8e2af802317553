#include "nvme/block_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace nvmeshare::nvme {

BlockStore::BlockStore(std::uint64_t capacity_blocks, std::uint32_t block_size)
    : capacity_blocks_(capacity_blocks),
      block_size_(block_size),
      pages_((capacity_blocks * block_size + mem::kPageSize - 1) / mem::kPageSize) {}

Status BlockStore::check_range(std::uint64_t slba, std::uint32_t nblocks) const {
  if (nblocks == 0) return Status(Errc::invalid_argument, "zero-length block access");
  if (slba + nblocks > capacity_blocks_ || slba + nblocks < slba) {
    return Status(Errc::out_of_range, "LBA range beyond namespace capacity");
  }
  return Status::ok();
}

void BlockStore::mark_chunks(std::uint64_t first, std::uint64_t end, bool resident) {
  while (first < end) {
    const std::uint64_t leaf = first / kLeafChunks;
    const std::uint64_t stop = std::min(end, (leaf + 1) * kLeafChunks);
    const std::uint64_t span = stop - first;
    const std::uint64_t bits = span == kLeafChunks
                                   ? ~std::uint64_t{0}
                                   : ((std::uint64_t{1} << span) - 1) << first % kLeafChunks;
    const std::uint64_t was = pages_.mask(leaf);
    const std::uint64_t now = resident ? was | bits : was & ~bits;
    if (now != was) {
      resident_chunks_ += static_cast<std::size_t>(std::popcount(now));
      resident_chunks_ -= static_cast<std::size_t>(std::popcount(was));
      pages_.set_mask(leaf, now);
    }
    first = stop;
  }
}

Status BlockStore::read(std::uint64_t slba, std::uint32_t nblocks, mem::Payload& out) const {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  mem::for_each_page_run(
      slba * block_size_, static_cast<std::uint64_t>(nblocks) * block_size_,
      [&](std::uint64_t page, std::uint64_t off, std::uint64_t n) {
        const mem::PageRef& p = pages_.get(page);
        if (n == mem::kPageSize) {
          out.append_page(p);
        } else if (p) {
          out.append_bytes(ConstByteSpan(p.data() + off, n));
        } else {
          out.append_zeros(n);
        }
      });
  return Status::ok();
}

Status BlockStore::write(std::uint64_t slba, std::uint32_t nblocks, const mem::Payload& in) {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  const std::uint64_t bytes = static_cast<std::uint64_t>(nblocks) * block_size_;
  if (in.size() != bytes) return Status(Errc::invalid_argument, "buffer size mismatch");
  if (pi_enabled_) {
    // Overwriting invalidates stored tuples; a PRACT write re-generates
    // them afterwards. Without this, a non-PRACT overwrite would leave a
    // stale tuple that a later check or scrub flags as a false mismatch.
    for (std::uint64_t lba = slba; lba < slba + nblocks; ++lba) pi_.erase(lba);
  }

  const std::uint64_t pos = slba * block_size_;
  mark_chunks(pos / kChunkBytes, (pos + bytes - 1) / kChunkBytes + 1, true);
  mem::PayloadReader from(in);
  mem::for_each_page_run(pos, bytes, [&](std::uint64_t page, std::uint64_t off, std::uint64_t n) {
    if (const mem::PageRef* whole = n == mem::kPageSize ? from.whole_page() : nullptr) {
      pages_.set(page, *whole);
      from.skip(n);
    } else {
      from.read(ByteSpan(pages_.writable(page, n == mem::kPageSize) + off, n));
    }
  });
  return Status::ok();
}

Status BlockStore::write_zeroes(std::uint64_t slba, std::uint32_t nblocks) {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  if (pi_enabled_) {
    for (std::uint64_t lba = slba; lba < slba + nblocks; ++lba) pi_.erase(lba);
  }
  const std::uint64_t pos = slba * block_size_;
  const std::uint64_t end = pos + static_cast<std::uint64_t>(nblocks) * block_size_;
  // Whole pages drop out of the table; a page the range covers in part is
  // zeroed there, if it holds data.
  constexpr std::uint64_t kPage = mem::kPageSize;
  auto zero_part = [&](std::uint64_t at, std::uint64_t n) {
    if (n > 0 && pages_.get(at / kPage)) {
      std::memset(pages_.writable(at / kPage, false) + at % kPage, 0, n);
    }
  };
  const std::uint64_t head_end = std::min(end, (pos + kPage - 1) / kPage * kPage);
  const std::uint64_t tail = std::max(head_end, end / kPage * kPage);
  zero_part(pos, head_end - pos);
  pages_.clear(head_end / kPage, (tail - head_end) / kPage);
  zero_part(tail, end - tail);
  mark_chunks((pos + kChunkBytes - 1) / kChunkBytes, end / kChunkBytes, false);
  return Status::ok();
}

void BlockStore::format_with_pi(bool enabled) {
  pi_enabled_ = enabled;
  pi_.clear();
}

std::optional<integrity::ProtectionInfo> BlockStore::read_pi(std::uint64_t lba) const {
  if (!pi_enabled_) return std::nullopt;
  auto it = pi_.find(lba);
  if (it == pi_.end()) return std::nullopt;
  return it->second;
}

void BlockStore::write_pi(std::uint64_t lba, const integrity::ProtectionInfo& pi) {
  if (!pi_enabled_) return;
  pi_[lba] = pi;
}

Result<std::uint64_t> BlockStore::verify_stored_pi(std::uint64_t slba,
                                                   std::uint32_t nblocks) const {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  if (!pi_enabled_) return std::uint64_t{0};
  std::uint64_t mismatches = 0;
  Bytes block(block_size_);
  for (std::uint64_t lba = slba; lba < slba + nblocks; ++lba) {
    auto it = pi_.find(lba);
    if (it == pi_.end()) continue;  // deallocated: checks disabled
    mem::Payload data;
    if (Status st = read(lba, 1, data); !st) return st;
    data.copy_out(0, block);
    if (integrity::verify_pi(it->second, block, lba, {}, it->second.app_tag) !=
        integrity::PiCheck::ok) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace nvmeshare::nvme
