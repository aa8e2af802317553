#include "nvme/block_store.hpp"

#include <algorithm>
#include <cstring>

namespace nvmeshare::nvme {

BlockStore::BlockStore(std::uint64_t capacity_blocks, std::uint32_t block_size)
    : capacity_blocks_(capacity_blocks), block_size_(block_size) {}

Status BlockStore::check_range(std::uint64_t slba, std::uint32_t nblocks) const {
  if (nblocks == 0) return Status(Errc::invalid_argument, "zero-length block access");
  if (slba + nblocks > capacity_blocks_ || slba + nblocks < slba) {
    return Status(Errc::out_of_range, "LBA range beyond namespace capacity");
  }
  return Status::ok();
}

Status BlockStore::read(std::uint64_t slba, std::uint32_t nblocks, mem::Payload& out) const {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  const Chunk* chunk = nullptr;
  std::uint64_t chunk_idx = UINT64_MAX;
  mem::for_each_page_run(
      slba * block_size_, static_cast<std::uint64_t>(nblocks) * block_size_,
      [&](std::uint64_t page, std::uint64_t off, std::uint64_t n) {
        if (page / kChunkPages != chunk_idx) {
          chunk_idx = page / kChunkPages;
          auto it = chunks_.find(chunk_idx);
          chunk = it == chunks_.end() ? nullptr : &it->second;
        }
        const mem::PageRef* p = chunk != nullptr ? &(*chunk)[page % kChunkPages] : nullptr;
        if (n == mem::kPageSize) {
          out.append_page(p != nullptr ? *p : mem::PageRef());
        } else if (p != nullptr && *p) {
          out.append_bytes(ConstByteSpan(p->data() + off, n));
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

  mem::PayloadReader from(in);
  Chunk* chunk = nullptr;
  std::uint64_t chunk_idx = UINT64_MAX;
  mem::for_each_page_run(
      slba * block_size_, bytes, [&](std::uint64_t page, std::uint64_t off, std::uint64_t n) {
        if (page / kChunkPages != chunk_idx) {
          chunk_idx = page / kChunkPages;
          chunk = &chunks_[chunk_idx];
        }
        mem::PageRef& slot = (*chunk)[page % kChunkPages];
        if (const mem::PageRef* whole = n == mem::kPageSize ? from.whole_page() : nullptr) {
          slot = *whole;
          from.skip(n);
        } else {
          from.read(ByteSpan(slot.writable(n == mem::kPageSize) + off, n));
        }
      });
  return Status::ok();
}

Status BlockStore::write_zeroes(std::uint64_t slba, std::uint32_t nblocks) {
  NVS_RETURN_IF_ERROR(check_range(slba, nblocks));
  if (pi_enabled_) {
    for (std::uint64_t lba = slba; lba < slba + nblocks; ++lba) pi_.erase(lba);
  }
  const std::uint64_t bytes = static_cast<std::uint64_t>(nblocks) * block_size_;
  std::uint64_t pos = slba * block_size_;
  std::uint64_t done = 0;
  while (done < bytes) {
    const std::uint64_t chunk_idx = pos / kChunkBytes;
    const std::uint64_t off = pos % kChunkBytes;
    const std::uint64_t n = std::min<std::uint64_t>(bytes - done, kChunkBytes - off);
    auto it = chunks_.find(chunk_idx);
    if (it != chunks_.end()) {
      if (off == 0 && n == kChunkBytes) {
        chunks_.erase(it);  // whole chunk zeroed -> drop it
      } else {
        mem::for_each_page_run(pos, n, [&](std::uint64_t page, std::uint64_t at, std::uint64_t len) {
          mem::PageRef& slot = it->second[page % kChunkPages];
          if (len == mem::kPageSize) {
            slot.reset();
          } else if (slot) {
            std::memset(slot.writable(false) + at, 0, len);
          }
        });
      }
    }
    done += n;
    pos += n;
  }
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
