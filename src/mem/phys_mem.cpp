#include "mem/phys_mem.hpp"

#include <algorithm>
#include <cstring>

namespace nvmeshare::mem {

Status PhysMem::check_range(std::uint64_t addr, std::uint64_t len, const char* what) const {
  if (addr + len > size_ || addr + len < addr) return Status(Errc::out_of_range, what);
  return Status::ok();
}

Status PhysMem::read(std::uint64_t addr, ByteSpan out) const {
  if (out.empty()) return Status::ok();
  NVS_RETURN_IF_ERROR(check_range(addr, out.size(), "phys read past end of DRAM"));
  std::byte* to = out.data();
  for_each_page_run(addr, out.size(), [&](std::uint64_t page, std::uint64_t off, std::uint64_t n) {
    if (const PageRef& p = pages_.get(page)) {
      std::memcpy(to, p.data() + off, n);
    } else {
      std::memset(to, 0, n);
    }
    to += n;
  });
  return Status::ok();
}

Status PhysMem::write(std::uint64_t addr, ConstByteSpan in) {
  if (in.empty()) return Status::ok();
  NVS_RETURN_IF_ERROR(check_range(addr, in.size(), "phys write past end of DRAM"));
  const std::byte* from = in.data();
  for_each_page_run(addr, in.size(), [&](std::uint64_t page, std::uint64_t off, std::uint64_t n) {
    std::memcpy(pages_.writable(page, n == kPageSize) + off, from, n);
    from += n;
  });
  if (!watches_.empty()) notify_watches(addr, in.size());
  return Status::ok();
}

Status PhysMem::read(std::uint64_t addr, std::uint64_t len, Payload& out) const {
  if (len == 0) return Status::ok();
  NVS_RETURN_IF_ERROR(check_range(addr, len, "phys read past end of DRAM"));
  for_each_page_run(addr, len, [&](std::uint64_t page, std::uint64_t off, std::uint64_t n) {
    const PageRef& p = pages_.get(page);
    if (n == kPageSize) {
      out.append_page(p);
    } else if (p) {
      out.append_bytes(ConstByteSpan(p.data() + off, n));
    } else {
      out.append_zeros(n);
    }
  });
  return Status::ok();
}

Status PhysMem::write(std::uint64_t addr, PayloadReader& in, std::uint64_t len) {
  if (len == 0) return Status::ok();
  if (len > in.remaining()) return Status(Errc::invalid_argument, "write past end of payload");
  NVS_RETURN_IF_ERROR(check_range(addr, len, "phys write past end of DRAM"));
  for_each_page_run(addr, len, [&](std::uint64_t page, std::uint64_t off, std::uint64_t n) {
    if (const PageRef* whole = n == kPageSize ? in.whole_page() : nullptr; whole && *whole) {
      pages_.set(page, *whole);
      in.skip(n);
    } else {
      in.read(ByteSpan(pages_.writable(page, n == kPageSize) + off, n));
    }
  });
  if (!watches_.empty()) notify_watches(addr, len);
  return Status::ok();
}

Status PhysMem::copy_from(std::uint64_t dst, const PhysMem& src, std::uint64_t src_addr,
                          std::uint64_t len) {
  if (len == 0) return Status::ok();
  NVS_RETURN_IF_ERROR(src.check_range(src_addr, len, "phys read past end of DRAM"));
  NVS_RETURN_IF_ERROR(check_range(dst, len, "phys write past end of DRAM"));
  // One run of bytes that stays within one source and one destination page;
  // a whole page on both sides is shared.
  auto copy_run = [&](std::uint64_t at, std::size_t n) {
    const std::uint64_t page = (dst + at) / kPageSize;
    // A reference to the source slot: when it is the destination slot too,
    // it sees the private copy writable() makes below.
    const PageRef& from = src.pages_.get((src_addr + at) / kPageSize);
    if (n == kPageSize && from) {
      pages_.set(page, from);
      return;
    }
    // A destination page the copy covers whole keeps none of its old
    // bytes, unless it is also a source page. Otherwise make the
    // destination its own before reading the source: when both are one page
    // of this memory, the source reads the same private copy.
    const bool overwrite = &src != this && page * kPageSize >= dst &&
                           (page + 1) * kPageSize <= dst + len;
    std::byte* out = pages_.writable(page, overwrite) + (dst + at) % kPageSize;
    if (from) {
      std::memmove(out, from.data() + (src_addr + at) % kPageSize, n);
    } else {
      std::memset(out, 0, n);
    }
  };
  // Within one memory, a destination above an overlapping source copies
  // from the back so no source byte is overwritten before it is read.
  if (&src == this && dst > src_addr && dst < src_addr + len) {
    for (std::uint64_t left = len; left > 0;) {
      const std::size_t n = static_cast<std::size_t>(
          std::min({left, (src_addr + left - 1) % kPageSize + 1, (dst + left - 1) % kPageSize + 1}));
      left -= n;
      copy_run(left, n);
    }
  } else {
    for (std::uint64_t done = 0; done < len;) {
      const std::size_t n = static_cast<std::size_t>(
          std::min({len - done, kPageSize - (src_addr + done) % kPageSize,
                    kPageSize - (dst + done) % kPageSize}));
      copy_run(done, n);
      done += n;
    }
  }
  if (!watches_.empty()) notify_watches(dst, len);
  return Status::ok();
}

std::uint64_t PhysMem::watch(std::uint64_t addr, std::uint64_t len, sim::PollTimer& timer) {
  const std::uint64_t id = next_watch_id_++;
  watches_.push_back(Watch{addr, addr + len, &timer, id});
  return id;
}

void PhysMem::unwatch(std::uint64_t id) noexcept {
  auto it = std::find_if(watches_.begin(), watches_.end(),
                         [id](const Watch& w) { return w.id == id; });
  if (it != watches_.end()) watches_.erase(it);
}

void PhysMem::notify_watches(std::uint64_t addr, std::uint64_t len) noexcept {
  const std::uint64_t end = addr + len;
  for (const Watch& w : watches_) {
    if (addr < w.hi && w.lo < end) w.timer->notify();
  }
}

}  // namespace nvmeshare::mem
