#include "mem/phys_mem.hpp"

#include <algorithm>
#include <cstring>

namespace nvmeshare::mem {

const PhysMem::Page* PhysMem::find_page(std::uint64_t page_index) const {
  auto it = pages_.find(page_index);
  return it == pages_.end() ? nullptr : it->second.get();
}

PhysMem::Page& PhysMem::materialize_page(std::uint64_t page_index) {
  auto& slot = pages_[page_index];
  if (!slot) {
    slot = std::make_unique<Page>();
    slot->fill(std::byte{0});
  }
  return *slot;
}

Status PhysMem::read(std::uint64_t addr, ByteSpan out) const {
  if (out.empty()) return Status::ok();
  if (addr + out.size() > size_ || addr + out.size() < addr) {
    return Status(Errc::out_of_range, "phys read past end of DRAM");
  }
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t cur = addr + done;
    const std::uint64_t page = cur / kPageSize;
    const std::uint64_t off = cur % kPageSize;
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - done, static_cast<std::size_t>(kPageSize - off));
    if (const Page* p = find_page(page)) {
      std::memcpy(out.data() + done, p->data() + off, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);
    }
    done += chunk;
  }
  return Status::ok();
}

Status PhysMem::write(std::uint64_t addr, ConstByteSpan in) {
  if (in.empty()) return Status::ok();
  if (addr + in.size() > size_ || addr + in.size() < addr) {
    return Status(Errc::out_of_range, "phys write past end of DRAM");
  }
  std::size_t done = 0;
  while (done < in.size()) {
    const std::uint64_t cur = addr + done;
    const std::uint64_t page = cur / kPageSize;
    const std::uint64_t off = cur % kPageSize;
    const std::size_t chunk =
        std::min<std::size_t>(in.size() - done, static_cast<std::size_t>(kPageSize - off));
    Page& p = materialize_page(page);
    std::memcpy(p.data() + off, in.data() + done, chunk);
    done += chunk;
  }
  if (!watches_.empty()) notify_watches(addr, in.size());
  return Status::ok();
}

Status PhysMem::copy_from(std::uint64_t dst, const PhysMem& src, std::uint64_t src_addr,
                          std::uint64_t len) {
  if (len == 0) return Status::ok();
  if (src_addr + len > src.size_ || src_addr + len < src_addr) {
    return Status(Errc::out_of_range, "phys read past end of DRAM");
  }
  if (dst + len > size_ || dst + len < dst) {
    return Status(Errc::out_of_range, "phys write past end of DRAM");
  }
  // One run of bytes that stays within one source and one destination page.
  auto copy_run = [&](std::uint64_t at, std::size_t n) {
    Page& to = materialize_page((dst + at) / kPageSize);
    std::byte* out = to.data() + (dst + at) % kPageSize;
    if (const Page* from = src.find_page((src_addr + at) / kPageSize)) {
      std::memmove(out, from->data() + (src_addr + at) % kPageSize, n);
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
