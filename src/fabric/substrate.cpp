#include "fabric/substrate.hpp"

#include <utility>

#include "common/log.hpp"

namespace nvmeshare::fabric {

Stats::Stats()
    : posted_writes("nvmeshare.fabric.posted_writes"),
      reads("nvmeshare.fabric.reads"),
      bytes_written("nvmeshare.fabric.bytes_written"),
      bytes_read("nvmeshare.fabric.bytes_read"),
      unsupported_requests("nvmeshare.fabric.unsupported_requests"),
      ntb_translations("nvmeshare.fabric.ntb_translations"),
      backdoor_violations("nvmeshare.fabric.backdoor_violations") {}

Window& Window::operator=(Window&& other) noexcept {
  if (this != &other) {
    release();
    sub_ = std::exchange(other.sub_, nullptr);
    token_ = std::exchange(other.token_, 0);
    addr_ = other.addr_;
    size_ = other.size_;
  }
  return *this;
}

void Window::release() {
  if (sub_ == nullptr) return;
  if (token_ != 0) sub_->unmap_window(token_);
  sub_ = nullptr;
  token_ = 0;
}

Bytes Substrate::take_payload(std::size_t n) {
  if (payload_pool_.empty()) return Bytes(n);
  Bytes b = std::move(payload_pool_.back());
  payload_pool_.pop_back();
  b.resize(n);
  return b;
}

void Substrate::recycle_payload(Bytes&& b) {
  // Bound both the number of pooled buffers and the capacity each can pin,
  // so a burst of large DMAs doesn't park megabytes forever.
  constexpr std::size_t kMaxPooled = 64;
  constexpr std::size_t kMaxPooledCapacity = 256 * 1024;
  if (payload_pool_.size() < kMaxPooled && b.capacity() <= kMaxPooledCapacity) {
    payload_pool_.push_back(std::move(b));
  }
}

Window Substrate::make_window(std::uint64_t token, std::uint64_t addr,
                              std::uint64_t size) noexcept {
  Window w;
  w.sub_ = this;
  w.token_ = token;
  w.addr_ = addr;
  w.size_ = size;
  return w;
}

Status Substrate::check_backdoor(HostId host, std::uint64_t addr, std::uint64_t len,
                                 const char* what) {
#ifdef NDEBUG
  (void)host;
  (void)addr;
  (void)len;
  (void)what;
#else
  // Debug-build data-path guard: once bring-up sealed the backdoors, any
  // cross-host peek/poke is production code cheating past the latency
  // model. Fail the access loudly instead of silently returning data that
  // real hardware would have charged a fabric round trip for.
  if (sealed_ && backdoor_crosses_host(host, addr, len)) {
    ++stats_.backdoor_violations;
    NVS_LOG(error, "fabric") << "sealed cross-host " << what << " from host " << host
                             << " at 0x" << std::hex << addr << std::dec << " (" << len
                             << " bytes)";
    return Status(Errc::permission_denied,
                  "cross-host backdoor access after bring-up seal");
  }
#endif
  return Status::ok();
}

Status Substrate::poke(HostId host, std::uint64_t addr, ConstByteSpan data) {
  if (Status st = check_backdoor(host, addr, data.size(), "poke"); !st) return st;
  return do_poke(host, addr, data);
}

Status Substrate::peek(HostId host, std::uint64_t addr, ByteSpan out) {
  if (Status st = check_backdoor(host, addr, out.size(), "peek"); !st) return st;
  return do_peek(host, addr, out);
}

}  // namespace nvmeshare::fabric
