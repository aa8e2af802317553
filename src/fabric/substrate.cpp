#include "fabric/substrate.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/log.hpp"
#include "fabric/endpoint.hpp"
#include "fault/fault.hpp"

namespace nvmeshare::fabric {

namespace {

std::uint64_t pow2_ceil(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Fault injection for a posted write whose first byte lands at `owner`.
fault::Injector::PostedWriteDecision posted_fault(HostId src, HostId owner, bool to_bar,
                                                  std::uint64_t bytes) {
  if (!fault::enabled()) return {};
  return fault::Injector::global().on_posted_write(src, owner, to_bar, bytes);
}

/// Fault injection for a read: true = complete with stale (zero) data.
bool stale_read(HostId src, HostId owner, bool to_bar) {
  return fault::enabled() && fault::Injector::global().on_dma_read(src, owner, to_bar);
}

/// Flip the decided bit of an in-flight copy; the initiator's buffer is
/// untouched, the completer sees damaged bytes.
void flip_bit(Bytes& d, const fault::Injector::PostedWriteDecision& decision) {
  if (decision.flip) d[decision.flip_bit / 8] ^= std::byte{1} << (decision.flip_bit % 8);
}

}  // namespace

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
  for (PayloadBin& bin : payload_bins_) {
    if (bin.size != n) continue;
    if (bin.free.empty()) break;
    Bytes b = std::move(bin.free.back());
    bin.free.pop_back();
    pooled_bytes_ -= n;
    --pooled_buffers_;
    return b;
  }
  // A fresh buffer is value-initialised once; after that only its size bin
  // hands it out again.
  return Bytes(n);
}

void Substrate::recycle_payload(Bytes&& b) {
  const std::size_t n = b.size();
  if (n == 0 || b.capacity() != n || pooled_buffers_ >= kMaxPooledBuffers ||
      pooled_bytes_ + n > kMaxPooledBytes) {
    return;
  }
  auto bin = std::find_if(payload_bins_.begin(), payload_bins_.end(),
                          [n](const PayloadBin& pb) { return pb.size == n; });
  if (bin == payload_bins_.end()) bin = payload_bins_.insert(bin, PayloadBin{n, {}});
  bin->free.push_back(std::move(b));
  pooled_bytes_ += n;
  ++pooled_buffers_;
}

Result<mem::WriteWatch> Substrate::watch_writes(HostId viewer, std::uint64_t addr,
                                                std::uint64_t len, sim::PollTimer& timer) {
  auto target = route(viewer, addr, len);
  if (!target) return target.status();
  const Sink& sink = target->sink;
  if (sink.mem == nullptr) {
    return Status(Errc::invalid_argument, "range resolves to a BAR, not memory");
  }
  return mem::WriteWatch(*sink.mem, sink.addr, len, timer);
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

// --- endpoints ------------------------------------------------------------------

Result<EndpointId> Substrate::add_endpoint(Endpoint& ep, HostId host, ChipId chip,
                                           mem::RangeAllocator& mmio) {
  const auto id = static_cast<EndpointId>(endpoints_.size());
  const Initiator at{host, chip};
  EndpointRec rec{&ep, at, {}};
  for (int bar = 0; bar < ep.bar_count(); ++bar) {
    const std::uint64_t size = ep.bar_size(bar);
    if (size == 0) {
      rec.bar_bases.push_back(0);
      continue;
    }
    const std::uint64_t align = pow2_ceil(std::max<std::uint64_t>(size, 4096));
    auto base = mmio.alloc(align, align);
    if (!base) return base.status();
    rec.bar_bases.push_back(*base);
    map_bar(host, id, bar, *base, size);
  }
  endpoints_.push_back(std::move(rec));
  ep.on_attached(*this, at, id);
  NVS_LOG(debug, "fabric") << "attached endpoint '" << ep.name() << "' to host "
                           << host_name(host);
  return id;
}

Result<std::uint64_t> Substrate::bar_address(EndpointId ep, int bar) const {
  if (ep >= endpoints_.size()) return Status(Errc::invalid_argument, "bad endpoint id");
  const auto& bases = endpoints_[ep].bar_bases;
  if (bar < 0 || static_cast<std::size_t>(bar) >= bases.size()) {
    return Status(Errc::invalid_argument, "bad BAR index");
  }
  return bases[static_cast<std::size_t>(bar)];
}

Endpoint* Substrate::endpoint(EndpointId ep) const {
  return ep < endpoints_.size() ? endpoints_[ep].ep : nullptr;
}

HostId Substrate::endpoint_host(EndpointId ep) const {
  return ep < endpoints_.size() ? endpoints_[ep].at.host : kNoHost;
}

// --- sinks ------------------------------------------------------------------------

Status Substrate::apply_write(const Sink& s, ConstByteSpan data) {
  if (s.mem != nullptr) return s.mem->write(s.addr, data);
  return s.ep->bar_write(s.bar, s.addr, data);
}

Status Substrate::apply_read_into(const Sink& s, ByteSpan out) {
  if (s.mem != nullptr) return s.mem->read(s.addr, out);
  Result<Bytes> data = s.ep->bar_read(s.bar, s.addr, out.size());
  if (!data) return data.status();
  // Pooled buffers arrive dirty: a short BAR read leaves zeros behind it.
  const std::size_t n = std::min(out.size(), data->size());
  std::copy_n(data->begin(), n, out.begin());
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(n), out.end(), std::byte{0});
  return Status::ok();
}

Status Substrate::apply_write(const Sink& s, mem::PayloadReader& in, std::uint64_t len) {
  if (s.mem != nullptr) return s.mem->write(s.addr, in, len);
  Bytes staged = take_payload(len);
  in.read(staged);
  Status st = s.ep->bar_write(s.bar, s.addr, staged);
  recycle_payload(std::move(staged));
  return st;
}

Status Substrate::apply_read_into(const Sink& s, std::uint64_t len, mem::Payload& out) {
  if (s.mem != nullptr) return s.mem->read(s.addr, len, out);
  Result<Bytes> data = s.ep->bar_read(s.bar, s.addr, len);
  if (!data) return data.status();
  // A short BAR read leaves zeros behind it.
  const std::size_t n = std::min<std::size_t>(len, data->size());
  out.append_bytes(ConstByteSpan(*data).first(n));
  out.append_zeros(len - n);
  return Status::ok();
}

Status Substrate::poll_read(HostId viewer, std::uint64_t addr, ByteSpan out) {
  auto target = route(viewer, addr, out.size());
  if (!target) return target.status();
  return apply_read_into(target->sink, out);
}

// --- scatter-gather records ---------------------------------------------------------

std::unique_ptr<Substrate::SgOp> Substrate::take_sg_op() {
  if (sg_pool_.empty()) return std::make_unique<SgOp>();
  std::unique_ptr<SgOp> op = std::move(sg_pool_.back());
  sg_pool_.pop_back();
  return op;
}

void Substrate::recycle_sg_op(std::unique_ptr<SgOp> op) {
  op->sinks.clear();
  op->lens.clear();
  op->keys.clear();
  op->total = 0;
  op->worst = {};
  sg_pool_.push_back(std::move(op));
}

Status Substrate::resolve_sg(const Initiator& who, std::span<const SgEntry> sg, bool is_store,
                             SgOp& op) {
  for (const auto& e : sg) {
    auto target = route(who.host, e.addr, e.len);
    if (!target) {
      ++stats_.unsupported_requests;
      return target.status();
    }
    auto path = path_ns(who, *target, is_store);
    if (!path) return path.status();
    op.worst.ns = std::max(op.worst.ns, *path);
    op.worst.ntb_crossings = std::max(op.worst.ntb_crossings, target->ntb_crossings);
    stats_.ntb_translations += static_cast<std::uint64_t>(target->ntb_crossings);
    op.sinks.push_back(target->sink);
    op.lens.push_back(e.len);
    op.total += e.len;
    if (is_store && std::find(op.keys.begin(), op.keys.end(), target->order_key) == op.keys.end()) {
      op.keys.push_back(target->order_key);
    }
  }
  return Status::ok();
}

// --- transactions -------------------------------------------------------------------

sim::Time Substrate::posted_arrival(const Initiator& who, std::uint64_t key,
                                    sim::Duration latency, sim::Duration gap,
                                    sim::Time not_before) {
  sim::Time& floor = posted_floor_[{who.chip, key}];
  const sim::Time arrival = std::max({engine_.now() + latency, floor + gap, not_before});
  floor = arrival;
  return arrival;
}

Result<sim::Time> Substrate::post_write(const Initiator& who, std::uint64_t addr,
                                        ConstByteSpan data, sim::Time not_before) {
  auto target = route(who.host, addr, data.size());
  if (!target) {
    ++stats_.unsupported_requests;
    return target.status();
  }
  auto path = path_ns(who, *target, /*is_store=*/true);
  if (!path) return path.status();
  const Sink& sink = target->sink;

  // Fault injection: a dropped posted write still occupies the wire (the
  // initiator saw it leave; stats and ordering floors advance), it simply
  // never lands — exactly how a lost doorbell or CQE looks to software.
  // Corruption (bit flip, torn write) mutates the in-flight copy.
  const auto decision = posted_fault(who.host, sink.owner, sink.mem == nullptr, data.size());

  ++stats_.posted_writes;
  stats_.bytes_written += data.size();
  stats_.ntb_translations += static_cast<std::uint64_t>(target->ntb_crossings);

  const PostedCost cost =
      posted_cost(Path{*path, target->ntb_crossings}, data.size(), /*scatter=*/false);
  const sim::Time arrival = posted_arrival(who, target->order_key,
                                           cost.latency + decision.extra_ns, cost.gap, not_before);
  if (decision.drop) return arrival;
  // Wire timing above used the full payload; damage only what lands. The
  // in-flight copy comes from the payload pool — the hot path allocates
  // nothing once the pool is warm.
  Bytes payload = take_payload(data.size());
  if (!data.empty()) std::memcpy(payload.data(), data.data(), data.size());
  flip_bit(payload, decision);
  if (decision.torn) payload.resize(decision.torn_bytes);
  engine_.at(arrival, [this, s = sink, d = std::move(payload)]() mutable {
    if (Status st = apply_write(s, d); !st) {
      NVS_LOG(warn, "fabric") << "posted write dropped at target: " << st.to_string();
      ++stats_.unsupported_requests;
    }
    recycle_payload(std::move(d));
  });
  return arrival;
}

Result<sim::Time> Substrate::write_sg(const Initiator& who, std::span<const SgEntry> sg,
                                      mem::Payload data, sim::Time not_before) {
  std::unique_ptr<SgOp> op = take_sg_op();
  Status st = resolve_sg(who, sg, /*is_store=*/true, *op);
  if (st && op->total != data.size()) {
    st = Status(Errc::invalid_argument, "scatter list length != payload length");
  }
  if (!st) {
    recycle_sg_op(std::move(op));
    return st;
  }
  const std::uint64_t total = op->total;

  // Fault injection (one decision for the whole scatter list — the data of
  // one DMA either lands or is lost/damaged as a unit).
  fault::Injector::PostedWriteDecision decision;
  if (!op->sinks.empty()) {
    const Sink& first = op->sinks.front();
    decision = posted_fault(who.host, first.owner, first.mem == nullptr, total);
  }

  ++stats_.posted_writes;
  stats_.bytes_written += total;

  const PostedCost cost = posted_cost(op->worst, total, /*scatter=*/true);
  const sim::Duration lat = cost.latency + decision.extra_ns;
  // Order against the FIFO of every chunk's completer — advance each
  // distinct key's floor exactly once, so the aggregate gap is charged a
  // single time for the whole scatter list, not once per chunk.
  sim::Time arrival = not_before;
  for (std::uint64_t key : op->keys) {
    arrival = std::max(arrival, posted_arrival(who, key, lat, cost.gap, not_before));
  }
  for (std::uint64_t key : op->keys) posted_floor_[{who.chip, key}] = arrival;
  if (decision.drop) {
    recycle_sg_op(std::move(op));
    return arrival;
  }
  // `data` is the in-flight copy: damage it in place. A torn scatter write
  // delivers only the leading `torn_bytes` of the DMA.
  if (decision.flip) data.flip_bit(decision.flip_bit);
  if (decision.torn) data.truncate(decision.torn_bytes);
  engine_.at(arrival, [this, op = std::move(op), d = std::move(data)]() mutable {
    mem::PayloadReader in(d);
    for (std::size_t i = 0; i < op->sinks.size() && in.remaining() > 0; ++i) {
      const std::uint64_t chunk = std::min<std::uint64_t>(op->lens[i], in.remaining());
      mem::PayloadReader at = in;
      in.skip(chunk);
      if (Status st = apply_write(op->sinks[i], at, chunk); !st) {
        NVS_LOG(warn, "fabric") << "scatter write chunk dropped: " << st.to_string();
        ++stats_.unsupported_requests;
      }
    }
    recycle_sg_op(std::move(op));
  });
  return arrival;
}

sim::Future<Result<Bytes>> Substrate::read(const Initiator& who, std::uint64_t addr,
                                           std::size_t len) {
  sim::Promise<Result<Bytes>> promise(engine_);
  auto future = promise.future();

  auto target = route(who.host, addr, len);
  if (!target) ++stats_.unsupported_requests;
  auto path = target ? path_ns(who, *target, /*is_store=*/false)
                     : Result<sim::Duration>(target.status());
  if (!path) {
    // The error completion comes back after one short round trip.
    engine_.after(error_completion_ns(),
                  [promise, st = path.status()]() mutable { promise.set(st); });
    return future;
  }
  ++stats_.reads;
  stats_.bytes_read += len;
  stats_.ntb_translations += static_cast<std::uint64_t>(target->ntb_crossings);

  const ReadCost cost = read_cost(Path{*path, target->ntb_crossings}, len, /*scatter=*/false);
  // The completer is accessed when the request arrives; data travels back.
  engine_.after(cost.request, [this, s = target->sink, len, promise, src = who.host,
                               remaining = cost.response]() mutable {
    // One pooled buffer, filled in place — the memory fast path copies
    // straight from PhysMem into it.
    Bytes data = take_payload(len);
    Status st = apply_read_into(s, data);
    // Fault injection: a stale read completes successfully but carries old
    // (zero-filled) data instead of memory contents.
    if (st && stale_read(src, s.owner, s.mem == nullptr)) data.assign(data.size(), std::byte{0});
    engine_.after(remaining > 0 ? remaining : 0, [promise, st, d = std::move(data)]() mutable {
      if (!st) {
        promise.set(st);
      } else {
        promise.set(std::move(d));
      }
    });
  });
  return future;
}

sim::Future<Result<mem::Payload>> Substrate::read_sg(const Initiator& who,
                                                     std::span<const SgEntry> sg) {
  sim::Promise<Result<mem::Payload>> promise(engine_);
  auto future = promise.future();

  std::unique_ptr<SgOp> op = take_sg_op();
  if (Status st = resolve_sg(who, sg, /*is_store=*/false, *op); !st) {
    recycle_sg_op(std::move(op));
    engine_.after(error_completion_ns(),
                  [promise, st = std::move(st)]() mutable { promise.set(st); });
    return future;
  }
  ++stats_.reads;
  stats_.bytes_read += op->total;

  const ReadCost cost = read_cost(op->worst, op->total, /*scatter=*/true);
  engine_.after(cost.request, [this, op = std::move(op), promise, src = who.host,
                               remaining = cost.response]() mutable {
    mem::Payload out;
    Status failure = Status::ok();
    for (std::size_t i = 0; i < op->sinks.size(); ++i) {
      if (Status st = apply_read_into(op->sinks[i], op->lens[i], out); !st) {
        failure = st;
        break;
      }
    }
    // Fault injection (one decision per gather, matching write_sg): a stale
    // gather read completes with zero pages.
    if (failure.is_ok() && !op->sinks.empty() &&
        stale_read(src, op->sinks.front().owner, op->sinks.front().mem == nullptr)) {
      out.zero();
    }
    recycle_sg_op(std::move(op));
    engine_.after(remaining > 0 ? remaining : 0,
                  [promise, failure, d = std::move(out)]() mutable {
                    if (!failure) {
                      promise.set(failure);
                    } else {
                      promise.set(std::move(d));
                    }
                  });
  });
  return future;
}

// --- backdoors ----------------------------------------------------------------------

Status Substrate::check_backdoor(HostId host, std::uint64_t addr, std::uint64_t len,
                                 const char* what) {
#ifdef NDEBUG
  (void)host;
  (void)addr;
  (void)len;
  (void)what;
#else
  // Debug-build data-path guard: once bring-up sealed the backdoors, any
  // peek/poke landing in another host's memory or device is production code
  // cheating past the latency model. Fail the access loudly instead of
  // silently returning data that real hardware would have charged a fabric
  // round trip for. Shared pool spaces belong to every viewer.
  if (!sealed_) return Status::ok();
  auto target = route(host, addr, len);
  if (target && target->sink.owner != host) {
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
  auto target = route(host, addr, data.size());
  if (!target) return target.status();
  return apply_write(target->sink, data);
}

Status Substrate::peek(HostId host, std::uint64_t addr, ByteSpan out) {
  if (Status st = check_backdoor(host, addr, out.size(), "peek"); !st) return st;
  return poll_read(host, addr, out);
}

}  // namespace nvmeshare::fabric
