#include "fabric/substrate.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/log.hpp"
#include "fabric/endpoint.hpp"
#include "sim/pool.hpp"

namespace nvmeshare::fabric {

namespace {

std::uint64_t pow2_ceil(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
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

void Substrate::set_fault_plan(std::optional<fault::FaultPlan> plan) {
  // A running driver unregisters from the injector it registered with.
  assert(faults_ == nullptr || !faults_->has_crash_handlers());
  faults_ = plan ? std::make_unique<fault::Injector>(std::move(*plan)) : nullptr;
}

void Substrate::arm_faults() {
  if (faults_ == nullptr) return;
  faults_->arm(engine_, [this](std::uint32_t host, bool up) { (void)set_host_link(host, up); });
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
  // A short BAR read leaves zeros behind it.
  const std::size_t n = std::min(out.size(), data->size());
  std::copy_n(data->begin(), n, out.begin());
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(n), out.end(), std::byte{0});
  return Status::ok();
}

Status Substrate::apply_write(const Sink& s, mem::PayloadReader& in, std::uint64_t len) {
  if (s.mem != nullptr) return s.mem->write(s.addr, in, len);
  bar_staging_.resize(len);
  in.read(bar_staging_);
  return s.ep->bar_write(s.bar, s.addr, bar_staging_);
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

void Substrate::SgOpFree::operator()(SgOp* op) const noexcept {
  const std::size_t bytes = SgOp::bytes(op->count);
  op->~SgOp();
  sim::pool::deallocate(op, bytes);
}

Result<Substrate::SgOpPtr> Substrate::resolve_sg(const Initiator& who,
                                                 std::span<const SgEntry> sg, bool is_store) {
  SgOpPtr op(::new (sim::pool::allocate(SgOp::bytes(sg.size()))) SgOp);
  op->count = static_cast<std::uint32_t>(sg.size());
  // The run: the target of the last routed entry, which holds for
  // [run_addr, run_addr + run.span). No window, LUT entry or link changes
  // during this call, so an entry inside the run resolves and costs alike.
  Target run;
  std::uint64_t run_addr = 0;
  for (std::size_t i = 0; i < sg.size(); ++i) {
    const SgEntry& e = sg[i];
    const std::uint64_t off = e.addr - run_addr;  // an entry below the run wraps past span
    if (off >= run.span || e.len > run.span - off) {
      auto target = route(who.host, e.addr, e.len);
      if (!target) {
        ++stats_.unsupported_requests;
        return target.status();
      }
      auto path = path_ns(who, *target, is_store);
      if (!path) return path.status();
      op->worst.ns = std::max(op->worst.ns, *path);
      op->worst.ntb_crossings = std::max(op->worst.ntb_crossings, target->ntb_crossings);
      if (is_store) op->add_key(target->order_key);
      run = *target;
      run_addr = e.addr;
    }
    stats_.ntb_translations += static_cast<std::uint64_t>(run.ntb_crossings);
    Sink sink = run.sink;
    sink.addr += e.addr - run_addr;
    ::new (&op->chunks()[i]) Chunk{sink, e.len};
    op->total += e.len;
  }
  return op;
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
  const SgEntry one{addr, static_cast<std::uint32_t>(data.size())};
  return posted_write(who, {&one, 1}, mem::Payload::copy_of(data), not_before,
                      /*scatter=*/false);
}

Result<sim::Time> Substrate::write_sg(const Initiator& who, std::span<const SgEntry> sg,
                                      mem::Payload data, sim::Time not_before) {
  return posted_write(who, sg, std::move(data), not_before, /*scatter=*/true);
}

sim::Future<Result<mem::Payload>> Substrate::read(const Initiator& who, std::uint64_t addr,
                                                  std::size_t len) {
  const SgEntry one{addr, static_cast<std::uint32_t>(len)};
  return nonposted_read(who, {&one, 1}, /*scatter=*/false);
}

sim::Future<Result<mem::Payload>> Substrate::read_sg(const Initiator& who,
                                                     std::span<const SgEntry> sg) {
  return nonposted_read(who, sg, /*scatter=*/true);
}

Result<sim::Time> Substrate::posted_write(const Initiator& who, std::span<const SgEntry> sg,
                                          mem::Payload data, sim::Time not_before,
                                          bool scatter) {
  auto resolved = resolve_sg(who, sg, /*is_store=*/true);
  if (!resolved) return resolved.status();
  SgOpPtr op = std::move(*resolved);
  const std::uint64_t total = op->total;
  if (total != data.size()) {
    return Status(Errc::invalid_argument, "scatter list length != payload length");
  }

  // Fault injection (one decision for the whole scatter list — the data of
  // one DMA either lands or is lost/damaged as a unit). A dropped posted
  // write still occupies the wire (the initiator saw it leave; stats and
  // ordering floors advance), it simply never lands — exactly how a lost
  // doorbell or CQE looks to software.
  fault::Injector::PostedWriteDecision decision;
  if (faults_ != nullptr && op->count > 0) {
    const Sink& first = op->chunks().front().sink;
    decision = faults_->on_posted_write(who.host, first.owner, first.mem == nullptr, total);
  }

  ++stats_.posted_writes;
  stats_.bytes_written += total;

  const PostedCost cost = posted_cost(op->worst, total, scatter);
  const sim::Duration lat = cost.latency + decision.extra_ns;
  // Order against the FIFO of every chunk's completer — advance each
  // distinct key's floor exactly once, so the aggregate gap is charged a
  // single time for the whole scatter list, not once per chunk. A single
  // key's floor is already at `arrival`.
  sim::Time arrival = not_before;
  for (std::uint64_t key : op->order_keys()) {
    arrival = std::max(arrival, posted_arrival(who, key, lat, cost.gap, not_before));
  }
  if (op->keys > 1) {
    for (std::uint64_t key : op->order_keys()) posted_floor_[{who.chip, key}] = arrival;
  }
  if (decision.drop) return arrival;
  // Wire timing above used the full payload; damage only what lands. `data`
  // is the in-flight copy: damage it in place. A torn write delivers only
  // its leading `torn_bytes`.
  if (decision.flip) data.flip_bit(decision.flip_bit);
  if (decision.torn) data.truncate(decision.torn_bytes);
  engine_.at(arrival, [this, op = std::move(op), d = std::move(data)]() mutable {
    mem::PayloadReader in(d);
    // A write torn to nothing still reaches its first sink: memory ignores
    // an empty store, a BAR register may reject it.
    for (std::size_t i = 0; i < op->count && (i == 0 || in.remaining() > 0); ++i) {
      const Chunk& c = op->chunks()[i];
      const std::uint64_t n = std::min<std::uint64_t>(c.len, in.remaining());
      mem::PayloadReader at = in;
      in.skip(n);
      if (Status st = apply_write(c.sink, at, n); !st) {
        NVS_LOG(warn, "fabric") << "posted write dropped at target: " << st.to_string();
        ++stats_.unsupported_requests;
      }
    }
  });
  return arrival;
}

sim::Future<Result<mem::Payload>> Substrate::nonposted_read(const Initiator& who,
                                                            std::span<const SgEntry> sg,
                                                            bool scatter) {
  sim::Promise<Result<mem::Payload>> promise(engine_);
  auto future = promise.future();

  auto resolved = resolve_sg(who, sg, /*is_store=*/false);
  if (!resolved) {
    // The error completion comes back after one short round trip.
    engine_.after(error_completion_ns(),
                  [promise, st = resolved.status()]() mutable { promise.set(st); });
    return future;
  }
  SgOpPtr op = std::move(*resolved);
  ++stats_.reads;
  stats_.bytes_read += op->total;

  const ReadCost cost = read_cost(op->worst, op->total, scatter);
  // The completer is accessed when the request arrives; data travels back.
  engine_.after(cost.request, [this, op = std::move(op), promise, src = who.host,
                               remaining = cost.response]() mutable {
    mem::Payload out;
    Status failure = Status::ok();
    for (const Chunk& c : op->chunks()) {
      if (Status st = apply_read_into(c.sink, c.len, out); !st) {
        failure = st;
        break;
      }
    }
    // Fault injection (one decision per read, matching posted writes): a
    // stale read completes successfully but carries zeros instead of memory
    // contents.
    if (faults_ != nullptr && failure.is_ok() && op->count > 0 &&
        faults_->on_dma_read(src, op->chunks().front().sink.owner,
                             op->chunks().front().sink.mem == nullptr)) {
      out.zero();
    }
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
