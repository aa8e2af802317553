#include "pcie/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/log.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"

namespace nvmeshare::pcie {

namespace {
constexpr int kMaxNtbDepth = 4;  // forwarding loops are configuration bugs

std::uint64_t pow2_ceil(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

Fabric::Fabric(sim::Engine& engine, LatencyModel model)
    : fabric::Substrate(engine), model_(model) {}

HostId Fabric::add_host(std::string name, std::uint64_t dram_size) {
  auto host = std::make_unique<HostState>();
  host->rc = topo_.add_chip(name + ".rc", ChipKind::root_complex, kNoHost /*fixed below*/,
                            model_.root_complex_ns);
  host->name = std::move(name);
  host->dram = std::make_unique<mem::PhysMem>(dram_size);
  host->mmio = std::make_unique<mem::RangeAllocator>(kMmioBase, kMmioSize);
  host->regions.emplace(0, Region{Region::Kind::dram, 0, dram_size, 0, 0, 0});
  hosts_.push_back(std::move(host));
  return static_cast<HostId>(hosts_.size() - 1);
}

ChipId Fabric::add_switch_chip(std::string name, HostId host) {
  return topo_.add_chip(std::move(name), ChipKind::switch_chip, host, model_.switch_chip_ns);
}

ChipId Fabric::add_cluster_switch(std::string name) {
  return topo_.add_chip(std::move(name), ChipKind::cluster_switch, kNoHost,
                        model_.cluster_switch_ns);
}

Result<EndpointId> Fabric::attach_endpoint(Endpoint& ep, HostId host, ChipId chip) {
  if (host >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
  if (chip >= topo_.chip_count()) return Status(Errc::invalid_argument, "bad chip id");

  EndpointState st;
  st.ep = &ep;
  st.host = host;
  st.chip = chip;
  HostState& hs = *hosts_[host];
  for (int bar = 0; bar < ep.bar_count(); ++bar) {
    const std::uint64_t size = ep.bar_size(bar);
    if (size == 0) {
      st.bar_bases.push_back(0);
      continue;
    }
    const std::uint64_t align = pow2_ceil(std::max<std::uint64_t>(size, 4096));
    auto base = hs.mmio->alloc(align, align);
    if (!base) return base.status();
    st.bar_bases.push_back(*base);
    hs.regions.emplace(
        *base, Region{Region::Kind::bar, *base, size, static_cast<EndpointId>(endpoints_.size()),
                      bar, 0});
  }
  const auto id = static_cast<EndpointId>(endpoints_.size());
  endpoints_.push_back(std::move(st));
  ep.on_attached(*this, Initiator{host, chip}, id);
  NVS_LOG(debug, "pcie") << "attached endpoint '" << ep.name() << "' to host "
                         << hosts_[host]->name;
  return id;
}

Result<std::uint64_t> Fabric::bar_address(EndpointId ep, int bar) const {
  if (ep >= endpoints_.size()) return Status(Errc::invalid_argument, "bad endpoint id");
  const auto& bases = endpoints_[ep].bar_bases;
  if (bar < 0 || static_cast<std::size_t>(bar) >= bases.size()) {
    return Status(Errc::invalid_argument, "bad BAR index");
  }
  return bases[static_cast<std::size_t>(bar)];
}

Endpoint* Fabric::endpoint(EndpointId ep) const {
  return ep < endpoints_.size() ? endpoints_[ep].ep : nullptr;
}

HostId Fabric::endpoint_host(EndpointId ep) const {
  return ep < endpoints_.size() ? endpoints_[ep].host : kNoHost;
}

ChipId Fabric::endpoint_chip(EndpointId ep) const {
  return ep < endpoints_.size() ? endpoints_[ep].chip : kNoChip;
}

// --- NTB ---------------------------------------------------------------------

Result<NtbId> Fabric::add_ntb(HostId host, std::uint32_t windows, std::uint64_t window_size) {
  if (host >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
  if (windows == 0 || !is_pow2(window_size)) {
    return Status(Errc::invalid_argument, "NTB needs >=1 window and pow2 window size");
  }
  HostState& hs = *hosts_[host];
  const std::uint64_t aperture = windows * window_size;
  auto base = hs.mmio->alloc(aperture, window_size);
  if (!base) return base.status();

  NtbState ntb;
  ntb.host = host;
  ntb.chip = topo_.add_chip(hs.name + ".ntb", ChipKind::ntb_adapter, host, model_.ntb_adapter_ns);
  ntb.aperture_base = *base;
  ntb.window_size = window_size;
  ntb.lut.resize(windows);
  NVS_RETURN_IF_ERROR(topo_.link(hs.rc, ntb.chip));

  const auto id = static_cast<NtbId>(ntbs_.size());
  hs.regions.emplace(*base, Region{Region::Kind::ntb, *base, aperture, 0, 0, id});
  ntbs_.push_back(std::move(ntb));
  return id;
}

Status Fabric::ntb_program(NtbId ntb, std::uint32_t entry, HostId remote_host,
                           std::uint64_t remote_base) {
  if (ntb >= ntbs_.size()) return Status(Errc::invalid_argument, "bad NTB id");
  NtbState& st = ntbs_[ntb];
  if (entry >= st.lut.size()) return Status(Errc::out_of_range, "LUT entry out of range");
  if (remote_host >= hosts_.size()) return Status(Errc::invalid_argument, "bad remote host");
  // Dolphin-style LUTs translate with page granularity: the far-side base
  // only needs page alignment, not window alignment.
  if (remote_base % 4096 != 0) {
    return Status(Errc::invalid_argument, "remote base must be page-aligned");
  }
  st.lut[entry] = NtbState::Lut{true, remote_host, remote_base};
  return Status::ok();
}

Status Fabric::ntb_clear(NtbId ntb, std::uint32_t entry) {
  if (ntb >= ntbs_.size()) return Status(Errc::invalid_argument, "bad NTB id");
  NtbState& st = ntbs_[ntb];
  if (entry >= st.lut.size()) return Status(Errc::out_of_range, "LUT entry out of range");
  st.lut[entry] = NtbState::Lut{};
  return Status::ok();
}

Result<std::uint32_t> Fabric::ntb_alloc_entry(NtbId ntb) {
  if (ntb >= ntbs_.size()) return Status(Errc::invalid_argument, "bad NTB id");
  NtbState& st = ntbs_[ntb];
  for (std::uint32_t i = 0; i < st.lut.size(); ++i) {
    if (!st.lut[i].valid) return i;
  }
  return Status(Errc::resource_exhausted, "all NTB LUT entries in use");
}

Result<std::uint32_t> Fabric::ntb_alloc_run(NtbId ntb, std::uint32_t count) {
  if (ntb >= ntbs_.size()) return Status(Errc::invalid_argument, "bad NTB id");
  if (count == 0) return Status(Errc::invalid_argument, "empty LUT run");
  NtbState& st = ntbs_[ntb];
  std::uint32_t run = 0;
  for (std::uint32_t i = 0; i < st.lut.size(); ++i) {
    run = st.lut[i].valid ? 0 : run + 1;
    if (run == count) return i - count + 1;
  }
  return Status(Errc::resource_exhausted, "no run of free NTB LUT entries");
}

Result<std::uint64_t> Fabric::ntb_window_address(NtbId ntb, std::uint32_t entry) const {
  if (ntb >= ntbs_.size()) return Status(Errc::invalid_argument, "bad NTB id");
  const NtbState& st = ntbs_[ntb];
  if (entry >= st.lut.size()) return Status(Errc::out_of_range, "LUT entry out of range");
  return st.aperture_base + entry * st.window_size;
}

Result<NtbId> Fabric::host_ntb(HostId host) const {
  for (NtbId i = 0; i < ntbs_.size(); ++i) {
    if (ntbs_[i].host == host) return i;
  }
  return Status(Errc::not_found, "host has no NTB adapter");
}

Status Fabric::set_ntb_link(HostId host, bool up) {
  auto ntb = host_ntb(host);
  if (!ntb) return ntb.status();
  const ChipId chip = ntbs_[*ntb].chip;
  for (const ChipId peer : topo_.neighbors(chip)) {
    if (Status st = topo_.set_link_state(chip, peer, up); !st) return st;
  }
  return Status::ok();
}

// --- windows -----------------------------------------------------------------

Result<fabric::Window> Fabric::map_window(fabric::MapIntent intent, HostId viewer,
                                          HostId owner, std::uint64_t addr,
                                          std::uint64_t size) {
  (void)intent;  // CPU maps and DMA windows both consume LUT runs on NTB
  if (viewer >= hosts_.size() || owner >= hosts_.size()) {
    return Status(Errc::invalid_argument, "bad host id");
  }
  if (size == 0) return Status(Errc::invalid_argument, "cannot map empty range");
  if (owner == viewer) return make_window(0, addr, size);

  auto ntb = host_ntb(viewer);
  if (!ntb) return ntb.status();
  const std::uint64_t window = ntb_window_size(*ntb);
  const auto count = static_cast<std::uint32_t>(div_ceil(size, window));
  auto first = ntb_alloc_run(*ntb, count);
  if (!first) return first.status();
  for (std::uint32_t i = 0; i < count; ++i) {
    if (Status st = ntb_program(*ntb, *first + i, owner,
                                addr + static_cast<std::uint64_t>(i) * window);
        !st) {
      // Roll back the entries programmed so far.
      for (std::uint32_t j = 0; j < i; ++j) (void)ntb_clear(*ntb, *first + j);
      return st;
    }
  }
  auto local = ntb_window_address(*ntb, *first);
  if (!local) {
    for (std::uint32_t j = 0; j < count; ++j) (void)ntb_clear(*ntb, *first + j);
    return local.status();
  }
  const std::uint64_t token = next_window_token_++;
  windows_.emplace(token, MapRec{*ntb, *first, count});
  return make_window(token, *local, size);
}

void Fabric::unmap_window(std::uint64_t token) {
  auto it = windows_.find(token);
  if (it == windows_.end()) return;
  for (std::uint32_t i = 0; i < it->second.count; ++i) {
    (void)ntb_clear(it->second.ntb, it->second.first + i);
  }
  windows_.erase(it);
}

// --- resolution ----------------------------------------------------------------

const Fabric::Region* Fabric::find_region(HostId host, std::uint64_t addr,
                                          std::uint64_t len) const {
  const auto& regions = hosts_[host]->regions;
  auto it = regions.upper_bound(addr);
  if (it == regions.begin()) return nullptr;
  --it;
  const Region& r = it->second;
  if (addr < r.base || addr + len > r.base + r.len) return nullptr;
  return &r;
}

Result<Fabric::Resolved> Fabric::resolve_impl(HostId host, std::uint64_t addr,
                                              std::uint64_t len, int depth,
                                              int crossings) const {
  if (host >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
  if (depth > kMaxNtbDepth) {
    return Status(Errc::protocol_error, "NTB forwarding loop (depth > 4)");
  }
  const Region* r = find_region(host, addr, len == 0 ? 1 : len);
  if (r == nullptr) {
    return Status(Errc::unmapped_address,
                  "no region for address in host '" + hosts_[host]->name + "'");
  }
  switch (r->kind) {
    case Region::Kind::dram: {
      Resolved out;
      out.kind = Resolved::Kind::dram;
      out.host = host;
      out.addr = addr;
      out.target_chip = hosts_[host]->rc;
      out.ntb_crossings = crossings;
      return out;
    }
    case Region::Kind::bar: {
      Resolved out;
      out.kind = Resolved::Kind::bar;
      out.host = host;
      out.ep = r->ep;
      out.bar = r->bar;
      out.bar_offset = addr - r->base;
      out.target_chip = endpoints_[r->ep].chip;
      out.ntb_crossings = crossings;
      return out;
    }
    case Region::Kind::ntb: {
      const NtbState& ntb = ntbs_[r->ntb];
      const std::uint64_t off = addr - r->base;
      const std::uint64_t entry = off / ntb.window_size;
      const std::uint64_t within = off % ntb.window_size;
      if (within + len > ntb.window_size) {
        return Status(Errc::out_of_range, "access crosses NTB window boundary");
      }
      const auto& lut = ntb.lut[entry];
      if (!lut.valid) {
        return Status(Errc::unmapped_address, "NTB LUT entry not programmed");
      }
      return resolve_impl(lut.remote_host, lut.remote_base + within, len, depth + 1,
                          crossings + 1);
    }
  }
  return Status(Errc::internal, "unreachable");
}

Result<Fabric::Resolved> Fabric::resolve(HostId host, std::uint64_t addr,
                                         std::uint64_t len) const {
  return resolve_impl(host, addr, len, 0, 0);
}

Result<Topology::PathCost> Fabric::path_to(const Initiator& who, const Resolved& target) const {
  if (who.chip >= topo_.chip_count()) {
    return Status(Errc::invalid_argument, "initiator chip invalid");
  }
  Topology::PathCost pc = topo_.path_cost(who.chip, target.target_chip);
  if (!pc.reachable) return Status(Errc::unavailable, "no fabric path to target");
  return pc;
}

// --- target access ----------------------------------------------------------------

Status Fabric::apply_write(const Resolved& target, ConstByteSpan data) {
  if (target.kind == Resolved::Kind::dram) {
    return hosts_[target.host]->dram->write(target.addr, data);
  }
  return endpoints_[target.ep].ep->bar_write(target.bar, target.bar_offset, data);
}

Status Fabric::apply_read_into(const Resolved& target, ByteSpan out) {
  if (target.kind == Resolved::Kind::dram) {
    return hosts_[target.host]->dram->read(target.addr, out);
  }
  Result<Bytes> data = endpoints_[target.ep].ep->bar_read(target.bar, target.bar_offset,
                                                          out.size());
  if (!data) return data.status();
  // Pooled buffers arrive dirty: a short BAR read leaves zeros behind it.
  const std::size_t n = std::min(out.size(), data->size());
  std::copy_n(data->begin(), n, out.begin());
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(n), out.end(), std::byte{0});
  return Status::ok();
}

// --- scatter-gather records ---------------------------------------------------------

std::unique_ptr<Fabric::SgOp> Fabric::take_sg_op() {
  if (sg_pool_.empty()) return std::make_unique<SgOp>();
  std::unique_ptr<SgOp> op = std::move(sg_pool_.back());
  sg_pool_.pop_back();
  return op;
}

void Fabric::recycle_sg_op(std::unique_ptr<SgOp> op) {
  op->targets.clear();
  op->lens.clear();
  op->chips.clear();
  op->total = 0;
  op->worst_path = 0;
  op->worst_crossings = 0;
  sg_pool_.push_back(std::move(op));
}

Status Fabric::resolve_sg(const Initiator& who, std::span<const SgEntry> sg, SgOp& op) {
  for (const auto& e : sg) {
    auto target = resolve(who.host, e.addr, e.len);
    if (!target) {
      ++stats_.unsupported_requests;
      return target.status();
    }
    auto pc = path_to(who, *target);
    if (!pc) return pc.status();
    op.worst_path = std::max(op.worst_path, pc->cost_ns);
    op.worst_crossings = std::max(op.worst_crossings, target->ntb_crossings);
    stats_.ntb_translations += static_cast<std::uint64_t>(target->ntb_crossings);
    op.targets.push_back(*target);
    op.lens.push_back(e.len);
    op.total += e.len;
  }
  return Status::ok();
}

// --- transactions -------------------------------------------------------------------

sim::Time Fabric::posted_arrival(const Initiator& who, ChipId target_chip,
                                 sim::Duration latency, sim::Duration gap,
                                 sim::Time not_before) {
  sim::Time& floor = posted_floor_[{who.chip, target_chip}];
  const sim::Time arrival = std::max({engine_.now() + latency, floor + gap, not_before});
  floor = arrival;
  return arrival;
}

Result<sim::Time> Fabric::post_write(const Initiator& who, std::uint64_t addr,
                                     ConstByteSpan data, sim::Time not_before) {
  auto target = resolve(who.host, addr, data.size());
  if (!target) {
    ++stats_.unsupported_requests;
    return target.status();
  }
  auto pc = path_to(who, *target);
  if (!pc) return pc.status();

  // Fault injection: a dropped posted write still occupies the wire (the
  // initiator saw it leave; stats and ordering floors advance), it simply
  // never lands — exactly how a lost doorbell or CQE looks to software.
  // Corruption (bit flip, torn write) mutates the in-flight copy: the
  // initiator's buffer is untouched, the completer sees damaged bytes.
  bool fault_drop = false;
  sim::Duration fault_extra = 0;
  fault::Injector::PostedWriteDecision corrupt;
  if (fault::enabled()) {
    const auto decision = fault::Injector::global().on_posted_write(
        who.host, target->host, target->kind == Resolved::Kind::bar, data.size());
    fault_drop = decision.drop;
    fault_extra = decision.extra_ns;
    corrupt = decision;
  }

  ++stats_.posted_writes;
  stats_.bytes_written += data.size();
  stats_.ntb_translations += static_cast<std::uint64_t>(target->ntb_crossings);

  // Wire occupancy (serialization + TLP overhead) is both part of the
  // delivery latency and the pipelining gap — compute it once.
  const sim::Duration ser = model_.serialization_ns(data.size());
  const sim::Duration tlp =
      static_cast<sim::Duration>(model_.tlp_count(data.size())) * model_.tlp_overhead_ns;
  const sim::Duration lat = model_.one_way_ns(pc->cost_ns, target->ntb_crossings) + tlp +
                            ser + model_.completer_access_ns + fault_extra;
  const sim::Time arrival = posted_arrival(who, target->target_chip, lat, ser + tlp,
                                           not_before);
  if (fault_drop) return arrival;
  // Wire timing above used the full payload; damage only what lands. The
  // in-flight copy comes from the payload pool — the hot path allocates
  // nothing once the pool is warm.
  Bytes payload = take_payload(data.size());
  if (!data.empty()) std::memcpy(payload.data(), data.data(), data.size());
  if (corrupt.flip) {
    payload[corrupt.flip_bit / 8] ^= std::byte{1} << (corrupt.flip_bit % 8);
  }
  if (corrupt.torn) payload.resize(corrupt.torn_bytes);
  engine_.at(arrival, [this, t = *target, d = std::move(payload)]() mutable {
    if (Status st = apply_write(t, d); !st) {
      NVS_LOG(warn, "pcie") << "posted write dropped at target: " << st.to_string();
      ++stats_.unsupported_requests;
    }
    recycle_payload(std::move(d));
  });
  return arrival;
}

Result<sim::Time> Fabric::write_sg(const Initiator& who, std::span<const SgEntry> sg,
                                   Bytes data, sim::Time not_before) {
  std::unique_ptr<SgOp> op = take_sg_op();
  if (Status st = resolve_sg(who, sg, *op); !st) {
    recycle_sg_op(std::move(op));
    recycle_payload(std::move(data));
    return st;
  }
  const std::uint64_t total = op->total;
  if (total != data.size()) {
    recycle_sg_op(std::move(op));
    recycle_payload(std::move(data));
    return Status(Errc::invalid_argument, "scatter list length != payload length");
  }

  // Fault injection (one decision for the whole scatter list — the data of
  // one DMA either lands or is lost/damaged as a unit).
  bool fault_drop = false;
  sim::Duration fault_extra = 0;
  fault::Injector::PostedWriteDecision corrupt;
  if (fault::enabled() && !op->targets.empty()) {
    const Resolved& first = op->targets.front();
    const auto decision = fault::Injector::global().on_posted_write(
        who.host, first.host, first.kind == Resolved::Kind::bar, total);
    fault_drop = decision.drop;
    fault_extra = decision.extra_ns;
    corrupt = decision;
  }

  ++stats_.posted_writes;
  stats_.bytes_written += total;

  const sim::Duration ser = model_.serialization_ns(total);
  const sim::Duration tlp =
      static_cast<sim::Duration>(model_.tlp_count(total)) * model_.tlp_overhead_ns;
  const sim::Duration lat = model_.one_way_ns(op->worst_path, op->worst_crossings) + tlp + ser +
                            model_.completer_access_ns + fault_extra;
  // Order against the FIFO of every chunk's completer — advance each
  // distinct completer chip's floor exactly once, so the aggregate
  // serialization gap is charged a single time for the whole scatter
  // list, not once per chunk.
  for (const auto& t : op->targets) {
    if (std::find(op->chips.begin(), op->chips.end(), t.target_chip) == op->chips.end()) {
      op->chips.push_back(t.target_chip);
    }
  }
  sim::Time arrival = not_before;
  for (ChipId chip : op->chips) {
    arrival = std::max(arrival, posted_arrival(who, chip, lat, ser + tlp, not_before));
  }
  for (ChipId chip : op->chips) {
    posted_floor_[{who.chip, chip}] = arrival;
  }
  if (fault_drop) {
    recycle_sg_op(std::move(op));
    recycle_payload(std::move(data));
    return arrival;
  }
  // `data` is the in-flight copy: damage it in place.
  if (corrupt.flip) {
    data[corrupt.flip_bit / 8] ^= std::byte{1} << (corrupt.flip_bit % 8);
  }
  // A torn scatter write delivers only the leading `torn_bytes` of the DMA.
  const std::uint64_t deliver = corrupt.torn ? corrupt.torn_bytes : total;
  engine_.at(arrival, [this, op = std::move(op), d = std::move(data), deliver]() mutable {
    std::size_t off = 0;
    for (std::size_t i = 0; i < op->targets.size() && off < deliver; ++i) {
      const std::size_t chunk = std::min<std::size_t>(op->lens[i], deliver - off);
      if (Status st = apply_write(op->targets[i], ConstByteSpan(d).subspan(off, chunk)); !st) {
        NVS_LOG(warn, "pcie") << "scatter write chunk dropped: " << st.to_string();
        ++stats_.unsupported_requests;
      }
      off += op->lens[i];
    }
    recycle_payload(std::move(d));
    recycle_sg_op(std::move(op));
  });
  return arrival;
}

sim::Future<Result<Bytes>> Fabric::read(const Initiator& who, std::uint64_t addr,
                                        std::size_t len) {
  sim::Promise<Result<Bytes>> promise(engine_);
  auto future = promise.future();

  auto target = resolve(who.host, addr, len);
  if (!target) {
    ++stats_.unsupported_requests;
    // UR completion comes back after roughly one round trip of header TLPs.
    engine_.after(2 * model_.tlp_overhead_ns,
                  [promise, st = target.status()]() mutable { promise.set(st); });
    return future;
  }
  auto pc = path_to(who, *target);
  if (!pc) {
    engine_.after(2 * model_.tlp_overhead_ns,
                  [promise, st = pc.status()]() mutable { promise.set(st); });
    return future;
  }
  ++stats_.reads;
  stats_.bytes_read += len;
  stats_.ntb_translations += static_cast<std::uint64_t>(target->ntb_crossings);

  const sim::Duration one_way = model_.one_way_ns(pc->cost_ns, target->ntb_crossings);
  const sim::Duration total = model_.read_ns(pc->cost_ns, target->ntb_crossings, len);
  // The completer is accessed when the request arrives; data travels back.
  engine_.after(one_way + model_.completer_access_ns,
                [this, t = *target, len, promise, src = who.host,
                 remaining = total - one_way - model_.completer_access_ns]() mutable {
                  // One pooled buffer, filled in place — the DRAM fast path
                  // copies straight from PhysMem into it.
                  Bytes data = take_payload(len);
                  Status st = apply_read_into(t, data);
                  // Fault injection: a stale read completes successfully but
                  // carries old (zero-filled) data instead of memory contents.
                  if (st && fault::enabled() &&
                      fault::Injector::global().on_dma_read(
                          src, t.host, t.kind == Resolved::Kind::bar)) {
                    data.assign(data.size(), std::byte{0});
                  }
                  engine_.after(remaining > 0 ? remaining : 0,
                                [promise, st, d = std::move(data)]() mutable {
                                  if (!st) {
                                    promise.set(st);
                                  } else {
                                    promise.set(std::move(d));
                                  }
                                });
                });
  return future;
}

sim::Future<Result<Bytes>> Fabric::read_sg(const Initiator& who,
                                           std::span<const SgEntry> sg) {
  sim::Promise<Result<Bytes>> promise(engine_);
  auto future = promise.future();

  std::unique_ptr<SgOp> op = take_sg_op();
  if (Status st = resolve_sg(who, sg, *op); !st) {
    recycle_sg_op(std::move(op));
    engine_.after(2 * model_.tlp_overhead_ns,
                  [promise, st = std::move(st)]() mutable { promise.set(st); });
    return future;
  }
  ++stats_.reads;
  stats_.bytes_read += op->total;

  const sim::Duration one_way = model_.one_way_ns(op->worst_path, op->worst_crossings);
  const sim::Duration total_lat = model_.read_ns(op->worst_path, op->worst_crossings, op->total);
  engine_.after(
      one_way + model_.completer_access_ns,
      [this, op = std::move(op), promise, src = who.host,
       remaining = total_lat - one_way - model_.completer_access_ns]() mutable {
        // Gather into one pre-sized pooled buffer: every DRAM chunk lands
        // directly in its final position.
        Bytes out = take_payload(op->total);
        Status failure = Status::ok();
        std::size_t off = 0;
        for (std::size_t i = 0; i < op->targets.size(); ++i) {
          if (Status st = apply_read_into(op->targets[i], ByteSpan(out).subspan(off, op->lens[i]));
              !st) {
            failure = st;
            break;
          }
          off += op->lens[i];
        }
        // Fault injection (one decision per gather, matching write_sg): a
        // stale gather read completes with zero-filled data.
        if (failure.is_ok() && !op->targets.empty() && fault::enabled() &&
            fault::Injector::global().on_dma_read(
                src, op->targets.front().host,
                op->targets.front().kind == Resolved::Kind::bar)) {
          out.assign(out.size(), std::byte{0});
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

Status Fabric::do_poke(HostId host, std::uint64_t addr, ConstByteSpan data) {
  auto target = resolve(host, addr, data.size());
  if (!target) return target.status();
  return apply_write(*target, data);
}

Status Fabric::poll_read(HostId viewer, std::uint64_t addr, ByteSpan out) {
  auto target = resolve(viewer, addr, out.size());
  if (!target) return target.status();
  if (target->kind == Resolved::Kind::dram) {
    // CQ pollers hit this every poll round; read straight into the
    // caller's buffer instead of round-tripping through a temporary.
    return hosts_[target->host]->dram->read(target->addr, out);
  }
  return apply_read_into(*target, out);
}

Result<fabric::Substrate::MemoryRef> Fabric::resolve_memory(HostId viewer, std::uint64_t addr,
                                                            std::uint64_t len) {
  auto target = resolve(viewer, addr, len);
  if (!target) return target.status();
  if (target->kind != Resolved::Kind::dram) {
    return Status(Errc::invalid_argument, "range resolves to a BAR, not memory");
  }
  return MemoryRef{hosts_[target->host]->dram.get(), target->addr};
}

Status Fabric::do_peek(HostId host, std::uint64_t addr, ByteSpan out) {
  return poll_read(host, addr, out);
}

bool Fabric::backdoor_crosses_host(HostId viewer, std::uint64_t addr,
                                   std::uint64_t len) const {
  auto target = resolve(viewer, addr, len);
  return target.has_value() && target->host != viewer;
}

}  // namespace nvmeshare::pcie
