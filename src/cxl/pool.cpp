#include "cxl/pool.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"

namespace nvmeshare::cxl {

namespace {
std::uint64_t pow2_ceil(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

PoolFabric::PoolFabric(sim::Engine& engine, PoolConfig cfg)
    : fabric::Substrate(engine),
      cfg_(cfg),
      pool_(cfg.pool_size),
      mmio_(kMmioBase, kMmioSize) {}

HostId PoolFabric::add_host(std::string name, std::uint64_t dram_size) {
  HostState hs;
  hs.name = std::move(name);
  hs.dram = std::make_unique<mem::PhysMem>(dram_size);
  hosts_.push_back(std::move(hs));
  return static_cast<HostId>(hosts_.size() - 1);
}

const std::string& PoolFabric::host_name(HostId h) const {
  static const std::string kPoolName = "cxl-pool";
  if (h == pool_space()) return kPoolName;
  return hosts_.at(h).name;
}

mem::PhysMem& PoolFabric::host_dram(HostId h) {
  if (h == pool_space()) return pool_;
  return *hosts_.at(h).dram;
}

Result<EndpointId> PoolFabric::attach(fabric::Endpoint& ep, HostId host) {
  if (host >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
  EndpointState st;
  st.ep = &ep;
  st.host = host;
  for (int bar = 0; bar < ep.bar_count(); ++bar) {
    const std::uint64_t size = ep.bar_size(bar);
    if (size == 0) {
      st.bar_bases.push_back(0);
      continue;
    }
    const std::uint64_t align = pow2_ceil(std::max<std::uint64_t>(size, 4096));
    auto base = mmio_.alloc(align, align);
    if (!base) return base.status();
    st.bar_bases.push_back(*base);
    bars_.emplace(*base, BarRegion{*base, size,
                                   static_cast<EndpointId>(endpoints_.size()), bar});
  }
  const auto id = static_cast<EndpointId>(endpoints_.size());
  endpoints_.push_back(std::move(st));
  // Devices get a chip id disjoint from any host's root port (cpu() uses
  // chip == host) so a DMA engine and its host's CPU are distinct posted
  // streams in the floor map.
  ep.on_attached(*this, Initiator{host, 0x8000'0000u + id}, id);
  NVS_LOG(debug, "cxl") << "attached endpoint '" << ep.name() << "' to host "
                        << hosts_[host].name;
  return id;
}

Result<std::uint64_t> PoolFabric::bar_address(EndpointId ep, int bar) const {
  if (ep >= endpoints_.size()) return Status(Errc::invalid_argument, "bad endpoint id");
  const auto& bases = endpoints_[ep].bar_bases;
  if (bar < 0 || static_cast<std::size_t>(bar) >= bases.size()) {
    return Status(Errc::invalid_argument, "bad BAR index");
  }
  return bases[static_cast<std::size_t>(bar)];
}

fabric::Endpoint* PoolFabric::endpoint(EndpointId ep) const {
  return ep < endpoints_.size() ? endpoints_[ep].ep : nullptr;
}

HostId PoolFabric::endpoint_host(EndpointId ep) const {
  return ep < endpoints_.size() ? endpoints_[ep].host : fabric::kNoHost;
}

Result<fabric::Window> PoolFabric::map_window(fabric::MapIntent intent, HostId viewer,
                                              HostId owner, std::uint64_t addr,
                                              std::uint64_t size) {
  (void)intent;
  if (viewer >= hosts_.size()) return Status(Errc::invalid_argument, "bad viewer host");
  if (size == 0) return Status(Errc::invalid_argument, "cannot map empty range");
  if (owner == pool_space()) {
    if (addr + size > cfg_.pool_size) {
      return Status(Errc::out_of_range, "map exceeds pool capacity");
    }
    return make_window(0, kPoolBase + addr, size);
  }
  if (owner == viewer) return make_window(0, addr, size);
  if (owner < hosts_.size() && addr >= kMmioBase) {
    // Device BARs live in one global MMIO space: CXL.io p2p addressing.
    return make_window(0, addr, size);
  }
  return Status(Errc::unsupported,
                "CXL pool substrate cannot map another host's private DRAM — "
                "place shared data in the pool");
}

// --- resolution / access -----------------------------------------------------

Result<PoolFabric::Resolved> PoolFabric::resolve(HostId viewer, std::uint64_t addr,
                                                 std::uint64_t len) const {
  if (viewer >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
  const std::uint64_t span = len == 0 ? 1 : len;
  const std::uint64_t dram_size = hosts_[viewer].dram->size();
  if (addr + span <= dram_size) {
    Resolved out;
    out.kind = Resolved::Kind::dram;
    out.host = viewer;
    out.addr = addr;
    return out;
  }
  if (addr >= kPoolBase && addr + span <= kPoolBase + cfg_.pool_size) {
    Resolved out;
    out.kind = Resolved::Kind::pool;
    out.addr = addr - kPoolBase;
    return out;
  }
  if (addr >= kMmioBase && addr < kMmioBase + kMmioSize) {
    auto it = bars_.upper_bound(addr);
    if (it != bars_.begin()) {
      --it;
      const BarRegion& r = it->second;
      if (addr >= r.base && addr + span <= r.base + r.len) {
        Resolved out;
        out.kind = Resolved::Kind::bar;
        out.host = endpoints_[r.ep].host;
        out.ep = r.ep;
        out.bar = r.bar;
        out.bar_offset = addr - r.base;
        return out;
      }
    }
  }
  return Status(Errc::unmapped_address,
                "no region for address in host '" + hosts_[viewer].name + "'");
}

Status PoolFabric::check_reachable(HostId viewer, const Resolved& t) const {
  // Own DRAM never leaves the host. Everything else traverses the CXL
  // port: the viewer's port must be up, and for a peer device BAR the
  // owner's port too.
  if (t.kind == Resolved::Kind::dram && t.host == viewer) return Status::ok();
  if (!hosts_[viewer].port_up) {
    return Status(Errc::unavailable, "CXL port down on initiating host");
  }
  if (t.kind == Resolved::Kind::bar && t.host != viewer && !hosts_[t.host].port_up) {
    return Status(Errc::unavailable, "CXL port down on device host");
  }
  return Status::ok();
}

Status PoolFabric::apply_write(const Resolved& t, ConstByteSpan data) {
  switch (t.kind) {
    case Resolved::Kind::dram:
      return hosts_[t.host].dram->write(t.addr, data);
    case Resolved::Kind::pool:
      return pool_.write(t.addr, data);
    case Resolved::Kind::bar:
      return endpoints_[t.ep].ep->bar_write(t.bar, t.bar_offset, data);
  }
  return Status(Errc::internal, "unreachable");
}

Status PoolFabric::apply_read_into(const Resolved& t, ByteSpan out) {
  switch (t.kind) {
    case Resolved::Kind::dram:
      return hosts_[t.host].dram->read(t.addr, out);
    case Resolved::Kind::pool:
      return pool_.read(t.addr, out);
    case Resolved::Kind::bar: {
      Result<Bytes> data = endpoints_[t.ep].ep->bar_read(t.bar, t.bar_offset, out.size());
      if (!data) return data.status();
      // Pooled buffers arrive dirty: a short BAR read leaves zeros behind it.
      const std::size_t n = std::min(out.size(), data->size());
      std::copy_n(data->begin(), n, out.begin());
      std::fill(out.begin() + static_cast<std::ptrdiff_t>(n), out.end(), std::byte{0});
      return Status::ok();
    }
  }
  return Status(Errc::internal, "unreachable");
}

// --- latency -----------------------------------------------------------------

sim::Duration PoolFabric::one_way_ns(HostId viewer, const Resolved& t,
                                     bool is_store) const {
  switch (t.kind) {
    case Resolved::Kind::dram:
      return cfg_.local_mem_ns;
    case Resolved::Kind::pool:
      return is_store ? cfg_.store_port_ns : cfg_.load_port_ns;
    case Resolved::Kind::bar:
      return t.host == viewer ? cfg_.local_mem_ns : cfg_.mmio_ns;
  }
  return cfg_.local_mem_ns;
}

sim::Duration PoolFabric::serialization_ns(std::uint64_t bytes) const {
  if (bytes == 0) return 0;
  return static_cast<sim::Duration>(static_cast<double>(bytes) / cfg_.link_bytes_per_ns);
}

std::uint64_t PoolFabric::floor_key(const Resolved& t) const {
  switch (t.kind) {
    case Resolved::Kind::pool:
      return 0xffff'ffff'0000'0000ULL;
    case Resolved::Kind::bar:
      return 0x1'0000'0000ULL | t.ep;
    case Resolved::Kind::dram:
      return t.host;
  }
  return 0;
}

sim::Time PoolFabric::posted_arrival(std::uint64_t initiator, std::uint64_t key,
                                     sim::Duration latency, sim::Duration gap,
                                     sim::Time not_before) {
  sim::Time& floor = posted_floor_[{initiator, key}];
  const sim::Time arrival = std::max({engine_.now() + latency, floor + gap, not_before});
  floor = arrival;
  return arrival;
}

HostId PoolFabric::fault_host(HostId viewer, const Resolved& t) const {
  return t.kind == Resolved::Kind::pool ? viewer : t.host;
}

// --- transactions ------------------------------------------------------------

Result<sim::Time> PoolFabric::post_write(const Initiator& who, std::uint64_t addr,
                                         ConstByteSpan data, sim::Time not_before) {
  auto target = resolve(who.host, addr, data.size());
  if (!target) {
    ++stats_.unsupported_requests;
    return target.status();
  }
  if (Status st = check_reachable(who.host, *target); !st) return st;

  bool fault_drop = false;
  sim::Duration fault_extra = 0;
  fault::Injector::PostedWriteDecision corrupt;
  if (fault::enabled()) {
    const auto decision = fault::Injector::global().on_posted_write(
        who.host, fault_host(who.host, *target),
        target->kind == Resolved::Kind::bar, data.size());
    fault_drop = decision.drop;
    fault_extra = decision.extra_ns;
    corrupt = decision;
  }

  ++stats_.posted_writes;
  stats_.bytes_written += data.size();

  const sim::Duration ser = serialization_ns(data.size());
  const sim::Duration lat = one_way_ns(who.host, *target, /*is_store=*/true) + ser +
                            cfg_.pool_access_ns + fault_extra;
  const sim::Time arrival =
      posted_arrival(initiator_id(who), floor_key(*target), lat, ser, not_before);
  if (fault_drop) return arrival;
  Bytes payload = take_payload(data.size());
  if (!data.empty()) std::memcpy(payload.data(), data.data(), data.size());
  if (corrupt.flip) {
    payload[corrupt.flip_bit / 8] ^= std::byte{1} << (corrupt.flip_bit % 8);
  }
  if (corrupt.torn) payload.resize(corrupt.torn_bytes);
  engine_.at(arrival, [this, t = *target, d = std::move(payload)]() mutable {
    if (Status st = apply_write(t, d); !st) {
      NVS_LOG(warn, "cxl") << "posted store dropped at target: " << st.to_string();
      ++stats_.unsupported_requests;
    }
    recycle_payload(std::move(d));
  });
  return arrival;
}

Result<sim::Time> PoolFabric::write_sg(const Initiator& who, std::span<const SgEntry> sg,
                                       ConstByteSpan data, sim::Time not_before) {
  std::uint64_t total = 0;
  sim::Duration worst_one_way = 0;
  std::vector<Resolved> targets;
  targets.reserve(sg.size());
  for (const auto& e : sg) {
    auto target = resolve(who.host, e.addr, e.len);
    if (!target) {
      ++stats_.unsupported_requests;
      return target.status();
    }
    if (Status st = check_reachable(who.host, *target); !st) return st;
    worst_one_way =
        std::max(worst_one_way, one_way_ns(who.host, *target, /*is_store=*/true));
    targets.push_back(*target);
    total += e.len;
  }
  if (total != data.size()) {
    return Status(Errc::invalid_argument, "scatter list length != payload length");
  }

  bool fault_drop = false;
  sim::Duration fault_extra = 0;
  fault::Injector::PostedWriteDecision corrupt;
  if (fault::enabled() && !targets.empty()) {
    const auto decision = fault::Injector::global().on_posted_write(
        who.host, fault_host(who.host, targets.front()),
        targets.front().kind == Resolved::Kind::bar, total);
    fault_drop = decision.drop;
    fault_extra = decision.extra_ns;
    corrupt = decision;
  }

  ++stats_.posted_writes;
  stats_.bytes_written += total;

  // Bulk transfers ride the pool DSA: fixed descriptor cost plus streaming
  // bandwidth instead of per-store port latency.
  const bool dsa = total >= cfg_.dsa_threshold;
  const sim::Duration ser = serialization_ns(total);
  const sim::Duration move_ns =
      dsa ? cfg_.dsa_setup_ns +
                static_cast<sim::Duration>(static_cast<double>(total) / cfg_.dsa_bytes_per_ns)
          : worst_one_way + ser;
  const sim::Duration lat = move_ns + cfg_.pool_access_ns + fault_extra;

  std::vector<std::uint64_t> keys;
  for (const auto& t : targets) {
    const std::uint64_t k = floor_key(t);
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
  }
  sim::Time arrival = not_before;
  for (std::uint64_t k : keys) {
    arrival = std::max(arrival, posted_arrival(initiator_id(who), k, lat, ser, not_before));
  }
  for (std::uint64_t k : keys) {
    posted_floor_[{initiator_id(who), k}] = arrival;
  }
  if (fault_drop) return arrival;
  Bytes payload = take_payload(data.size());
  if (!data.empty()) std::memcpy(payload.data(), data.data(), data.size());
  if (corrupt.flip) {
    payload[corrupt.flip_bit / 8] ^= std::byte{1} << (corrupt.flip_bit % 8);
  }
  const std::uint64_t deliver = corrupt.torn ? corrupt.torn_bytes : total;
  engine_.at(arrival,
             [this, targets = std::move(targets), sg = std::vector<SgEntry>(sg.begin(), sg.end()),
              d = std::move(payload), deliver]() mutable {
               std::size_t off = 0;
               for (std::size_t i = 0; i < targets.size() && off < deliver; ++i) {
                 const std::size_t chunk = std::min<std::size_t>(sg[i].len, deliver - off);
                 if (Status st = apply_write(targets[i], ConstByteSpan(d).subspan(off, chunk));
                     !st) {
                   NVS_LOG(warn, "cxl") << "scatter store chunk dropped: " << st.to_string();
                   ++stats_.unsupported_requests;
                 }
                 off += sg[i].len;
               }
               recycle_payload(std::move(d));
             });
  return arrival;
}

sim::Future<Result<Bytes>> PoolFabric::read(const Initiator& who, std::uint64_t addr,
                                            std::size_t len) {
  sim::Promise<Result<Bytes>> promise(engine_);
  auto future = promise.future();

  auto target = resolve(who.host, addr, len);
  Status reach = target ? check_reachable(who.host, *target) : target.status();
  if (!target || !reach) {
    if (!target) ++stats_.unsupported_requests;
    engine_.after(2 * cfg_.local_mem_ns,
                  [promise, st = reach]() mutable { promise.set(st); });
    return future;
  }
  ++stats_.reads;
  stats_.bytes_read += len;

  const sim::Duration one_way = one_way_ns(who.host, *target, /*is_store=*/false);
  const sim::Duration total = 2 * one_way + cfg_.pool_access_ns + serialization_ns(len);
  engine_.after(one_way + cfg_.pool_access_ns,
                [this, t = *target, len, promise, src = who.host,
                 remaining = total - one_way - cfg_.pool_access_ns]() mutable {
                  Bytes data = take_payload(len);
                  Status st = apply_read_into(t, data);
                  if (st && fault::enabled() &&
                      fault::Injector::global().on_dma_read(
                          src, fault_host(src, t), t.kind == Resolved::Kind::bar)) {
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

sim::Future<Result<Bytes>> PoolFabric::read_sg(const Initiator& who,
                                               std::span<const SgEntry> sg) {
  sim::Promise<Result<Bytes>> promise(engine_);
  auto future = promise.future();

  std::uint64_t total = 0;
  sim::Duration worst_one_way = 0;
  std::vector<Resolved> targets;
  targets.reserve(sg.size());
  for (const auto& e : sg) {
    auto target = resolve(who.host, e.addr, e.len);
    Status reach = target ? check_reachable(who.host, *target) : target.status();
    if (!target || !reach) {
      if (!target) ++stats_.unsupported_requests;
      engine_.after(2 * cfg_.local_mem_ns,
                    [promise, st = reach]() mutable { promise.set(st); });
      return future;
    }
    worst_one_way =
        std::max(worst_one_way, one_way_ns(who.host, *target, /*is_store=*/false));
    targets.push_back(*target);
    total += e.len;
  }
  ++stats_.reads;
  stats_.bytes_read += total;

  const bool dsa = total >= cfg_.dsa_threshold;
  const sim::Duration gather_ns =
      dsa ? cfg_.dsa_setup_ns +
                static_cast<sim::Duration>(static_cast<double>(total) / cfg_.dsa_bytes_per_ns)
          : 2 * worst_one_way + serialization_ns(total);
  const sim::Duration total_lat = gather_ns + cfg_.pool_access_ns;
  const sim::Duration first_leg = (dsa ? cfg_.dsa_setup_ns : worst_one_way) +
                                  cfg_.pool_access_ns;
  engine_.after(
      first_leg,
      [this, targets = std::move(targets), sg = std::vector<SgEntry>(sg.begin(), sg.end()),
       promise, src = who.host, remaining = total_lat - first_leg, total]() mutable {
        Bytes out = take_payload(total);
        Status failure = Status::ok();
        std::size_t off = 0;
        for (std::size_t i = 0; i < targets.size(); ++i) {
          if (Status st = apply_read_into(targets[i], ByteSpan(out).subspan(off, sg[i].len));
              !st) {
            failure = st;
            break;
          }
          off += sg[i].len;
        }
        if (failure.is_ok() && !targets.empty() && fault::enabled() &&
            fault::Injector::global().on_dma_read(
                src, fault_host(src, targets.front()),
                targets.front().kind == Resolved::Kind::bar)) {
          out.assign(out.size(), std::byte{0});
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

Status PoolFabric::poll_read(HostId viewer, std::uint64_t addr, ByteSpan out) {
  auto target = resolve(viewer, addr, out.size());
  if (!target) return target.status();
  return apply_read_into(*target, out);
}

Status PoolFabric::set_host_link(HostId host, bool up) {
  if (host >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
  hosts_[host].port_up = up;
  return Status::ok();
}

sim::Duration PoolFabric::copy_cost_ns(HostId owner, std::uint64_t bytes) const {
  if (owner != pool_space() || bytes == 0) return 0;
  if (bytes >= cfg_.dsa_threshold) {
    return cfg_.dsa_setup_ns +
           static_cast<sim::Duration>(static_cast<double>(bytes) / cfg_.dsa_bytes_per_ns);
  }
  return cfg_.store_port_ns + serialization_ns(bytes);
}

Status PoolFabric::do_poke(HostId host, std::uint64_t addr, ConstByteSpan data) {
  auto target = resolve(host, addr, data.size());
  if (!target) return target.status();
  return apply_write(*target, data);
}

Result<fabric::Substrate::MemoryRef> PoolFabric::resolve_memory(HostId viewer,
                                                                std::uint64_t addr,
                                                                std::uint64_t len) {
  auto target = resolve(viewer, addr, len);
  if (!target) return target.status();
  switch (target->kind) {
    case Resolved::Kind::dram:
      return MemoryRef{hosts_[target->host].dram.get(), target->addr};
    case Resolved::Kind::pool:
      return MemoryRef{&pool_, target->addr};
    case Resolved::Kind::bar:
      break;
  }
  return Status(Errc::invalid_argument, "range resolves to a BAR, not memory");
}

Status PoolFabric::do_peek(HostId host, std::uint64_t addr, ByteSpan out) {
  return poll_read(host, addr, out);
}

bool PoolFabric::backdoor_crosses_host(HostId viewer, std::uint64_t addr,
                                       std::uint64_t len) const {
  // Private DRAM and the shared pool are legitimately loadable; only a
  // peer device's BAR counts as crossing hosts.
  auto target = resolve(viewer, addr, len);
  return target.has_value() && target->kind == Resolved::Kind::bar &&
         target->host != viewer;
}

}  // namespace nvmeshare::cxl
