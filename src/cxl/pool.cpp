#include "cxl/pool.hpp"

namespace nvmeshare::cxl {

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
  // Devices get a chip id disjoint from any host's root port (cpu() uses
  // chip == host) so a DMA engine and its host's CPU are distinct posted
  // streams in the floor map.
  return add_endpoint(ep, host, 0x8000'0000u + static_cast<fabric::ChipId>(endpoints_.size()),
                      mmio_);
}

void PoolFabric::map_bar(HostId host, EndpointId ep, int bar, std::uint64_t base,
                         std::uint64_t size) {
  (void)host;  // one global MMIO space
  bars_.emplace(base, BarRegion{base, size, ep, bar});
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

// --- routing and cost -----------------------------------------------------------

Result<fabric::Substrate::Target> PoolFabric::route(HostId viewer, std::uint64_t addr,
                                                    std::uint64_t len) {
  if (viewer >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
  const std::uint64_t span = len == 0 ? 1 : len;
  Target t;
  if (addr + span <= hosts_[viewer].dram->size()) {
    t.sink = {hosts_[viewer].dram.get(), nullptr, addr, 0, viewer};
    t.order_key = viewer;
    t.span = hosts_[viewer].dram->size() - addr;
    return t;
  }
  if (addr >= kPoolBase && addr + span <= kPoolBase + cfg_.pool_size) {
    // Pool loss is indistinguishable from losing your own port: fault plans
    // see the viewer as the owner.
    t.sink = {&pool_, nullptr, addr - kPoolBase, 0, viewer};
    t.order_key = kPoolKey;
    t.span = kPoolBase + cfg_.pool_size - addr;
    return t;
  }
  if (addr >= kMmioBase && addr < kMmioBase + kMmioSize) {
    auto it = bars_.upper_bound(addr);
    if (it != bars_.begin()) {
      --it;
      const BarRegion& r = it->second;
      if (addr >= r.base && addr + span <= r.base + r.len) {
        t.sink = {nullptr, endpoints_[r.ep].ep, addr - r.base, r.bar, endpoints_[r.ep].at.host};
        t.order_key = kBarKey | r.ep;
        t.span = r.base + r.len - addr;
        return t;
      }
    }
  }
  return Status(Errc::unmapped_address,
                "no region for address in host '" + hosts_[viewer].name + "'");
}

Result<sim::Duration> PoolFabric::path_ns(const Initiator& who, const Target& t,
                                          bool is_store) const {
  // Own DRAM never leaves the host. Everything else traverses the CXL
  // port: the viewer's port must be up, and for a peer device BAR the
  // owner's port too.
  const bool pool = t.sink.mem == &pool_;
  if (t.sink.mem != nullptr && !pool) return cfg_.local_mem_ns;
  if (!hosts_[who.host].port_up) {
    return Status(Errc::unavailable, "CXL port down on initiating host");
  }
  if (pool) return is_store ? cfg_.store_port_ns : cfg_.load_port_ns;
  if (t.sink.owner == who.host) return cfg_.local_mem_ns;
  if (!hosts_[t.sink.owner].port_up) {
    return Status(Errc::unavailable, "CXL port down on device host");
  }
  return cfg_.mmio_ns;
}

sim::Duration PoolFabric::serialization_ns(std::uint64_t bytes) const {
  if (bytes == 0) return 0;
  return static_cast<sim::Duration>(static_cast<double>(bytes) / cfg_.link_bytes_per_ns);
}

sim::Duration PoolFabric::dsa_ns(std::uint64_t bytes) const {
  return cfg_.dsa_setup_ns +
         static_cast<sim::Duration>(static_cast<double>(bytes) / cfg_.dsa_bytes_per_ns);
}

fabric::Substrate::PostedCost PoolFabric::posted_cost(Path path, std::uint64_t bytes,
                                                      bool scatter) const {
  // Bulk scatter transfers ride the pool DSA: fixed descriptor cost plus
  // streaming bandwidth instead of per-store port latency.
  const sim::Duration ser = serialization_ns(bytes);
  const sim::Duration move =
      scatter && bytes >= cfg_.dsa_threshold ? dsa_ns(bytes) : path.ns + ser;
  return {move + cfg_.pool_access_ns, ser};
}

fabric::Substrate::ReadCost PoolFabric::read_cost(Path path, std::uint64_t bytes,
                                                  bool scatter) const {
  if (scatter && bytes >= cfg_.dsa_threshold) {
    const sim::Duration request = cfg_.dsa_setup_ns + cfg_.pool_access_ns;
    return {request, dsa_ns(bytes) + cfg_.pool_access_ns - request};
  }
  const sim::Duration request = path.ns + cfg_.pool_access_ns;
  return {request,
          2 * path.ns + cfg_.pool_access_ns + serialization_ns(bytes) - request};
}

Status PoolFabric::set_host_link(HostId host, bool up) {
  if (host >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
  hosts_[host].port_up = up;
  return Status::ok();
}

sim::Duration PoolFabric::copy_cost_ns(HostId owner, std::uint64_t bytes) const {
  if (owner != pool_space() || bytes == 0) return 0;
  if (bytes >= cfg_.dsa_threshold) return dsa_ns(bytes);
  return cfg_.store_port_ns + serialization_ns(bytes);
}

}  // namespace nvmeshare::cxl
