#include "pcie/fabric.hpp"

#include <algorithm>
#include <bit>

#include "common/units.hpp"

namespace nvmeshare::pcie {

namespace {
constexpr int kMaxNtbDepth = 4;  // forwarding loops are configuration bugs
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
  add_region(*host, Region{Region::Kind::dram, 0, dram_size, 0, 0, 0});
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

Result<EndpointId> Fabric::attach_endpoint(fabric::Endpoint& ep, HostId host, ChipId chip) {
  if (host >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
  if (chip >= topo_.chip_count()) return Status(Errc::invalid_argument, "bad chip id");
  return add_endpoint(ep, host, chip, *hosts_[host]->mmio);
}

void Fabric::map_bar(HostId host, EndpointId ep, int bar, std::uint64_t base,
                     std::uint64_t size) {
  add_region(*hosts_[host], Region{Region::Kind::bar, base, size, ep, bar, 0});
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
  add_region(hs, Region{Region::Kind::ntb, *base, aperture, 0, 0, id});
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

void Fabric::add_region(HostState& host, const Region& r) {
  auto it = std::lower_bound(host.regions.begin(), host.regions.end(), r.base,
                             [](const Region& x, std::uint64_t base) { return x.base < base; });
  if (it == host.regions.end() || it->base != r.base) host.regions.insert(it, r);
}

const Fabric::Region* Fabric::find_region(HostId host, std::uint64_t addr,
                                          std::uint64_t len) const {
  const auto& regions = hosts_[host]->regions;
  auto it = std::upper_bound(regions.begin(), regions.end(), addr,
                             [](std::uint64_t a, const Region& x) { return a < x.base; });
  if (it == regions.begin()) return nullptr;
  --it;
  const Region& r = *it;
  if (addr < r.base || addr + len > r.base + r.len) return nullptr;
  return &r;
}

Result<Fabric::Resolved> Fabric::resolve(HostId host, std::uint64_t addr,
                                         std::uint64_t len) const {
  // Each NTB window forwards to the host its LUT entry names. The span ends
  // no later than the end of any window crossed: the next LUT entry may
  // forward elsewhere.
  std::uint64_t span = ~std::uint64_t{0};
  for (int crossings = 0;; ++crossings) {
    if (host >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
    if (crossings > kMaxNtbDepth) {
      return Status(Errc::protocol_error, "NTB forwarding loop (depth > 4)");
    }
    const Region* r = find_region(host, addr, len == 0 ? 1 : len);
    if (r == nullptr) {
      return Status(Errc::unmapped_address,
                    "no region for address in host '" + hosts_[host]->name + "'");
    }
    if (r->kind == Region::Kind::ntb) {
      const NtbState& ntb = ntbs_[r->ntb];
      const std::uint64_t off = addr - r->base;
      const std::uint64_t within = off & (ntb.window_size - 1);  // window sizes are powers of 2
      if (within + len > ntb.window_size) {
        return Status(Errc::out_of_range, "access crosses NTB window boundary");
      }
      const auto& lut = ntb.lut[off >> std::countr_zero(ntb.window_size)];
      if (!lut.valid) {
        return Status(Errc::unmapped_address, "NTB LUT entry not programmed");
      }
      span = std::min(span, ntb.window_size - within);
      host = lut.remote_host;
      addr = lut.remote_base + within;
      continue;
    }
    Resolved out;
    out.host = host;
    out.ntb_crossings = crossings;
    out.span = std::min(span, r->base + r->len - addr);
    if (r->kind == Region::Kind::dram) {
      out.kind = Resolved::Kind::dram;
      out.addr = addr;
      out.target_chip = hosts_[host]->rc;
    } else {
      out.kind = Resolved::Kind::bar;
      out.ep = r->ep;
      out.bar = r->bar;
      out.bar_offset = addr - r->base;
      out.target_chip = endpoints_[r->ep].at.chip;
    }
    return out;
  }
}

Result<fabric::Substrate::Target> Fabric::route(HostId viewer, std::uint64_t addr,
                                                std::uint64_t len) {
  auto r = resolve(viewer, addr, len);
  if (!r) return r.status();
  Target t;
  if (r->kind == Resolved::Kind::dram) {
    t.sink.mem = hosts_[r->host]->dram.get();
    t.sink.addr = r->addr;
  } else {
    t.sink.ep = endpoints_[r->ep].ep;
    t.sink.bar = r->bar;
    t.sink.addr = r->bar_offset;
  }
  t.sink.owner = r->host;
  t.order_key = r->target_chip;  // posted writes are ordered per completer chip
  t.completer = r->target_chip;
  t.ntb_crossings = r->ntb_crossings;
  t.span = r->span;
  return t;
}

// --- cost ---------------------------------------------------------------------------

Result<sim::Duration> Fabric::path_ns(const Initiator& who, const Target& t,
                                      bool is_store) const {
  (void)is_store;  // PCIe paths cost the same both ways
  if (who.chip >= topo_.chip_count()) {
    return Status(Errc::invalid_argument, "initiator chip invalid");
  }
  const Topology::PathCost pc = topo_.path_cost(who.chip, static_cast<ChipId>(t.completer));
  if (!pc.reachable) return Status(Errc::unavailable, "no fabric path to target");
  return pc.cost_ns;
}

fabric::Substrate::PostedCost Fabric::posted_cost(Path path, std::uint64_t bytes,
                                                  bool scatter) const {
  (void)scatter;  // a scatter list pays one aggregate TLP stream
  // Wire occupancy (serialization + TLP overhead) is both part of the
  // delivery latency and the pipelining gap.
  const sim::Duration wire =
      model_.serialization_ns(bytes) +
      static_cast<sim::Duration>(model_.tlp_count(bytes)) * model_.tlp_overhead_ns;
  return {model_.posted_write_ns(path.ns, path.ntb_crossings, bytes), wire};
}

fabric::Substrate::ReadCost Fabric::read_cost(Path path, std::uint64_t bytes,
                                              bool scatter) const {
  (void)scatter;
  const sim::Duration request =
      model_.one_way_ns(path.ns, path.ntb_crossings) + model_.completer_access_ns;
  return {request, model_.read_ns(path.ns, path.ntb_crossings, bytes) - request};
}

}  // namespace nvmeshare::pcie
