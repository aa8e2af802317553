// The PCIe cluster fabric: per-host address spaces, NTB look-up-table
// windows, and the chip-graph costs of PCIe transactions. This is the NTB
// substrate behind the neutral fabric::Substrate interface (see
// fabric/substrate.hpp), which runs the transactions themselves; consumers
// above sisci should code against the interface, not this class.
//
// What this substrate supplies:
//  * routing: each host's region map (DRAM, BARs, NTB apertures), with NTB
//    LUT windows followed to the host they forward to;
//  * reachability: a live chip path from the initiator to the completer;
//  * cost: per-chip traversal plus NTB translations, TLP overhead and link
//    serialization (LatencyModel), with posted writes ordered per
//    (initiator chip, completer chip).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "fabric/substrate.hpp"
#include "mem/allocator.hpp"
#include "mem/phys_mem.hpp"
#include "fabric/endpoint.hpp"
#include "pcie/latency.hpp"
#include "pcie/topology.hpp"
#include "pcie/types.hpp"

namespace nvmeshare::pcie {

using SgEntry = fabric::SgEntry;

class Fabric final : public fabric::Substrate {
 public:
  using fabric::Substrate::kMmioBase;
  using fabric::Substrate::kMmioSize;

  Fabric(sim::Engine& engine, LatencyModel model = {});

  [[nodiscard]] fabric::SubstrateKind kind() const noexcept override {
    return fabric::SubstrateKind::ntb;
  }
  [[nodiscard]] const LatencyModel& latency_model() const noexcept { return model_; }
  [[nodiscard]] Topology& topology() noexcept { return topo_; }

  // --- construction ---------------------------------------------------------

  /// Add a host with `dram_size` bytes of RAM; creates its root complex.
  HostId add_host(std::string name, std::uint64_t dram_size);

  [[nodiscard]] std::size_t host_count() const noexcept override { return hosts_.size(); }
  [[nodiscard]] const std::string& host_name(HostId h) const override {
    return hosts_.at(h)->name;
  }
  [[nodiscard]] ChipId host_rc(HostId h) const { return hosts_.at(h)->rc; }
  [[nodiscard]] mem::PhysMem& host_dram(HostId h) override { return *hosts_.at(h)->dram; }

  /// The CPU of host `h` as a transaction initiator.
  [[nodiscard]] Initiator cpu(HostId h) const override {
    return Initiator{h, hosts_.at(h)->rc};
  }

  /// Add a transparent switch chip below `host` (latency from the model).
  ChipId add_switch_chip(std::string name, HostId host);
  /// Add a shared cluster-switch chip (not owned by any host).
  ChipId add_cluster_switch(std::string name);
  /// Connect two chips.
  Status link_chips(ChipId a, ChipId b) { return topo_.link(a, b); }

  /// Attach a device function below `chip` on `host`; assigns BAR addresses.
  Result<EndpointId> attach_endpoint(fabric::Endpoint& ep, HostId host, ChipId chip);
  /// Substrate-neutral attach: below the host's root complex.
  Result<EndpointId> attach(fabric::Endpoint& ep, HostId host) override {
    if (host >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
    return attach_endpoint(ep, host, hosts_[host]->rc);
  }

  [[nodiscard]] ChipId endpoint_chip(EndpointId ep) const {
    return ep < endpoints_.size() ? endpoints_[ep].at.chip : kNoChip;
  }

  // --- NTB ------------------------------------------------------------------

  /// Install an NTB adapter in `host` with `windows` LUT entries of
  /// `window_size` bytes each; the adapter chip is linked to the host's
  /// root complex. Link its chip to a cluster switch with link_chips().
  Result<NtbId> add_ntb(HostId host, std::uint32_t windows, std::uint64_t window_size);

  [[nodiscard]] ChipId ntb_chip(NtbId ntb) const { return ntbs_.at(ntb).chip; }
  [[nodiscard]] std::uint64_t ntb_window_size(NtbId ntb) const {
    return ntbs_.at(ntb).window_size;
  }

  /// Program LUT entry `entry`: the window now forwards to
  /// [remote_base, remote_base + window_size) in `remote_host`'s space.
  Status ntb_program(NtbId ntb, std::uint32_t entry, HostId remote_host,
                     std::uint64_t remote_base);
  Status ntb_clear(NtbId ntb, std::uint32_t entry);
  /// Find an unprogrammed LUT entry.
  Result<std::uint32_t> ntb_alloc_entry(NtbId ntb);
  /// Find `count` consecutive unprogrammed LUT entries (first index).
  Result<std::uint32_t> ntb_alloc_run(NtbId ntb, std::uint32_t count);
  /// Local (this host's) address of LUT window `entry`.
  [[nodiscard]] Result<std::uint64_t> ntb_window_address(NtbId ntb, std::uint32_t entry) const;
  /// The NTB adapter of `host`, if one was installed.
  [[nodiscard]] Result<NtbId> host_ntb(HostId host) const;

  /// Cable-pull `host`'s NTB adapter: administratively fail (or restore)
  /// every fabric link incident to its NTB chip. While down, transactions
  /// needing the adapter fail with `unavailable`; peek/poke still work.
  Status set_ntb_link(HostId host, bool up);
  Status set_host_link(HostId host, bool up) override { return set_ntb_link(host, up); }

  // --- windows and placement ------------------------------------------------

  /// CPU maps and device DMA windows both ride NTB LUT runs; a window to
  /// the viewer's own space is direct (no LUT entries held).
  Result<fabric::Window> map_window(fabric::MapIntent intent, HostId viewer, HostId owner,
                                    std::uint64_t addr, std::uint64_t size) override;

  /// NTB placement: keep segments next to whoever reads them (the reader
  /// would otherwise pay non-posted round trips through the LUT).
  [[nodiscard]] HostId place_segment(HostId requester, HostId device_host, bool cpu_access,
                                     bool device_access) const override {
    if (device_access && !cpu_access) return device_host;
    return requester;
  }

  [[nodiscard]] bool cpu_pollable(HostId viewer, HostId owner) const override {
    return viewer == owner;
  }

  // --- address resolution ------------------------------------------------------

  struct Resolved {
    enum class Kind { dram, bar } kind = Kind::dram;
    HostId host = kNoHost;       ///< host whose space the access finally lands in
    std::uint64_t addr = 0;      ///< DRAM physical address (kind==dram)
    EndpointId ep = 0;           ///< target device (kind==bar)
    int bar = 0;
    std::uint64_t bar_offset = 0;
    ChipId target_chip = kNoChip;
    int ntb_crossings = 0;
    /// Bytes from `addr` that resolve alike: to the end of the final DRAM
    /// or BAR region, clipped at every NTB window boundary on the way.
    std::uint64_t span = 0;
  };

  /// Resolve an address in `host`'s space, following NTB windows. The whole
  /// [addr, addr+len) range must fall within a single region.
  [[nodiscard]] Result<Resolved> resolve(HostId host, std::uint64_t addr,
                                         std::uint64_t len) const;

  using Stats = fabric::Stats;

 protected:
  [[nodiscard]] Result<Target> route(HostId viewer, std::uint64_t addr,
                                     std::uint64_t len) override;
  [[nodiscard]] Result<sim::Duration> path_ns(const Initiator& who, const Target& t,
                                              bool is_store) const override;
  [[nodiscard]] PostedCost posted_cost(Path path, std::uint64_t bytes,
                                       bool scatter) const override;
  [[nodiscard]] ReadCost read_cost(Path path, std::uint64_t bytes, bool scatter) const override;
  [[nodiscard]] sim::Duration error_completion_ns() const override {
    return 2 * model_.tlp_overhead_ns;  // header TLPs of an unsupported-request round trip
  }
  void map_bar(HostId host, EndpointId ep, int bar, std::uint64_t base,
               std::uint64_t size) override;
  void unmap_window(std::uint64_t token) override;

 private:
  struct Region {
    enum class Kind { dram, bar, ntb } kind = Kind::dram;
    std::uint64_t base = 0;
    std::uint64_t len = 0;
    EndpointId ep = 0;
    int bar = 0;
    NtbId ntb = 0;
  };

  struct HostState {
    std::string name;
    ChipId rc = kNoChip;
    std::unique_ptr<mem::PhysMem> dram;
    std::unique_ptr<mem::RangeAllocator> mmio;
    std::vector<Region> regions;  ///< sorted by base; added only at set-up
  };

  struct NtbState {
    struct Lut {
      bool valid = false;
      HostId remote_host = kNoHost;
      std::uint64_t remote_base = 0;
    };
    HostId host = kNoHost;
    ChipId chip = kNoChip;
    std::uint64_t aperture_base = 0;
    std::uint64_t window_size = 0;
    std::vector<Lut> lut;
  };

  /// A LUT run held by a fabric::Window.
  struct MapRec {
    NtbId ntb = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  /// Insert `r` in base order; a region already at its base stays.
  static void add_region(HostState& host, const Region& r);
  [[nodiscard]] const Region* find_region(HostId host, std::uint64_t addr,
                                          std::uint64_t len) const;
  LatencyModel model_;
  Topology topo_;
  std::vector<std::unique_ptr<HostState>> hosts_;
  std::vector<NtbState> ntbs_;
  std::map<std::uint64_t, MapRec> windows_;
  std::uint64_t next_window_token_ = 1;
};

}  // namespace nvmeshare::pcie
