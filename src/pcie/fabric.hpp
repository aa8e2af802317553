// The PCIe cluster fabric: per-host address spaces, BAR enumeration, NTB
// look-up-table windows, and timed memory transactions that actually move
// bytes. This is the NTB substrate behind the neutral fabric::Substrate
// interface (see fabric/substrate.hpp); consumers above sisci should code
// against the interface, not this class.
//
// Timing semantics (matching PCIe ordering rules):
//  * post_write() is a posted transaction: it returns the *arrival* time
//    synchronously and applies the payload at that simulated time. Posted
//    writes issued in order on the same path arrive in order.
//  * read()/read_sg() are non-posted: the returned future resolves after a
//    full round trip (request + completion TLPs).
//  * peek()/poke() are zero-latency backdoors for setup and assertions;
//    production-path code must not use them across the fabric — enforced
//    in debug builds once seal_backdoors() is called.
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
#include "pcie/endpoint.hpp"
#include "pcie/latency.hpp"
#include "pcie/topology.hpp"
#include "pcie/types.hpp"
#include "sim/task.hpp"

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
  Result<EndpointId> attach_endpoint(Endpoint& ep, HostId host, ChipId chip);
  /// Substrate-neutral attach: below the host's root complex.
  Result<EndpointId> attach(Endpoint& ep, HostId host) override {
    if (host >= hosts_.size()) return Status(Errc::invalid_argument, "bad host id");
    return attach_endpoint(ep, host, hosts_[host]->rc);
  }

  [[nodiscard]] Result<std::uint64_t> bar_address(EndpointId ep, int bar) const override;
  [[nodiscard]] Endpoint* endpoint(EndpointId ep) const override;
  /// Host the endpoint is physically installed in.
  [[nodiscard]] HostId endpoint_host(EndpointId ep) const override;
  [[nodiscard]] ChipId endpoint_chip(EndpointId ep) const;

  // --- NTB ------------------------------------------------------------------

  /// Install an NTB adapter in `host` with `windows` LUT entries of
  /// `window_size` bytes each; the adapter chip is linked to the host's
  /// root complex. Link its chip to a cluster switch with link_chips().
  Result<NtbId> add_ntb(HostId host, std::uint32_t windows, std::uint64_t window_size);

  [[nodiscard]] ChipId ntb_chip(NtbId ntb) const { return ntbs_.at(ntb).chip; }
  [[nodiscard]] HostId ntb_host(NtbId ntb) const { return ntbs_.at(ntb).host; }
  [[nodiscard]] std::uint32_t ntb_window_count(NtbId ntb) const {
    return static_cast<std::uint32_t>(ntbs_.at(ntb).lut.size());
  }
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
  };

  /// Resolve an address in `host`'s space, following NTB windows. The whole
  /// [addr, addr+len) range must fall within a single region.
  [[nodiscard]] Result<Resolved> resolve(HostId host, std::uint64_t addr,
                                         std::uint64_t len) const;

  // --- transactions ------------------------------------------------------------

  Result<sim::Time> post_write(const Initiator& who, std::uint64_t addr, ConstByteSpan data,
                               sim::Time not_before = 0) override;

  Result<sim::Time> write_sg(const Initiator& who, std::span<const SgEntry> sg,
                             ConstByteSpan data, sim::Time not_before = 0) override;

  sim::Future<Result<Bytes>> read(const Initiator& who, std::uint64_t addr,
                                  std::size_t len) override;

  sim::Future<Result<Bytes>> read_sg(const Initiator& who,
                                     std::span<const SgEntry> sg) override;

  /// Zero-cost CQ poll; resolves NTB windows (a taken-over manager polls
  /// the adopted CQ through its map), charging nothing — the paper's CPUs
  /// poll rings they can load from.
  Status poll_read(HostId viewer, std::uint64_t addr, ByteSpan out) override;

  using Stats = fabric::Stats;

 protected:
  Status do_poke(HostId host, std::uint64_t addr, ConstByteSpan data) override;
  Status do_peek(HostId host, std::uint64_t addr, ByteSpan out) override;
  [[nodiscard]] bool backdoor_crosses_host(HostId viewer, std::uint64_t addr,
                                           std::uint64_t len) const override;
  void unmap_window(std::uint64_t token) override;
  [[nodiscard]] Result<MemoryRef> resolve_memory(HostId viewer, std::uint64_t addr,
                                                 std::uint64_t len) override;

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
    std::map<std::uint64_t, Region> regions;  // keyed by base
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

  struct EndpointState {
    Endpoint* ep = nullptr;
    HostId host = kNoHost;
    ChipId chip = kNoChip;
    std::vector<std::uint64_t> bar_bases;
  };

  /// A LUT run held by a fabric::Window.
  struct MapRec {
    NtbId ntb = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  [[nodiscard]] const Region* find_region(HostId host, std::uint64_t addr,
                                          std::uint64_t len) const;
  Result<Resolved> resolve_impl(HostId host, std::uint64_t addr, std::uint64_t len,
                                int depth, int crossings) const;
  /// One-way chip-path cost from initiator to the resolved target.
  [[nodiscard]] Result<Topology::PathCost> path_to(const Initiator& who,
                                                   const Resolved& target) const;

  /// One scatter-gather DMA in flight: every chunk's resolved target and
  /// length, kept from submission to delivery. Records are recycled, so a warm
  /// fabric resolves scatter lists without allocating.
  struct SgOp {
    std::vector<Resolved> targets;
    std::vector<std::uint32_t> lens;
    std::vector<ChipId> chips;  ///< distinct completer chips (write_sg)
    std::uint64_t total = 0;
    sim::Duration worst_path = 0;
    int worst_crossings = 0;
  };
  std::unique_ptr<SgOp> take_sg_op();
  void recycle_sg_op(std::unique_ptr<SgOp> op);
  /// Resolve each chunk of `sg` into `op` (targets, lengths, byte total,
  /// worst path and NTB crossings), counting translations chunk by chunk.
  Status resolve_sg(const Initiator& who, std::span<const SgEntry> sg, SgOp& op);
  Status apply_write(const Resolved& target, ConstByteSpan data);
  /// Read straight into the caller's span — no temporary for DRAM targets.
  Status apply_read_into(const Resolved& target, ByteSpan out);

  /// PCIe ordering: posted writes from one initiator to one completer may
  /// not pass each other, but they pipeline — a later write lands one
  /// serialization gap after its predecessor, not one full path latency.
  /// `gap` is the wire occupancy (serialization + TLP overhead), computed
  /// once by the caller and shared with the latency calculation.
  sim::Time posted_arrival(const Initiator& who, ChipId target_chip, sim::Duration latency,
                           sim::Duration gap, sim::Time not_before);

  LatencyModel model_;
  Topology topo_;
  std::vector<std::unique_ptr<HostState>> hosts_;
  std::vector<NtbState> ntbs_;
  std::vector<EndpointState> endpoints_;
  std::map<std::pair<ChipId, ChipId>, sim::Time> posted_floor_;
  std::vector<std::unique_ptr<SgOp>> sg_pool_;
  std::map<std::uint64_t, MapRec> windows_;
  std::uint64_t next_window_token_ = 1;
};

}  // namespace nvmeshare::pcie
