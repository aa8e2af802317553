// CXL pooled-memory substrate: the alternative interconnect of ROADMAP
// item 3 ("My CXL Pool Obviates Your PCIe Switch", LMB — see PAPERS.md).
//
// Topology: every host keeps its private DRAM; a shared memory pool hangs
// off a CXL 3.x switch and is mapped *identically* into every host's
// address space at kPoolBase (HDM). Devices reach the pool the same way
// (CXL.mem), and host CPUs reach device BARs on other hosts through
// CXL.io peer-to-peer MMIO. There is no NTB hop chain and no LUT state:
// windows onto the pool and onto MMIO are direct addressing, so
// map_window() holds no resources. What a host *cannot* do is reach
// another host's private DRAM — shared state (queues, mailbox, metadata,
// bounce buffers) must live in the pool, which is exactly what
// place_segment() arranges.
//
// Latency terms (vs the NTB substrate's per-chip traversal + TLP model):
//  * load/store port latency per access to the pool (CXL.mem flits),
//  * serialization bounded by link bandwidth,
//  * bulk scatter/gather transfers above dsa_threshold ride the pool-side
//    DSA engine: one descriptor setup, then streaming bandwidth,
//  * peer MMIO (doorbells) pays the CXL.io p2p cost,
//  * no per-TLP arithmetic and no NTB translation entries.
// Those terms, the address ranges above and the CXL port state are all this
// class supplies; fabric::Substrate runs the transactions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "fabric/endpoint.hpp"
#include "fabric/substrate.hpp"
#include "mem/allocator.hpp"
#include "mem/phys_mem.hpp"

namespace nvmeshare::cxl {

using fabric::EndpointId;
using fabric::HostId;
using fabric::Initiator;
using fabric::SgEntry;

struct PoolConfig {
  /// Capacity of the shared pool (sparse; pages materialize on write).
  std::uint64_t pool_size = 4ULL << 30;
  /// CPU/device access to its own host's DRAM (one way).
  sim::Duration local_mem_ns = 100;
  /// One-way port + switch traversal for a pool *load* (CXL.mem read).
  sim::Duration load_port_ns = 170;
  /// One-way cost of a posted store into the pool.
  sim::Duration store_port_ns = 110;
  /// Media access at the pool device (completer side).
  sim::Duration pool_access_ns = 90;
  /// CXL.io peer-to-peer MMIO traversal (cross-host doorbells, BARs).
  sim::Duration mmio_ns = 380;
  /// Descriptor submit + completion overhead of a pool-DSA bulk copy.
  sim::Duration dsa_setup_ns = 650;
  /// Streaming bandwidth of the pool-side DSA engine.
  double dsa_bytes_per_ns = 30.0;
  /// Effective payload bandwidth of a host's CXL link.
  double link_bytes_per_ns = 26.0;
  /// Scatter/gather transfers of at least this many bytes use the DSA.
  std::uint64_t dsa_threshold = 4096;
};

class PoolFabric final : public fabric::Substrate {
 public:
  /// Base of the pool HDM window in every host's address space; private
  /// DRAM occupies [0, dram_size), MMIO sits at kMmioBase as on PCIe.
  static constexpr std::uint64_t kPoolBase = 0x80'0000'0000ULL;  // 512 GiB

  explicit PoolFabric(sim::Engine& engine, PoolConfig cfg = {});

  [[nodiscard]] fabric::SubstrateKind kind() const noexcept override {
    return fabric::SubstrateKind::cxl;
  }
  [[nodiscard]] const PoolConfig& config() const noexcept { return cfg_; }

  /// Add a host with `dram_size` bytes of private RAM.
  HostId add_host(std::string name, std::uint64_t dram_size);

  [[nodiscard]] std::size_t host_count() const noexcept override { return hosts_.size(); }
  /// Hosts plus the pool: the pool is segment-owning space host_count().
  [[nodiscard]] std::size_t space_count() const noexcept override {
    return hosts_.size() + 1;
  }
  [[nodiscard]] HostId pool_space() const noexcept {
    return static_cast<HostId>(hosts_.size());
  }
  [[nodiscard]] const std::string& host_name(HostId h) const override;
  [[nodiscard]] mem::PhysMem& host_dram(HostId h) override;
  [[nodiscard]] Initiator cpu(HostId h) const override { return Initiator{h, h}; }

  Result<EndpointId> attach(fabric::Endpoint& ep, HostId host) override;

  /// Pool and MMIO ranges are directly addressable — windows are free and
  /// hold nothing. Remote *private* DRAM is unreachable by design.
  Result<fabric::Window> map_window(fabric::MapIntent intent, HostId viewer, HostId owner,
                                    std::uint64_t addr, std::uint64_t size) override;

  /// Shared segments live in the pool: that is the substrate's whole point.
  [[nodiscard]] HostId place_segment(HostId requester, HostId device_host, bool cpu_access,
                                     bool device_access) const override {
    (void)requester;
    (void)device_host;
    (void)cpu_access;
    (void)device_access;
    return pool_space();
  }

  [[nodiscard]] bool cpu_pollable(HostId viewer, HostId owner) const override {
    return viewer == owner || owner == pool_space();
  }

  /// Staging into the pool is not free like local-DRAM bounce buffers:
  /// small copies pay the store port, bulk copies the DSA.
  [[nodiscard]] sim::Duration copy_cost_ns(HostId owner,
                                           std::uint64_t bytes) const override;

  /// Fail (or restore) `host`'s CXL port: while down the host cannot reach
  /// the pool or peer MMIO, and nobody reaches its devices.
  Status set_host_link(HostId host, bool up) override;

 protected:
  [[nodiscard]] Result<Target> route(HostId viewer, std::uint64_t addr,
                                     std::uint64_t len) override;
  [[nodiscard]] Result<sim::Duration> path_ns(const Initiator& who, const Target& t,
                                              bool is_store) const override;
  [[nodiscard]] PostedCost posted_cost(Path path, std::uint64_t bytes,
                                       bool scatter) const override;
  [[nodiscard]] ReadCost read_cost(Path path, std::uint64_t bytes, bool scatter) const override;
  [[nodiscard]] sim::Duration error_completion_ns() const override {
    return 2 * cfg_.local_mem_ns;
  }
  void map_bar(HostId host, EndpointId ep, int bar, std::uint64_t base,
               std::uint64_t size) override;
  void unmap_window(std::uint64_t token) override { (void)token; }

 private:
  struct HostState {
    std::string name;
    std::unique_ptr<mem::PhysMem> dram;
    bool port_up = true;
  };

  struct BarRegion {
    std::uint64_t base = 0;
    std::uint64_t len = 0;
    EndpointId ep = 0;
    int bar = 0;
  };

  /// Order keys: posted ordering is kept per (initiating agent, target
  /// resource) — the pool, a host's DRAM, or a device function. A host CPU
  /// and a device DMA engine in the same host enter on distinct chips (see
  /// attach()), so they are independent store streams and do not serialize
  /// behind each other's backlog.
  static constexpr std::uint64_t kPoolKey = 0xffff'ffff'0000'0000ULL;
  static constexpr std::uint64_t kBarKey = 0x1'0000'0000ULL;

  [[nodiscard]] sim::Duration serialization_ns(std::uint64_t bytes) const;
  /// A pool-DSA bulk copy: descriptor setup plus streaming.
  [[nodiscard]] sim::Duration dsa_ns(std::uint64_t bytes) const;

  PoolConfig cfg_;
  std::vector<HostState> hosts_;
  mem::PhysMem pool_;
  mem::RangeAllocator mmio_;  // one global MMIO space, CXL.io p2p reachable
  std::map<std::uint64_t, BarRegion> bars_;
};

}  // namespace nvmeshare::cxl
