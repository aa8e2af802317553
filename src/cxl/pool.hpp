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
#include "sim/task.hpp"

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
  [[nodiscard]] Result<std::uint64_t> bar_address(EndpointId ep, int bar) const override;
  [[nodiscard]] fabric::Endpoint* endpoint(EndpointId ep) const override;
  [[nodiscard]] HostId endpoint_host(EndpointId ep) const override;

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

  Result<sim::Time> post_write(const Initiator& who, std::uint64_t addr, ConstByteSpan data,
                               sim::Time not_before = 0) override;
  Result<sim::Time> write_sg(const Initiator& who, std::span<const SgEntry> sg, Bytes data,
                             sim::Time not_before = 0) override;
  sim::Future<Result<Bytes>> read(const Initiator& who, std::uint64_t addr,
                                  std::size_t len) override;
  sim::Future<Result<Bytes>> read_sg(const Initiator& who,
                                     std::span<const SgEntry> sg) override;
  Status poll_read(HostId viewer, std::uint64_t addr, ByteSpan out) override;

  /// Fail (or restore) `host`'s CXL port: while down the host cannot reach
  /// the pool or peer MMIO, and nobody reaches its devices.
  Status set_host_link(HostId host, bool up) override;

 protected:
  Status do_poke(HostId host, std::uint64_t addr, ConstByteSpan data) override;
  [[nodiscard]] Result<MemoryRef> resolve_memory(HostId viewer, std::uint64_t addr,
                                                 std::uint64_t len) override;
  Status do_peek(HostId host, std::uint64_t addr, ByteSpan out) override;
  [[nodiscard]] bool backdoor_crosses_host(HostId viewer, std::uint64_t addr,
                                           std::uint64_t len) const override;
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

  struct EndpointState {
    fabric::Endpoint* ep = nullptr;
    HostId host = fabric::kNoHost;
    std::vector<std::uint64_t> bar_bases;
  };

  struct Resolved {
    enum class Kind { dram, pool, bar } kind = Kind::dram;
    HostId host = fabric::kNoHost;  ///< owning host (dram/bar) — pool has none
    std::uint64_t addr = 0;         ///< offset in the backing memory (dram/pool)
    EndpointId ep = 0;
    int bar = 0;
    std::uint64_t bar_offset = 0;
  };

  [[nodiscard]] Result<Resolved> resolve(HostId viewer, std::uint64_t addr,
                                         std::uint64_t len) const;
  /// Port check for a resolved target seen from `viewer`.
  [[nodiscard]] Status check_reachable(HostId viewer, const Resolved& t) const;
  Status apply_write(const Resolved& t, ConstByteSpan data);
  Status apply_read_into(const Resolved& t, ByteSpan out);

  /// One-way initiator-side latency to a target.
  [[nodiscard]] sim::Duration one_way_ns(HostId viewer, const Resolved& t,
                                         bool is_store) const;
  [[nodiscard]] sim::Duration serialization_ns(std::uint64_t bytes) const;
  /// Floor key: posted ordering is kept per (initiating agent, target
  /// resource) — the pool, a host's DRAM, or a device function. The agent
  /// is the full Initiator (host + entry chip): a host CPU and a device DMA
  /// engine in the same host are independent store streams and must not
  /// serialize behind each other's backlog.
  [[nodiscard]] std::uint64_t floor_key(const Resolved& t) const;
  [[nodiscard]] static std::uint64_t initiator_id(const Initiator& who) noexcept {
    return (static_cast<std::uint64_t>(who.host) << 32) | who.chip;
  }
  sim::Time posted_arrival(std::uint64_t initiator, std::uint64_t key,
                           sim::Duration latency, sim::Duration gap, sim::Time not_before);
  /// Fault-injection host id for a target (the pool reports the initiator —
  /// pool loss is indistinguishable from losing your own port).
  [[nodiscard]] HostId fault_host(HostId viewer, const Resolved& t) const;

  /// A scatter-gather transaction's resolved chunks; recycled through
  /// sg_pool_ so a warm substrate resolves scatter lists without allocating.
  struct SgOp {
    std::vector<Resolved> targets;
    std::vector<std::uint32_t> lens;
    std::vector<std::uint64_t> keys;  ///< distinct floor keys (write_sg)
    std::uint64_t total = 0;
    sim::Duration worst_one_way = 0;
  };
  std::unique_ptr<SgOp> take_sg_op();
  void recycle_sg_op(std::unique_ptr<SgOp> op);
  /// Resolve and port-check each chunk of `sg` into `op`. A chunk that
  /// resolves nowhere counts as an unsupported request.
  Status resolve_sg(HostId viewer, std::span<const SgEntry> sg, bool is_store, SgOp& op);

  PoolConfig cfg_;
  std::vector<HostState> hosts_;
  mem::PhysMem pool_;
  mem::RangeAllocator mmio_;  // one global MMIO space, CXL.io p2p reachable
  std::map<std::uint64_t, BarRegion> bars_;
  std::vector<EndpointState> endpoints_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, sim::Time> posted_floor_;
  std::vector<std::unique_ptr<SgOp>> sg_pool_;
};

}  // namespace nvmeshare::cxl
