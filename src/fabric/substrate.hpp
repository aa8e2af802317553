// The substrate-neutral interconnect interface.
//
// Everything the stack above (sisci segments, smartio windows, the NVMe
// driver, NVMe-oF, the filesystem) needs from an interconnect is captured
// here: a host/DRAM registry, endpoint attachment with BAR addressing,
// timed posted writes and non-posted reads (scalar and scatter-gather),
// address-window mapping for CPU access and device DMA, a segment-placement
// policy, and setup-only peek/poke backdoors.
//
// Two substrates implement it:
//  * pcie::Fabric — the paper's PCIe cluster with NTB LUT windows,
//  * cxl::PoolFabric — a CXL 3.x pooled-memory model (shared pool with
//    load/store port latency and DSA bulk copies, no NTB hop chain).
//
// Timing semantics every substrate must honor:
//  * post_write() is posted: it returns the *arrival* time synchronously
//    and applies the payload at that simulated time. Posted writes issued
//    in order on the same path arrive in order.
//  * read()/read_sg() are non-posted: the returned future resolves after a
//    full round trip.
//  * poll_read() is the sanctioned zero-cost CQ-polling access; it only
//    works on memory for which cpu_pollable() holds (or through an
//    established CPU window).
//  * peek()/poke() are zero-latency backdoors for bring-up and test
//    assertions only. After seal_backdoors(), cross-host backdoor use is a
//    contract violation: debug builds fail the access with
//    `permission_denied` and count it in stats().backdoor_violations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "mem/phys_mem.hpp"
#include "obs/metrics.hpp"
#include "fabric/types.hpp"
#include "sim/task.hpp"

namespace nvmeshare::fabric {

class Endpoint;
class Substrate;

/// What a mapped window is for; substrates may place CPU maps and device
/// DMA windows through different resources (NTB LUT entries vs direct
/// pool/MMIO addressing).
enum class MapIntent : std::uint8_t {
  cpu,  ///< a host CPU wants load/store access to remote memory
  dma,  ///< a device wants to DMA into/out of the range
};

/// A live address-window mapping, released on destruction (RAII). A window
/// with token 0 is *direct*: the substrate reaches the range natively and
/// no resources are held.
class Window {
 public:
  Window() = default;
  Window(Window&& other) noexcept { *this = std::move(other); }
  Window& operator=(Window&& other) noexcept;
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;
  ~Window() { release(); }

  /// Address of the mapped range in the viewer's address space.
  [[nodiscard]] std::uint64_t addr() const noexcept { return addr_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool valid() const noexcept { return sub_ != nullptr; }

  void release();

 private:
  friend class Substrate;
  Substrate* sub_ = nullptr;
  std::uint64_t token_ = 0;  // 0 = direct mapping, nothing to release
  std::uint64_t addr_ = 0;
  std::uint64_t size_ = 0;
};

/// Substrate-wide counters, registered as `nvmeshare.fabric.*`.
struct Stats {
  Stats();
  obs::Counter posted_writes;
  obs::Counter reads;
  obs::Counter bytes_written;
  obs::Counter bytes_read;
  obs::Counter unsupported_requests;  ///< accesses that resolved nowhere
  obs::Counter ntb_translations;      ///< stays 0 on substrates without NTBs
  obs::Counter backdoor_violations;   ///< sealed cross-host peek/poke attempts
};

class Substrate {
 public:
  /// Base of the MMIO window (BARs, NTB apertures) in every host's space;
  /// DRAM occupies [0, dram_size) below it.
  static constexpr std::uint64_t kMmioBase = 0x40'0000'0000ULL;  // 256 GiB
  static constexpr std::uint64_t kMmioSize = 0x40'0000'0000ULL;

  explicit Substrate(sim::Engine& engine) noexcept : engine_(engine) {}
  virtual ~Substrate() = default;

  Substrate(const Substrate&) = delete;
  Substrate& operator=(const Substrate&) = delete;

  [[nodiscard]] virtual SubstrateKind kind() const noexcept = 0;
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

  // --- host / space registry -------------------------------------------------

  [[nodiscard]] virtual std::size_t host_count() const noexcept = 0;
  /// Number of segment-owning address spaces. Equals host_count() unless
  /// the substrate adds shared spaces (the CXL pool is space host_count()).
  [[nodiscard]] virtual std::size_t space_count() const noexcept { return host_count(); }
  [[nodiscard]] virtual const std::string& host_name(HostId h) const = 0;
  /// Backing memory of a space; valid for ids in [0, space_count()).
  [[nodiscard]] virtual mem::PhysMem& host_dram(HostId h) = 0;
  /// The CPU of host `h` as a transaction initiator.
  [[nodiscard]] virtual Initiator cpu(HostId h) const = 0;

  // --- endpoints -------------------------------------------------------------

  /// Attach a device function in `host`; assigns BAR addresses. Substrates
  /// with an internal chip graph may offer richer attachment APIs.
  virtual Result<EndpointId> attach(Endpoint& ep, HostId host) = 0;
  [[nodiscard]] virtual Result<std::uint64_t> bar_address(EndpointId ep, int bar) const = 0;
  [[nodiscard]] virtual Endpoint* endpoint(EndpointId ep) const = 0;
  /// Host the endpoint is physically installed in.
  [[nodiscard]] virtual HostId endpoint_host(EndpointId ep) const = 0;

  // --- windows and placement -------------------------------------------------

  /// Make [addr, addr+size) of space `owner` reachable from host `viewer`
  /// (for its CPU or for a device installed there, per `intent`). The
  /// returned window's addr() is in `viewer`'s address space.
  virtual Result<Window> map_window(MapIntent intent, HostId viewer, HostId owner,
                                    std::uint64_t addr, std::uint64_t size) = 0;

  /// Placement policy for a shared segment: which space should back a
  /// segment requested by `requester` for a device in `device_host`, given
  /// which sides access it. NTB places by access pattern (keep the reader
  /// local); CXL places shared state in the pool.
  [[nodiscard]] virtual HostId place_segment(HostId requester, HostId device_host,
                                             bool cpu_access, bool device_access) const = 0;

  // --- timed transactions ----------------------------------------------------

  /// Posted memory write. Returns the arrival (apply) time; the payload is
  /// copied out of `data` during the call and becomes visible at the target
  /// exactly at arrival. `not_before` lets a caller serialize after an
  /// earlier posted write on the same path (e.g. an NVMe completion entry
  /// after its data).
  virtual Result<sim::Time> post_write(const Initiator& who, std::uint64_t addr,
                                       ConstByteSpan data, sim::Time not_before = 0) = 0;

  /// Posted scatter write of one buffer across multiple target ranges
  /// (device DMA of a data block through PRP pages). One aggregate
  /// serialization cost; returns arrival time of the *last* byte.
  virtual Result<sim::Time> write_sg(const Initiator& who, std::span<const SgEntry> sg,
                                     ConstByteSpan data, sim::Time not_before = 0) = 0;

  /// Non-posted read; future resolves after the full round trip. The
  /// buffer comes from the payload pool; a caller on a hot path hands it
  /// back with recycle_payload() once done with it.
  virtual sim::Future<Result<Bytes>> read(const Initiator& who, std::uint64_t addr,
                                          std::size_t len) = 0;

  /// Non-posted gather read across multiple ranges (device DMA fetch);
  /// the buffer comes from the payload pool, as with read().
  virtual sim::Future<Result<Bytes>> read_sg(const Initiator& who,
                                             std::span<const SgEntry> sg) = 0;

  /// Recycled byte buffers for data in flight: posted-write payloads, read
  /// results, and device staging buffers. A warm pool hands out buffers
  /// without allocating; the contents of a taken buffer are unspecified.
  [[nodiscard]] Bytes take_payload(std::size_t n);
  void recycle_payload(Bytes&& b);

  /// Zero-cost synchronous read for CQ phase polling. Unlike peek() this is
  /// a sanctioned data-path access: the polled ring must be local, in a
  /// shared pool, or behind an established CPU window.
  virtual Status poll_read(HostId viewer, std::uint64_t addr, ByteSpan out) = 0;

  /// True if `viewer`'s CPU can poll memory owned by space `owner` without
  /// per-access fabric round trips.
  [[nodiscard]] virtual bool cpu_pollable(HostId viewer, HostId owner) const = 0;

  /// Extra simulated cost a CPU pays to stage `bytes` into/out of space
  /// `owner` (bounce-buffer copies). 0 when the space is plain local DRAM.
  [[nodiscard]] virtual sim::Duration copy_cost_ns(HostId owner,
                                                   std::uint64_t bytes) const {
    (void)owner;
    (void)bytes;
    return 0;
  }

  // --- write watches ---------------------------------------------------------

  /// Notify `timer` after every write into [addr, addr+len) of `viewer`'s
  /// address space, whichever path makes it: posted and scatter writes,
  /// torn or bit-flipped writes under fault injection, poke(), and direct
  /// stores into the backing PhysMem. The range must resolve to memory
  /// (host DRAM or a shared pool), not to a device BAR.
  [[nodiscard]] Result<mem::WriteWatch> watch_writes(HostId viewer, std::uint64_t addr,
                                                     std::uint64_t len, sim::PollTimer& timer);

  // --- fault control ---------------------------------------------------------

  /// Administratively fail (or restore) `host`'s uplink into the shared
  /// interconnect: the NTB adapter cable on PCIe, the CXL port on a pool.
  virtual Status set_host_link(HostId host, bool up) = 0;

  // --- backdoors -------------------------------------------------------------

  /// Zero-latency backdoor access (setup / assertions only); guarded after
  /// seal_backdoors() — see the file comment.
  Status poke(HostId host, std::uint64_t addr, ConstByteSpan data);
  Status peek(HostId host, std::uint64_t addr, ByteSpan out);

  /// Declare bring-up complete: from now on cross-host peek/poke is a bug.
  void seal_backdoors() noexcept { sealed_ = true; }
  void unseal_backdoors() noexcept { sealed_ = false; }
  [[nodiscard]] bool backdoors_sealed() const noexcept { return sealed_; }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 protected:
  virtual Status do_peek(HostId host, std::uint64_t addr, ByteSpan out) = 0;
  virtual Status do_poke(HostId host, std::uint64_t addr, ConstByteSpan data) = 0;
  /// Would a backdoor access of [addr, addr+len) from `viewer` cross into
  /// another host's space? (Shared pool spaces do not count as crossing.)
  [[nodiscard]] virtual bool backdoor_crosses_host(HostId viewer, std::uint64_t addr,
                                                   std::uint64_t len) const = 0;
  /// Release resources behind a non-direct window token.
  virtual void unmap_window(std::uint64_t token) = 0;

  /// The memory behind [addr, addr+len) of `viewer`'s space, and the
  /// address of the range in it.
  struct MemoryRef {
    mem::PhysMem* mem = nullptr;
    std::uint64_t addr = 0;
  };
  [[nodiscard]] virtual Result<MemoryRef> resolve_memory(HostId viewer, std::uint64_t addr,
                                                         std::uint64_t len) = 0;

  [[nodiscard]] Window make_window(std::uint64_t token, std::uint64_t addr,
                                   std::uint64_t size) noexcept;

  /// Guard check shared by peek/poke; returns non-ok when the access must
  /// be rejected.
  Status check_backdoor(HostId host, std::uint64_t addr, std::uint64_t len,
                        const char* what);

  sim::Engine& engine_;
  Stats stats_;
  bool sealed_ = false;

 private:
  friend class Window;
  std::vector<Bytes> payload_pool_;
};

}  // namespace nvmeshare::fabric
