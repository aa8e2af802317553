// The substrate-neutral interconnect interface and its one transaction
// engine.
//
// Everything the stack above (sisci segments, smartio windows, the NVMe
// driver, NVMe-oF) needs from an interconnect is captured here: a
// host/DRAM registry, endpoint attachment with BAR addressing, timed posted
// writes and non-posted reads (one range or a scatter list), address-window
// mapping for CPU access and device DMA, a segment-placement policy, and
// setup-only peek/poke backdoors.
//
// Two substrates plug into it:
//  * pcie::Fabric — the paper's PCIe cluster with NTB LUT windows,
//  * cxl::PoolFabric — a CXL 3.x pooled-memory model (shared pool with
//    load/store port latency and DSA bulk copies, no NTB hop chain).
// A substrate supplies routing (route()), reachability and path cost
// (path_ns()) and its cost arithmetic (posted_cost(), read_cost(),
// error_completion_ns()). This class owns everything else once: posted
// ordering floors, scatter-gather records, fault damage, BAR assignment and
// the backdoor guard. Every timed transaction carries its bytes as a
// mem::Payload through one posted-write body and one read body; a
// one-range call is a one-entry scatter list priced as a single access.
//
// Timing semantics every substrate honors:
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

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "fault/fault.hpp"
#include "mem/allocator.hpp"
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
  [[nodiscard]] Result<std::uint64_t> bar_address(EndpointId ep, int bar) const;
  [[nodiscard]] Endpoint* endpoint(EndpointId ep) const;
  /// Host the endpoint is physically installed in.
  [[nodiscard]] HostId endpoint_host(EndpointId ep) const;

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
  Result<sim::Time> post_write(const Initiator& who, std::uint64_t addr, ConstByteSpan data,
                               sim::Time not_before = 0);

  /// Posted scatter write of one payload across multiple target ranges
  /// (device DMA of a data block through PRP pages). One aggregate
  /// serialization cost; returns arrival time of the *last* byte. `data`
  /// is the in-flight copy; its whole pages land by reference where a
  /// target page lines up with them.
  Result<sim::Time> write_sg(const Initiator& who, std::span<const SgEntry> sg,
                             mem::Payload data, sim::Time not_before = 0);

  /// Non-posted read; future resolves after the full round trip.
  sim::Future<Result<mem::Payload>> read(const Initiator& who, std::uint64_t addr,
                                         std::size_t len);

  /// Non-posted gather read across multiple ranges (device DMA fetch). The
  /// payload takes whole aligned pages of memory by reference.
  sim::Future<Result<mem::Payload>> read_sg(const Initiator& who, std::span<const SgEntry> sg);

  /// Zero-cost synchronous read for CQ phase polling. Unlike peek() this is
  /// a sanctioned data-path access: the polled ring must be local, in a
  /// shared pool, or behind an established CPU window. It follows the
  /// substrate's routing (a taken-over manager polls an adopted CQ through
  /// its NTB map) and charges nothing.
  Status poll_read(HostId viewer, std::uint64_t addr, ByteSpan out);

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

  /// Install `plan` as this simulation's fault plan, replacing any earlier
  /// one, or remove it (nullopt). Drivers register crash handlers with the
  /// injector they find when they start, so a plan with host_crash faults
  /// goes in before bring-up.
  void set_fault_plan(std::optional<fault::FaultPlan> plan);
  /// The installed plan's injector; null when there is none.
  [[nodiscard]] fault::Injector* faults() const noexcept { return faults_.get(); }
  /// Schedule the installed plan's timed faults from now; its link faults
  /// go through set_host_link(). No-op without a plan.
  void arm_faults();

  // --- backdoors -------------------------------------------------------------

  /// Zero-latency backdoor access (setup / assertions only); guarded after
  /// seal_backdoors() — see the file comment.
  Status poke(HostId host, std::uint64_t addr, ConstByteSpan data);
  Status peek(HostId host, std::uint64_t addr, ByteSpan out);

  /// Declare bring-up complete: from now on cross-host peek/poke is a bug.
  void seal_backdoors() noexcept { sealed_ = true; }
  void unseal_backdoors() noexcept { sealed_ = false; }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 protected:
  /// Where an access lands: a range of memory, or a register range of a
  /// device BAR.
  struct Sink {
    mem::PhysMem* mem = nullptr;  ///< memory target; null for a BAR
    Endpoint* ep = nullptr;       ///< BAR target (mem == nullptr)
    std::uint64_t addr = 0;       ///< address in `mem`, or offset into the BAR
    int bar = 0;
    /// The host fault plans and the backdoor guard see: the host whose
    /// memory or device this is, or the viewer itself for a shared pool.
    HostId owner = kNoHost;
  };

  /// A routed access: its sink plus what ordering and cost need.
  struct Target {
    Sink sink;
    /// Completer side of the posted-ordering key; the initiator side is
    /// the initiator's entry chip.
    std::uint64_t order_key = 0;
    /// Where path_ns() measures the path to, in the substrate's own terms
    /// (PCIe: the completer chip). Separate from order_key so that the
    /// ordering key can change without changing reachability or cost.
    std::uint64_t completer = 0;
    int ntb_crossings = 0;
    /// How far the translation holds: every address in [addr, addr + span)
    /// of the routed `addr` resolves to this sink (its addr shifted by the
    /// distance from `addr`), owner, order key, completer and crossing
    /// count. Ends at the region's end and at every NTB window boundary.
    std::uint64_t span = 0;
  };

  /// One-way path cost of an access; for a scatter list, the worst chunk.
  struct Path {
    sim::Duration ns = 0;
    int ntb_crossings = 0;
  };
  /// Delivery latency of a posted write, and the gap a later posted write
  /// on the same path lands behind it (wire occupancy).
  struct PostedCost {
    sim::Duration latency = 0;
    sim::Duration gap = 0;
  };
  /// A non-posted read: request leg up to the completer access, then the
  /// response leg back (clamped at zero).
  struct ReadCost {
    sim::Duration request = 0;
    sim::Duration response = 0;
  };

  // --- what a substrate supplies ---------------------------------------------

  /// Resolve [addr, addr+len) of `viewer`'s space, and report in `span`
  /// how far past `addr` the same translation holds. Routing only: no
  /// reachability check and no cost. Fails when the range lands nowhere.
  [[nodiscard]] virtual Result<Target> route(HostId viewer, std::uint64_t addr,
                                             std::uint64_t len) = 0;
  /// Can `who` reach `t` right now? If so, the one-way path cost.
  [[nodiscard]] virtual Result<sim::Duration> path_ns(const Initiator& who, const Target& t,
                                                      bool is_store) const = 0;
  /// `scatter` marks a write_sg()/read_sg() transfer of `bytes` in total.
  [[nodiscard]] virtual PostedCost posted_cost(Path path, std::uint64_t bytes,
                                               bool scatter) const = 0;
  [[nodiscard]] virtual ReadCost read_cost(Path path, std::uint64_t bytes,
                                           bool scatter) const = 0;
  /// Delay of the error completion of a read that routed nowhere.
  [[nodiscard]] virtual sim::Duration error_completion_ns() const = 0;
  /// Record BAR `bar` of endpoint `ep` at [base, base+size) of `host`'s
  /// MMIO space, for route() to find.
  virtual void map_bar(HostId host, EndpointId ep, int bar, std::uint64_t base,
                       std::uint64_t size) = 0;
  /// Release resources behind a non-direct window token.
  virtual void unmap_window(std::uint64_t token) = 0;

  // --- what the substrates share ----------------------------------------------

  /// Assign `ep`'s BARs from `mmio`, record it as installed in `host`, and
  /// wire it up as DMA initiator {host, chip}.
  Result<EndpointId> add_endpoint(Endpoint& ep, HostId host, ChipId chip,
                                  mem::RangeAllocator& mmio);

  struct EndpointRec {
    Endpoint* ep = nullptr;
    Initiator at;  ///< installed host and DMA entry chip
    std::vector<std::uint64_t> bar_bases;
  };

  [[nodiscard]] Window make_window(std::uint64_t token, std::uint64_t addr,
                                   std::uint64_t size) noexcept;

  sim::Engine& engine_;
  Stats stats_;
  std::vector<EndpointRec> endpoints_;

 private:
  friend class Window;
  /// Checks resolve_sg() against route() entry by entry (substrate_test).
  friend class SubstrateProbe;

  /// Guard check shared by peek/poke; returns non-ok when the access must
  /// be rejected.
  Status check_backdoor(HostId host, std::uint64_t addr, std::uint64_t len, const char* what);

  static Status apply_write(const Sink& s, ConstByteSpan data);
  /// Read straight into the caller's span — no temporary for memory sinks.
  static Status apply_read_into(const Sink& s, ByteSpan out);
  /// The payload forms of the two: store the next `len` bytes of `in`, or
  /// append `len` bytes to `out`. A BAR sees plain bytes, staged in
  /// bar_staging_.
  Status apply_write(const Sink& s, mem::PayloadReader& in, std::uint64_t len);
  static Status apply_read_into(const Sink& s, std::uint64_t len, mem::Payload& out);

  /// Posted ordering: posted writes from one initiator to one completer may
  /// not pass each other, but they pipeline — a later write lands one `gap`
  /// after its predecessor, not one full path latency.
  sim::Time posted_arrival(const Initiator& who, std::uint64_t key, sim::Duration latency,
                           sim::Duration gap, sim::Time not_before);

  /// One routed entry of a transaction's scatter list.
  struct Chunk {
    Sink sink;
    std::uint32_t len = 0;
  };
  /// One transaction in flight, from submission to delivery: its chunks
  /// and, for a posted write, their distinct order keys. One sim::pool
  /// record sized to the scatter list, so a warm substrate resolves
  /// transactions without allocating.
  struct SgOp {
    std::uint32_t count = 0;  ///< chunks, and room for as many keys
    std::uint32_t keys = 0;
    std::uint64_t total = 0;
    Path worst;

    [[nodiscard]] static std::size_t bytes(std::size_t count) noexcept {
      return sizeof(SgOp) + count * (sizeof(Chunk) + sizeof(std::uint64_t));
    }
    [[nodiscard]] std::span<Chunk> chunks() noexcept {
      return {reinterpret_cast<Chunk*>(this + 1), count};
    }
    [[nodiscard]] std::span<std::uint64_t> order_keys() noexcept { return {key_slots(), keys}; }
    /// Record `key` unless an earlier chunk did.
    void add_key(std::uint64_t key) noexcept {
      if (std::find(key_slots(), key_slots() + keys, key) == key_slots() + keys) {
        key_slots()[keys++] = key;
      }
    }

   private:
    [[nodiscard]] std::uint64_t* key_slots() noexcept {
      return reinterpret_cast<std::uint64_t*>(chunks().data() + count);
    }
  };
  struct SgOpFree {
    void operator()(SgOp* op) const noexcept;
  };
  using SgOpPtr = std::unique_ptr<SgOp, SgOpFree>;

  /// The one posted-write body and the one read body. `scatter` selects
  /// the substrate's scatter-gather pricing (posted_cost(), read_cost());
  /// post_write() and read() are one-entry calls without it.
  Result<sim::Time> posted_write(const Initiator& who, std::span<const SgEntry> sg,
                                 mem::Payload data, sim::Time not_before, bool scatter);
  sim::Future<Result<mem::Payload>> nonposted_read(const Initiator& who,
                                                   std::span<const SgEntry> sg, bool scatter);

  /// Route and reach each entry of `sg`, counting NTB translations entry
  /// by entry. An entry that routes nowhere counts as an unsupported
  /// request. Entries that stay inside the previous routed entry's span
  /// share its target and path: only an entry that leaves it is routed and
  /// priced again.
  Result<SgOpPtr> resolve_sg(const Initiator& who, std::span<const SgEntry> sg, bool is_store);

  bool sealed_ = false;
  std::unique_ptr<fault::Injector> faults_;
  std::map<std::pair<ChipId, std::uint64_t>, sim::Time> posted_floor_;
  /// The bytes of a posted write into a BAR; keeps its capacity, so a warm
  /// substrate delivers doorbells and MSI-X stores without allocating.
  Bytes bar_staging_;
};

}  // namespace nvmeshare::fabric
