// Benchmark harness shared by the workloads: the seeded closed-loop request
// generator and payload pool, the engine driver that runs generator streams
// against block::BlockDevice::submit, the post-run data check, and the
// host-time span log written out as Chrome trace JSON.
//
// Everything a stream submits is built before the clock starts: request
// lists come from the seed, and write payloads sit in each submitting host's
// DRAM, so a write request just points at its payload. The timed loop does
// no byte-level work of its own.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "block/block.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "mem/phys_mem.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sisci/sisci.hpp"

namespace perfbench {

using namespace nvmeshare;

/// Heap allocations made so far by this process (alloc_count.cpp replaces
/// the global operator new to count them).
std::uint64_t heap_allocations() noexcept;

/// Host wall-clock seconds on a monotonic clock.
inline double host_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A fixed piece of host work owned by the benchmark, timed on each side of
/// every measured phase and bring-up to gauge how fast the host core is
/// right now. On a
/// shared host a core's speed drifts with its neighbours' load for seconds
/// at a time; the program and this load slow down together, so their ratio
/// is the program's own cost. It mixes what the simulator's host time is
/// made of: a binary-heap event queue, small heap allocations and scattered
/// reads of a 2 MiB table, larger than the core's L2. Nothing in it calls the
/// program, so a change to the program cannot move it.
class ReferenceLoad {
 public:
  ReferenceLoad();
  /// Do `steps` steps of the load; returns their host seconds.
  double run(std::size_t steps);

 private:
  std::vector<std::uint64_t> table_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink_ = 0;
};

// --- spans -----------------------------------------------------------------------

/// One host-time span around a benchmark call into the program.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< enclosing span; 0 = root
  std::uint64_t request = 0;  ///< shared by a request's submit and completion spans
  double begin = 0;
  double end = 0;
};

/// In-memory span log; off unless enabled, bounded, overflow counted.
class SpanLog {
 public:
  void enable(std::size_t capacity);
  /// Id for a span about to open, so spans opened inside it can name it.
  std::uint64_t open() noexcept { return next_id_++; }
  void close(std::uint64_t id, const char* name, std::uint64_t parent, std::uint64_t request,
             double begin, double end);
  /// Chrome trace_event JSON; `metadata` (a JSON object) rides along.
  [[nodiscard]] std::string chrome_json(const std::string& metadata) const;

  /// The span that new spans nest under.
  std::uint64_t parent = 0;

 private:
  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

/// The process's span log (the benchmark is single-threaded).
SpanLog& spans();

/// Run `fn`, add its host seconds to `total`, and log it as span `name`,
/// the parent of any span opened inside it.
template <typename F>
auto timed(const char* name, double& total, F&& fn) {
  SpanLog& log = spans();
  const std::uint64_t id = log.open();
  const std::uint64_t outer = log.parent;
  log.parent = id;
  const double begin = host_seconds();
  auto out = fn();
  const double end = host_seconds();
  log.parent = outer;
  total += end - begin;
  log.close(id, name, outer, 0, begin, end);
  return out;
}

/// Host time the traced run attributes to the generator, to submit() and to
/// engine slices. Collected only while `on`.
struct LoopProbe {
  bool on = false;
  double gen_s = 0;
  double submit_s = 0;
  std::uint64_t submits = 0;
  double slice_s = 0;
  std::uint64_t slice_events = 0;
  std::uint64_t next_request = 1;
};

LoopProbe& probe();

// --- generator -------------------------------------------------------------------

/// One pre-generated request; writes name a payload of the pool.
struct Req {
  std::uint64_t lba = 0;
  std::uint32_t nblocks = 0;
  std::uint32_t payload = 0;
  bool write = false;
};

/// Where and how one stream issues requests. Streams own disjoint LBA
/// slices, so the last write to every block is known from the stream's own
/// list, whatever the interleaving between streams.
struct StreamShape {
  std::uint64_t first_lba = 0;
  std::uint64_t slots = 0;  ///< request-sized slots in the slice
  std::uint32_t blocks_per_op = 0;
  double write_fraction = 0;  ///< 0 = reads only, 1 = writes only
  bool sequential = false;    ///< walk the slice in order from a seeded start, wrapping
};

std::vector<Req> make_requests(const StreamShape& shape, std::size_t count,
                               std::uint32_t payloads, Rng& rng);

/// A fixed set of write payloads derived from the seed, copied once into
/// every submitting host's DRAM before the clock starts.
class PayloadPool {
 public:
  PayloadPool(std::uint32_t count, std::uint32_t bytes, std::uint64_t seed);

  [[nodiscard]] std::uint32_t count() const noexcept {
    return static_cast<std::uint32_t>(data_.size());
  }
  [[nodiscard]] std::uint32_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] const Bytes& payload(std::uint32_t i) const { return data_.at(i); }

  /// Copy the pool into `node`'s DRAM; returns each payload's address.
  [[nodiscard]] Result<std::vector<std::uint64_t>> place(sisci::Cluster& cluster,
                                                         sisci::NodeId node) const;

 private:
  std::uint32_t bytes_;
  std::vector<Bytes> data_;
};

/// One closed-loop submitter: its next request goes out when the previous
/// one completes.
struct Stream {
  sim::Engine* engine = nullptr;
  block::BlockDevice* device = nullptr;
  mem::PhysMem* dram = nullptr;  ///< the submitting host's DRAM
  const std::vector<std::uint64_t>* payload_addr = nullptr;
  std::uint64_t read_buffer = 0;
  int scenario = 0;  ///< model.* bucket
  int group = 0;     ///< tenant, for the per-tenant p99 spread
  std::vector<Req> reqs;
  std::size_t issued = 0;
  /// Simulated latencies of successful requests; reserved up front so the
  /// timed loop never grows them.
  std::vector<std::uint32_t> read_ns;
  std::vector<std::uint32_t> write_ns;
  /// (read_ns.size(), write_ns.size()) at the end of each round.
  std::vector<std::pair<std::size_t, std::size_t>> round_marks;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

/// Issue the stream's next `count` requests one at a time. The last stream
/// of a phase to finish (`alive` reaching 0) stops the engine, so the phase
/// ends at its last completion.
sim::Task run_stream(Stream& s, std::size_t count, std::size_t& alive);

/// Run `engine` until `alive` reaches 0. Fails if simulated time runs far
/// past any plausible phase length with streams still outstanding.
Status drive(sim::Engine& engine, const std::size_t& alive);

/// Outcome of the post-run data check.
struct CheckCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Re-read every request range the stream wrote last and compare it with
/// the payload it must hold. Runs after the clock stops.
sim::Task check_stream(Stream& s, const PayloadPool& pool, std::size_t& alive,
                       CheckCounts& out);

/// Nearest-rank percentile (0 = minimum) of latencies in ns, returned in us.
double percentile_us(std::vector<std::uint32_t> ns, double pct);

double median(std::vector<double> v);

}  // namespace perfbench
