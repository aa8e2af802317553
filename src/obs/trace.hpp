// Span-based request tracer.
//
// Each block request becomes one *trace*; a trace is tiled into *spans*,
// one per pipeline phase, stamped with sim::Engine time. Client-side spans
// (submit, bounce_copy, sq_write, doorbell, cq_wait, completion) partition
// the request's lifetime exactly — their durations sum to the end-to-end
// latency — while device-side spans (ctrl_fetch, media, data_dma, cq_write)
// are recorded on a separate track and correlated back to the owning trace
// via the (qid, cid) the command carries on the wire.
//
// Disabled (the default) the whole apparatus costs one inline bool check
// per instrumentation site. Enabled, spans land in a bounded ring buffer
// that can be snapshotted, aggregated per phase, or exported as Chrome
// trace_event JSON (open in Perfetto / chrome://tracing).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace nvmeshare::obs {

/// Request pipeline phases across all drivers in the tree. One enum keeps
/// records small; not every driver emits every phase.
enum class Phase : std::uint8_t {
  // Client-side (distributed driver, local driver): these tile a trace.
  submit = 0,    ///< request intake -> SQE ready (validation, slot, software)
  bounce_copy,   ///< user buffer <-> bounce slot memcpy
  sq_write,      ///< SQE store into queue memory (posted; CPU-side cost ~0)
  doorbell,      ///< doorbell store + fence
  cq_wait,       ///< in flight: covers fetch, media, DMA, and poll quantum
  completion,    ///< CQE observed -> request completed to the block layer
  // Device-side (controller track).
  ctrl_fetch,    ///< controller's SQE fetch DMA read
  media,         ///< controller processing + media service time
  data_dma,      ///< payload DMA (posted write for reads, fetch for writes)
  cq_write,      ///< CQE posted write
  // NVMe-oF specific.
  capsule_send,  ///< command capsule SEND
  rdma_data,     ///< one-sided RDMA data movement
  irq_wait,      ///< interrupt delivery on the completion path
  // Fault recovery (command retry windows, queue-pair re-create, controller
  // reset, NVMe-oF reconnect). See docs/faults.md.
  recovery,
  // Whole-request summary span, emitted by end_trace().
  request,
  other,
};

[[nodiscard]] const char* phase_name(Phase p) noexcept;

/// Which pipeline stage a span was observed on (Chrome export: one row per
/// track).
enum class Track : std::uint8_t { client = 0, controller = 1, target = 2 };

[[nodiscard]] const char* track_name(Track t) noexcept;

/// Request kinds, stamped on the `request` summary span.
enum class Kind : std::uint8_t { read = 0, write, flush, write_zeroes, discard, other };

[[nodiscard]] const char* kind_name(Kind k) noexcept;

struct SpanRecord {
  std::uint64_t trace = 0;  ///< owning trace id; 0 = unattributed
  sim::Time begin = 0;
  sim::Time end = 0;
  Phase phase = Phase::other;
  Track track = Track::client;
  Kind kind = Kind::other;
  std::uint16_t qid = 0;
  std::uint16_t cid = 0;

  [[nodiscard]] sim::Duration duration() const noexcept { return end - begin; }
};

/// Per-phase aggregate built from a set of records.
struct PhaseStat {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;

  [[nodiscard]] double mean_ns() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(count);
  }
};

class Tracer {
 public:
  static Tracer& global();

  /// Start capturing. `capacity` bounds the ring buffer; the oldest records
  /// are overwritten once it is full (dropped() counts the casualties).
  void enable(std::size_t capacity = 1 << 16);
  void disable() noexcept { enabled_ = false; }
  /// Drop all captured records and open traces; keeps enabled state.
  void clear();

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Open a trace; returns its id (>= 1), or 0 when tracing is disabled.
  /// All other entry points accept trace id 0 as "do nothing".
  std::uint64_t begin_trace(Kind kind, sim::Time now);
  /// Close the trace, emitting the whole-request `request` span.
  void end_trace(std::uint64_t trace, sim::Time now);

  /// Append one span.
  void record(std::uint64_t trace, Track track, Phase phase, sim::Time begin, sim::Time end,
              std::uint16_t qid = 0, std::uint16_t cid = 0);
  /// A recovery window on `track` as a trace of its own.
  void record_recovery(Track track, sim::Time begin, sim::Time end, std::uint16_t qid = 0);

  /// (qid, cid) -> trace correlation, so the controller can attribute its
  /// spans to the request that queued the command.
  void bind(std::uint16_t qid, std::uint16_t cid, std::uint64_t trace);
  void unbind(std::uint16_t qid, std::uint16_t cid);
  [[nodiscard]] std::uint64_t lookup(std::uint16_t qid, std::uint16_t cid) const;

  /// Captured records, oldest first.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Aggregate a snapshot per (track, phase).
  static std::map<std::pair<Track, Phase>, PhaseStat> aggregate(
      const std::vector<SpanRecord>& records);

  /// Chrome trace_event JSON ({"traceEvents":[...]}) of up to `max_events`
  /// records. Spans become complete ("X") events with microsecond
  /// timestamps; tracks become threads.
  [[nodiscard]] std::string chrome_trace_json(std::size_t max_events = 100'000) const;

 private:
  struct OpenTrace {
    Kind kind = Kind::other;
    sim::Time begin = 0;
  };

  bool enabled_ = false;
  std::vector<SpanRecord> ring_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;    ///< ring write cursor
  bool wrapped_ = false;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_trace_id_ = 1;
  std::unordered_map<std::uint64_t, OpenTrace> open_;
  std::unordered_map<std::uint32_t, std::uint64_t> bindings_;  ///< qid<<16|cid -> trace
};

/// Marks the successive phase boundaries of one trace: each mark() records
/// a span from the previous boundary to `now`. A default-constructed or
/// disabled marker is a no-op, so instrumentation sites need no branches.
class PhaseMarker {
 public:
  PhaseMarker() = default;
  PhaseMarker(Tracer& tracer, std::uint64_t trace, Track track, sim::Time start)
      : tracer_(trace != 0 ? &tracer : nullptr), trace_(trace), track_(track), last_(start) {}

  void mark(Phase phase, sim::Time now, std::uint16_t qid = 0, std::uint16_t cid = 0) {
    if (tracer_ == nullptr) return;
    tracer_->record(trace_, track_, phase, last_, now, qid, cid);
    last_ = now;
  }

  [[nodiscard]] std::uint64_t trace() const noexcept { return trace_; }
  /// Time of the last boundary marked (callers use it to skip zero-length
  /// residual spans).
  [[nodiscard]] sim::Time last() const noexcept { return last_; }

 private:
  Tracer* tracer_ = nullptr;
  std::uint64_t trace_ = 0;
  Track track_ = Track::client;
  sim::Time last_ = 0;
};

}  // namespace nvmeshare::obs
