#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace nvmeshare::obs {

const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::submit: return "submit";
    case Phase::bounce_copy: return "bounce_copy";
    case Phase::sq_write: return "sq_write";
    case Phase::doorbell: return "doorbell";
    case Phase::cq_wait: return "cq_wait";
    case Phase::completion: return "completion";
    case Phase::ctrl_fetch: return "ctrl_fetch";
    case Phase::media: return "media";
    case Phase::data_dma: return "data_dma";
    case Phase::cq_write: return "cq_write";
    case Phase::capsule_send: return "capsule_send";
    case Phase::rdma_data: return "rdma_data";
    case Phase::irq_wait: return "irq_wait";
    case Phase::recovery: return "recovery";
    case Phase::request: return "request";
    case Phase::other: return "other";
  }
  return "other";
}

const char* track_name(Track t) noexcept {
  switch (t) {
    case Track::client: return "client";
    case Track::controller: return "controller";
    case Track::target: return "target";
  }
  return "client";
}

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::read: return "read";
    case Kind::write: return "write";
    case Kind::flush: return "flush";
    case Kind::write_zeroes: return "write_zeroes";
    case Kind::discard: return "discard";
    case Kind::other: return "other";
  }
  return "other";
}

Tracer& Tracer::global() {
  static Tracer instance;
  return instance;
}

void Tracer::enable(std::size_t capacity) {
  clear();
  capacity_ = std::max<std::size_t>(capacity, 1);
  ring_.reserve(capacity_);
  enabled_ = true;
}

void Tracer::clear() {
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
  dropped_ = 0;
  next_trace_id_ = 1;
  open_.clear();
  bindings_.clear();
}

std::uint64_t Tracer::begin_trace(Kind kind, sim::Time now) {
  if (!enabled_) return 0;
  const std::uint64_t id = next_trace_id_++;
  open_.emplace(id, OpenTrace{kind, now});
  return id;
}

void Tracer::end_trace(std::uint64_t trace, sim::Time now) {
  if (trace == 0 || !enabled_) return;
  auto it = open_.find(trace);
  if (it == open_.end()) return;
  record(trace, Track::client, Phase::request, it->second.begin, now);
  open_.erase(it);
}

void Tracer::record_recovery(Track track, sim::Time begin, sim::Time end, std::uint16_t qid) {
  const std::uint64_t t = begin_trace(Kind::other, begin);
  record(t, track, Phase::recovery, begin, end, qid);
  end_trace(t, end);
}

void Tracer::record(std::uint64_t trace, Track track, Phase phase, sim::Time begin,
                    sim::Time end, std::uint16_t qid, std::uint16_t cid) {
  if (trace == 0 || !enabled_) return;
  SpanRecord rec;
  rec.trace = trace;
  rec.begin = begin;
  rec.end = end;
  rec.phase = phase;
  rec.track = track;
  if (auto it = open_.find(trace); it != open_.end()) rec.kind = it->second.kind;
  rec.qid = qid;
  rec.cid = cid;
  if (ring_.size() < capacity_) {
    ring_.push_back(rec);
    return;
  }
  ring_[next_] = rec;
  next_ = (next_ + 1) % capacity_;
  wrapped_ = true;
  ++dropped_;
}

void Tracer::bind(std::uint16_t qid, std::uint16_t cid, std::uint64_t trace) {
  if (trace == 0 || !enabled_) return;
  bindings_[(static_cast<std::uint32_t>(qid) << 16) | cid] = trace;
}

void Tracer::unbind(std::uint16_t qid, std::uint16_t cid) {
  if (!enabled_) return;
  bindings_.erase((static_cast<std::uint32_t>(qid) << 16) | cid);
}

std::uint64_t Tracer::lookup(std::uint16_t qid, std::uint16_t cid) const {
  if (!enabled_) return 0;
  auto it = bindings_.find((static_cast<std::uint32_t>(qid) << 16) | cid);
  return it == bindings_.end() ? 0 : it->second;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  } else {
    out = ring_;
  }
  return out;
}

std::map<std::pair<Track, Phase>, PhaseStat> Tracer::aggregate(
    const std::vector<SpanRecord>& records) {
  std::map<std::pair<Track, Phase>, PhaseStat> out;
  for (const auto& r : records) {
    auto& stat = out[{r.track, r.phase}];
    ++stat.count;
    stat.total_ns += r.duration();
  }
  return out;
}

std::string Tracer::chrome_trace_json(std::size_t max_events) const {
  const auto records = snapshot();
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  // Name the track "threads" once, so Perfetto shows readable rows.
  for (const Track t : {Track::client, Track::controller, Track::target}) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"name\":\"%s\"}}",
                  static_cast<int>(t), track_name(t));
    out += buf;
  }
  std::size_t emitted = 0;
  for (const auto& r : records) {
    if (emitted >= max_events) break;
    ++emitted;
    // trace_event ts/dur are in microseconds; keep ns precision with
    // fractional values (Perfetto accepts floating-point ts).
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%" PRIu64 ".%03u,\"dur\":%" PRIu64 ".%03u,"
                  "\"args\":{\"trace\":%" PRIu64 ",\"kind\":\"%s\",\"qid\":%u,\"cid\":%u}}",
                  phase_name(r.phase), track_name(r.track), static_cast<int>(r.track),
                  static_cast<std::uint64_t>(r.begin / 1000),
                  static_cast<unsigned>(r.begin % 1000),
                  static_cast<std::uint64_t>(r.duration() / 1000),
                  static_cast<unsigned>(r.duration() % 1000), r.trace, kind_name(r.kind),
                  static_cast<unsigned>(r.qid), static_cast<unsigned>(r.cid));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace nvmeshare::obs
