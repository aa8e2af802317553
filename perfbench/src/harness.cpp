#include "harness.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>

namespace perfbench {

namespace {

/// Simulated time per engine slice of the measured loop.
constexpr sim::Duration kSlice = 1'000'000;
/// A phase still unfinished after this much simulated time is stuck.
constexpr sim::Duration kPhaseLimit = 600'000'000'000;

/// Nearest-rank percentile (0 = minimum) of `v`; 0 when empty.
template <typename T>
T nearest_rank(std::vector<T> v, double pct) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::uint32_t clamp_ns(sim::Duration d) {
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  if (d <= 0) return 0;
  return d >= static_cast<sim::Duration>(kMax) ? kMax : static_cast<std::uint32_t>(d);
}

}  // namespace

void SpanLog::enable(std::size_t capacity) {
  enabled_ = true;
  capacity_ = capacity;
  spans_.reserve(capacity);
}

void SpanLog::close(std::uint64_t id, const char* name, std::uint64_t parent,
                    std::uint64_t request, double begin, double end) {
  if (!enabled_) return;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, id, parent, request, begin, end});
}

std::string SpanLog::chrome_json(const std::string& metadata) const {
  double origin = 0;
  if (!spans_.empty()) {
    origin = std::min_element(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
               return a.begin < b.begin;
             })->begin;
  }
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name, (s.begin - origin) * 1e6, (s.end - s.begin) * 1e6,
                  static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ns\",\"metadata\":{\"dropped_spans\":" +
         std::to_string(dropped_) + ",\"run\":" + metadata + "}}\n";
  return out;
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

LoopProbe& probe() {
  static LoopProbe p;
  return p;
}

namespace {
constexpr std::size_t kRefTableEntries = 1 << 18;  ///< 2 MiB
constexpr std::size_t kRefQueueEntries = 4096;
constexpr std::size_t kRefLiveBlocks = 64;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

ReferenceLoad::ReferenceLoad() : table_(kRefTableEntries) {
  for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = mix(i);
  heap_.reserve(kRefQueueEntries);
  for (std::uint32_t i = 0; i < kRefQueueEntries; ++i) heap_.emplace_back(mix(i) & 0xffffff, i);
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

double ReferenceLoad::run(std::size_t steps) {
  // malloc, not operator new, so allocs_per_io does not count the load.
  std::array<void*, kRefLiveBlocks> live{};
  const double begin = host_seconds();
  for (std::size_t i = 0; i < steps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    auto& [at, id] = heap_.back();
    void*& slot = live[i % kRefLiveBlocks];
    std::free(slot);
    slot = std::malloc(32 + (id & 0x3f) * 8);
    const std::uint64_t word = table_[(state_ ^ id) & (kRefTableEntries - 1)];
    std::memcpy(slot, &word, sizeof word);
    state_ = mix(state_ + word);
    sink_ += *static_cast<const std::uint64_t*>(slot);
    at += 1 + (state_ & 0xffff);
    id = static_cast<std::uint32_t>(state_ >> 40) % kRefQueueEntries;
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  const double seconds = host_seconds() - begin;
  for (void* p : live) std::free(p);
  return seconds;
}

std::vector<Req> make_requests(const StreamShape& shape, std::size_t count,
                               std::uint32_t payloads, Rng& rng) {
  std::vector<Req> reqs(count);
  std::uint64_t cursor = shape.sequential ? rng.uniform(shape.slots) : 0;
  for (Req& r : reqs) {
    std::uint64_t slot = 0;
    if (shape.sequential) {
      slot = cursor;
      cursor = (cursor + 1) % shape.slots;
    } else {
      slot = rng.uniform(shape.slots);
    }
    r.lba = shape.first_lba + slot * shape.blocks_per_op;
    r.nblocks = shape.blocks_per_op;
    r.write = shape.write_fraction >= 1.0 ||
              (shape.write_fraction > 0.0 && rng.uniform01() < shape.write_fraction);
    if (r.write) r.payload = static_cast<std::uint32_t>(rng.uniform(payloads));
  }
  return reqs;
}

PayloadPool::PayloadPool(std::uint32_t count, std::uint32_t bytes, std::uint64_t seed)
    : bytes_(bytes) {
  Rng rng(seed);
  data_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) data_.push_back(make_pattern(bytes, rng.next()));
}

Result<std::vector<std::uint64_t>> PayloadPool::place(sisci::Cluster& cluster,
                                                      sisci::NodeId node) const {
  auto base = cluster.alloc_dram(node, static_cast<std::uint64_t>(bytes_) * data_.size());
  if (!base) return base.status();
  mem::PhysMem& dram = cluster.fabric().host_dram(node);
  std::vector<std::uint64_t> addrs;
  for (std::uint32_t i = 0; i < count(); ++i) {
    const std::uint64_t addr = *base + static_cast<std::uint64_t>(i) * bytes_;
    if (Status st = dram.write(addr, data_[i]); !st) return st;
    addrs.push_back(addr);
  }
  return addrs;
}

sim::Task run_stream(Stream& s, std::size_t count, std::size_t& alive) {
  LoopProbe& p = probe();
  SpanLog& log = spans();
  double resumed = p.on ? host_seconds() : 0;
  for (std::size_t k = 0; k < count; ++k) {
    const Req& r = s.reqs[s.issued++];
    block::Request request;
    request.op = r.write ? block::Op::write : block::Op::read;
    request.lba = r.lba;
    request.nblocks = r.nblocks;
    request.buffer_addr = r.write ? (*s.payload_addr)[r.payload] : s.read_buffer;

    double submitted = 0;
    std::uint64_t request_id = 0;
    if (p.on) {
      submitted = host_seconds();
      p.gen_s += submitted - resumed;
      request_id = p.next_request++;
    }
    sim::Future<block::Completion> pending = s.device->submit(request);
    if (p.on) {
      const double now = host_seconds();
      p.submit_s += now - submitted;
      ++p.submits;
      log.close(log.open(), "submit", log.parent, request_id, submitted, now);
    }

    const block::Completion done = co_await pending;
    if (p.on) resumed = host_seconds();
    if (done.status) {
      ++s.ok;
      (r.write ? s.write_ns : s.read_ns).push_back(clamp_ns(done.latency_ns));
    } else {
      ++s.failed;
    }
    if (p.on) log.close(log.open(), "complete", log.parent, request_id, resumed, host_seconds());
  }
  if (p.on) p.gen_s += host_seconds() - resumed;
  if (--alive == 0) s.engine->stop();
}

Status drive(sim::Engine& engine, const std::size_t& alive) {
  LoopProbe& p = probe();
  SpanLog& log = spans();
  const sim::Time give_up = engine.now() + kPhaseLimit;
  while (alive > 0) {
    if (engine.now() >= give_up) {
      return Status(Errc::timed_out, "streams still outstanding after 600 simulated seconds");
    }
    const sim::Time until = engine.now() + kSlice;
    if (!p.on) {
      engine.run_until(until);
      continue;
    }
    const std::uint64_t id = log.open();
    const std::uint64_t outer = log.parent;
    log.parent = id;
    const double begin = host_seconds();
    p.slice_events += engine.run_until(until);
    const double end = host_seconds();
    log.parent = outer;
    p.slice_s += end - begin;
    log.close(id, "run_until", outer, 0, begin, end);
  }
  return Status::ok();
}

sim::Task check_stream(Stream& s, const PayloadPool& pool, std::size_t& alive,
                       CheckCounts& out) {
  std::map<std::uint64_t, const Req*> last;  // by LBA, so the check order is fixed
  for (std::size_t i = 0; i < s.issued; ++i) {
    if (s.reqs[i].write) last[s.reqs[i].lba] = &s.reqs[i];
  }
  Bytes got(pool.bytes());
  for (const auto& [lba, write] : last) {
    block::Request request;
    request.op = block::Op::read;
    request.lba = lba;
    request.nblocks = write->nblocks;
    request.buffer_addr = s.read_buffer;
    const block::Completion done = co_await s.device->submit(request);
    ++out.attempted;
    const bool good = done.status && s.dram->read(s.read_buffer, got) &&
                      got == pool.payload(write->payload);
    if (!good) ++out.failed;
  }
  if (--alive == 0) s.engine->stop();
}

double percentile_us(std::vector<std::uint32_t> ns, double pct) {
  return static_cast<double>(nearest_rank(std::move(ns), pct)) / 1000.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}


}  // namespace perfbench
