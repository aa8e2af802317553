#include "fault/fault.hpp"

#include <charconv>
#include <cstdlib>

#include "common/log.hpp"
#include "sim/engine.hpp"

namespace nvmeshare::fault {

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
#define NVS_FAULT_NAME(name) \
  case FaultKind::name: return #name;
    NVS_FAULT_KINDS(NVS_FAULT_NAME)
#undef NVS_FAULT_NAME
  }
  return "?";
}

Injector::Stats::Stats()
    : posted_drops("nvmeshare.fault.posted_drops"),
      posted_delays("nvmeshare.fault.posted_delays"),
      link_downs("nvmeshare.fault.link_downs"),
      link_ups("nvmeshare.fault.link_ups"),
      host_crashes("nvmeshare.fault.host_crashes"),
      ctrl_errors("nvmeshare.fault.ctrl_errors"),
      capsule_drops("nvmeshare.fault.capsule_drops"),
      bit_flips("nvmeshare.fault.bit_flips"),
      torn_writes("nvmeshare.fault.torn_writes"),
      stale_reads("nvmeshare.fault.stale_reads") {}

Injector::Injector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed), trigger_(plan_.faults.size()) {}

Injector::~Injector() { *live_ = false; }

void Injector::arm(sim::Engine& engine, SetHostLink set_link) {
  engine_ = &engine;
  arm_time_ = engine.now();
  for (const FaultSpec& spec : plan_.faults) {
    switch (spec.kind) {
      case FaultKind::ntb_link_down: {
        const std::uint32_t host = spec.src_host;
        engine.after(spec.at, [this, live = live_, set_link, host] {
          if (!*live) return;
          NVS_LOG(warn, "fault") << "NTB link down (host " << host << ")";
          set_link(host, false);
          ++stats_.link_downs;
        });
        if (spec.duration > 0) {
          engine.after(spec.at + spec.duration, [this, live = live_, set_link, host] {
            if (!*live) return;
            NVS_LOG(info, "fault") << "NTB link restored (host " << host << ")";
            set_link(host, true);
            ++stats_.link_ups;
          });
        }
        break;
      }
      case FaultKind::host_crash: {
        const std::uint32_t host = spec.src_host;
        engine.after(spec.at, [this, live = live_, host] {
          if (!*live) return;
          NVS_LOG(warn, "fault") << "crashing host " << host;
          // Handlers may deregister (or register) while firing; snapshot.
          std::vector<std::function<void()>> victims;
          for (const auto& [token, handler] : crash_handlers_) {
            if (handler.host == host) victims.push_back(handler.fn);
          }
          for (const auto& fn : victims) fn();
          ++stats_.host_crashes;
        });
        break;
      }
      default:
        break;  // operation-count faults fire from their hooks
    }
  }
}

std::uint64_t Injector::register_crash_handler(std::uint32_t host, std::function<void()> fn) {
  const std::uint64_t token = next_token_++;
  crash_handlers_[token] = CrashHandler{host, std::move(fn)};
  return token;
}

void Injector::unregister_crash_handler(std::uint64_t token) { crash_handlers_.erase(token); }

bool Injector::should_fire(std::size_t spec_index) {
  const FaultSpec& spec = plan_.faults[spec_index];
  TriggerState& state = trigger_[spec_index];
  if (spec.window_end > 0) {
    // Windowed spec: ops outside the window neither count nor fire, so
    // `nth` is the nth *in-window* op. The window shares timed faults'
    // origin (arm time); before arm() nothing is in any window.
    if (engine_ == nullptr) return false;
    const sim::Time now = engine_->now();
    const sim::Duration rel = now >= arm_time_ ? now - arm_time_ : 0;
    if (rel < spec.window_start || rel >= spec.window_end) return false;
  }
  ++state.seen;
  if (spec.count != 0 && state.fired >= spec.count) return false;
  bool hit = false;
  if (spec.nth != 0) {
    // Fires on the nth matching op and (budget permitting) every one after,
    // giving contiguous loss windows with count > 1.
    hit = state.seen >= spec.nth;
  } else if (spec.probability > 0) {
    hit = rng_.chance(spec.probability);
  } else if (spec.window_end > 0) {
    // Window-only spec: every in-window matching op is hit (a storm).
    hit = true;
  }
  if (hit) ++state.fired;
  return hit;
}

Injector::PostedWriteDecision Injector::on_posted_write(std::uint32_t src_host,
                                                        std::uint32_t dst_host, bool to_bar,
                                                        std::uint64_t len) {
  PostedWriteDecision decision;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    if (spec.kind != FaultKind::drop_posted_write &&
        spec.kind != FaultKind::delay_posted_write &&
        spec.kind != FaultKind::flip_dma_bits && spec.kind != FaultKind::torn_dma_write) {
      continue;
    }
    if (spec.src_host != kAnyHost && spec.src_host != src_host) continue;
    if (spec.dst_host != kAnyHost && spec.dst_host != dst_host) continue;
    if (spec.write_class == WriteClass::bar && !to_bar) continue;
    if (spec.write_class == WriteClass::dram && to_bar) continue;
    if ((spec.kind == FaultKind::flip_dma_bits || spec.kind == FaultKind::torn_dma_write) &&
        len == 0) {
      continue;  // nothing to corrupt
    }
    if (!should_fire(i)) continue;
    switch (spec.kind) {
      case FaultKind::drop_posted_write:
        decision.drop = true;
        ++stats_.posted_drops;
        break;
      case FaultKind::delay_posted_write:
        decision.extra_ns += spec.extra_ns;
        ++stats_.posted_delays;
        break;
      case FaultKind::flip_dma_bits:
        decision.flip = true;
        decision.flip_bit = rng_.uniform(len * 8);
        ++stats_.bit_flips;
        break;
      case FaultKind::torn_dma_write:
        decision.torn = true;
        decision.torn_bytes = rng_.uniform(len);  // strict prefix: [0, len)
        ++stats_.torn_writes;
        break;
      default:
        break;
    }
  }
  return decision;
}

bool Injector::on_dma_read(std::uint32_t src_host, std::uint32_t dst_host, bool from_bar) {
  bool stale = false;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    if (spec.kind != FaultKind::stale_read) continue;
    if (spec.src_host != kAnyHost && spec.src_host != src_host) continue;
    if (spec.dst_host != kAnyHost && spec.dst_host != dst_host) continue;
    if (spec.write_class == WriteClass::bar && !from_bar) continue;
    if (spec.write_class == WriteClass::dram && from_bar) continue;
    if (!should_fire(i)) continue;
    stale = true;
    ++stats_.stale_reads;
  }
  return stale;
}

Injector::CtrlDecision Injector::on_ctrl_command(std::uint16_t qid, std::uint16_t cid) {
  CtrlDecision decision;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& spec = plan_.faults[i];
    if (spec.kind != FaultKind::ctrl_error) continue;
    if (spec.qid != kAnyQid && spec.qid != qid) continue;
    if (spec.cid != kAnyCid && spec.cid != cid) continue;
    if (!should_fire(i)) continue;
    decision.inject = true;
    decision.fatal = decision.fatal || spec.fatal;
    ++stats_.ctrl_errors;
  }
  return decision;
}

bool Injector::on_capsule_send() {
  bool drop = false;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    if (plan_.faults[i].kind != FaultKind::drop_capsule) continue;
    if (!should_fire(i)) continue;
    drop = true;
    ++stats_.capsule_drops;
  }
  return drop;
}

// --- plan DSL -----------------------------------------------------------------

namespace {

Result<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return Status(Errc::invalid_argument, "bad number '" + std::string(text) + "'");
  }
  return value;
}

/// "500", "500ns", "3us", "2ms", "1s" -> nanoseconds.
Result<sim::Duration> parse_duration(std::string_view text) {
  std::uint64_t scale = 1;
  if (text.ends_with("ns")) {
    text.remove_suffix(2);
  } else if (text.ends_with("us")) {
    text.remove_suffix(2);
    scale = 1000;
  } else if (text.ends_with("ms")) {
    text.remove_suffix(2);
    scale = 1000 * 1000;
  } else if (text.ends_with("s")) {
    text.remove_suffix(1);
    scale = 1000ull * 1000 * 1000;
  }
  auto value = parse_u64(text);
  if (!value) return value.status();
  return static_cast<sim::Duration>(*value * scale);
}

Result<FaultKind> parse_kind(std::string_view text) {
#define NVS_FAULT_PARSE(name) \
  if (text == #name) return FaultKind::name;
  NVS_FAULT_KINDS(NVS_FAULT_PARSE)
#undef NVS_FAULT_PARSE
  return Status(Errc::invalid_argument, "unknown fault kind '" + std::string(text) + "'");
}

Status apply_key(FaultSpec& spec, std::string_view key, std::string_view value,
                 bool& count_seen) {
  auto number = [&]() { return parse_u64(value); };
  auto duration = [&]() { return parse_duration(value); };
  if (key == "from") {
    auto v = duration();
    if (!v) return v.status();
    spec.window_start = *v;
  } else if (key == "until") {
    auto v = duration();
    if (!v) return v.status();
    spec.window_end = *v;
  } else if (key == "at") {
    auto v = duration();
    if (!v) return v.status();
    spec.at = *v;
  } else if (key == "for") {
    auto v = duration();
    if (!v) return v.status();
    spec.duration = *v;
  } else if (key == "extra") {
    auto v = duration();
    if (!v) return v.status();
    spec.extra_ns = *v;
  } else if (key == "nth") {
    auto v = number();
    if (!v) return v.status();
    spec.nth = *v;
  } else if (key == "count") {
    auto v = number();
    if (!v) return v.status();
    spec.count = *v;
    count_seen = true;
  } else if (key == "prob") {
    spec.probability = std::strtod(std::string(value).c_str(), nullptr);
    if (spec.probability < 0 || spec.probability > 1) {
      return Status(Errc::invalid_argument, "prob must be in [0,1]");
    }
  } else if (key == "src" || key == "host") {
    auto v = number();
    if (!v) return v.status();
    spec.src_host = static_cast<std::uint32_t>(*v);
  } else if (key == "dst") {
    auto v = number();
    if (!v) return v.status();
    spec.dst_host = static_cast<std::uint32_t>(*v);
  } else if (key == "qid") {
    auto v = number();
    if (!v) return v.status();
    spec.qid = static_cast<std::uint16_t>(*v);
  } else if (key == "cid") {
    auto v = number();
    if (!v) return v.status();
    spec.cid = static_cast<std::uint16_t>(*v);
  } else if (key == "class") {
    if (value == "bar") {
      spec.write_class = WriteClass::bar;
    } else if (value == "dram") {
      spec.write_class = WriteClass::dram;
    } else if (value == "any") {
      spec.write_class = WriteClass::any;
    } else {
      return Status(Errc::invalid_argument, "class must be bar|dram|any");
    }
  } else if (key == "fatal") {
    spec.fatal = value == "1" || value == "true";
  } else {
    return Status(Errc::invalid_argument, "unknown fault key '" + std::string(key) + "'");
  }
  return Status::ok();
}

}  // namespace

Result<FaultPlan> parse_plan(std::string_view text) {
  FaultPlan plan;
  while (!text.empty()) {
    const std::size_t semi = text.find(';');
    std::string_view item = text.substr(0, semi);
    text = semi == std::string_view::npos ? std::string_view{} : text.substr(semi + 1);
    if (item.empty()) continue;

    if (item.starts_with("seed=")) {
      auto seed = parse_u64(item.substr(5));
      if (!seed) return seed.status();
      plan.seed = *seed;
      continue;
    }

    const std::size_t colon = item.find(':');
    auto kind = parse_kind(item.substr(0, colon));
    if (!kind) return kind.status();
    FaultSpec spec;
    spec.kind = *kind;
    std::string_view kvs = colon == std::string_view::npos ? std::string_view{}
                                                           : item.substr(colon + 1);
    bool count_seen = false;
    while (!kvs.empty()) {
      const std::size_t comma = kvs.find(',');
      std::string_view kv = kvs.substr(0, comma);
      kvs = comma == std::string_view::npos ? std::string_view{} : kvs.substr(comma + 1);
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos) {
        return Status(Errc::invalid_argument, "expected key=value, got '" + std::string(kv) + "'");
      }
      if (auto st = apply_key(spec, kv.substr(0, eq), kv.substr(eq + 1), count_seen); !st) {
        return st;
      }
    }
    if (spec.window_end > 0 && spec.window_end <= spec.window_start) {
      return Status(Errc::invalid_argument, "fault window is empty (until <= from)");
    }
    // A window-only trigger (no nth, no prob) is a storm: unless the plan
    // capped it explicitly, it hits every in-window op, not just the first.
    if (spec.window_end > 0 && spec.nth == 0 && spec.probability == 0 && !count_seen) {
      spec.count = 0;
    }
    plan.faults.push_back(spec);
  }
  if (plan.faults.empty()) {
    return Status(Errc::invalid_argument, "fault plan contains no faults");
  }
  return plan;
}

}  // namespace nvmeshare::fault
