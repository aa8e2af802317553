#include "mux/mux.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace nvmeshare::mux {

QpMultiplexer::Stats::Stats()
    : tenants("nvmeshare.mux.tenants"),
      shares_attached("nvmeshare.mux.shares_attached"),
      staged_cmds("nvmeshare.mux.staged_cmds"),
      dispatched_cmds("nvmeshare.mux.dispatched_cmds"),
      completed_cmds("nvmeshare.mux.completed_cmds"),
      drr_rounds("nvmeshare.mux.drr_rounds"),
      throttle_ns("nvmeshare.mux.throttle_ns"),
      deferred_cmds("nvmeshare.mux.deferred_cmds"),
      aborted_cmds("nvmeshare.mux.aborted_cmds") {}

// --- lifecycle ----------------------------------------------------------------

QpMultiplexer::QpMultiplexer(sim::Engine& engine, DispatchFn dispatch,
                             std::shared_ptr<bool> stop, Config cfg)
    : engine_(engine),
      dispatch_(std::move(dispatch)),
      stop_(std::move(stop)),
      cfg_(cfg),
      kick_(engine) {
  cfg_.quantum_blocks = std::max<std::uint32_t>(cfg_.quantum_blocks, 1);
}

QpMultiplexer::~QpMultiplexer() {
  // A parked scheduler (or an in-flight dispatch) wakes, observes the
  // cleared alive flag and exits without touching this object; staged work
  // it will never drain is resolved as aborted here so no submitter hangs.
  *alive_ = false;
  kick_.set();
  for (auto& [id, t] : tenants_) {
    for (auto& staged : t->ring) resolve_aborted(staged);
    t->ring.clear();
  }
}

void QpMultiplexer::kick() { kick_.set(); }

const ShareGrant* QpMultiplexer::grant(std::uint32_t tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second->grant;
}

std::size_t QpMultiplexer::tenant_backlog(std::uint32_t tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second->ring.size() + it->second->inflight;
}

Status QpMultiplexer::attach_tenant(const ShareGrant& grant) {
  if (grant.range.count() == 0) {
    return Status(Errc::invalid_argument, "share grant has an empty CID range");
  }
  if (grant.weight == 0) {
    return Status(Errc::invalid_argument, "share grant weight must be positive");
  }
  if (tenants_.contains(grant.tenant)) {
    return Status(Errc::already_exists, "tenant already attached");
  }
  for (const auto& [id, t] : tenants_) {
    if (t->grant.range.overlaps(grant.range)) {
      return Status(Errc::invalid_argument, "share CID range overlaps an attached tenant");
    }
  }
  auto tenant = std::make_unique<Tenant>(grant);
  tenant->cmd_bucket.arm(grant.qos_iops, cfg_.qos_burst_cmds, engine_.now());
  tenant->byte_bucket.arm(grant.qos_bytes_per_s, cfg_.qos_burst_bytes, engine_.now());
  tenants_.emplace(grant.tenant, std::move(tenant));
  order_.push_back(grant.tenant);
  ++stats_.shares_attached;
  stats_.tenants.set(static_cast<double>(order_.size()));
  return Status::ok();
}

Status QpMultiplexer::detach_tenant(std::uint32_t tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return Status(Errc::not_found, "no such tenant");
  if (!it->second->ring.empty() || it->second->inflight != 0) {
    return Status(Errc::unavailable, "tenant has staged or in-flight commands");
  }
  tenants_.erase(it);
  order_.erase(std::find(order_.begin(), order_.end(), tenant));
  stats_.tenants.set(static_cast<double>(order_.size()));
  return Status::ok();
}

// --- submission ---------------------------------------------------------------

void QpMultiplexer::resolve_aborted(Staged& staged) {
  ++stats_.aborted_cmds;
  staged.promise.set(
      block::Completion{Status(Errc::aborted, "multiplexer stopped"), engine_.now() - staged.start});
}

sim::Future<block::Completion> QpMultiplexer::submit(std::uint32_t tenant,
                                                     const block::Request& request) {
  sim::Promise<block::Completion> promise(engine_);
  auto future = promise.future();
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    promise.set(block::Completion{Status(Errc::not_found, "no share for this tenant"), 0});
    return future;
  }
  if (*stop_) {
    promise.set(block::Completion{Status(Errc::aborted, "multiplexer stopped"), 0});
    return future;
  }
  it->second->ring.push_back(Staged{request, engine_.now(), std::move(promise)});
  ++stats_.staged_cmds;
  if (!scheduler_running_) {
    scheduler_running_ = true;
    scheduler_task(stop_);
  }
  kick_.set();
  return future;
}

// --- scheduling ---------------------------------------------------------------

// Deficit round robin over the attach-ordered tenant list. Each pass adds
// quantum * weight to every backlogged tenant with window room and dequeues
// while the deficit covers the head request's cost (max(1, nblocks) — byte-
// aware fairness without a divider on the hot path). A tenant whose ring
// drains forfeits its residue, the classic DRR rule that keeps latent
// credit from accumulating. The in-flight window is the share's CID-range
// size, so a tenant can never occupy more of the shared ring than its
// grant; the ranged push underneath would refuse anyway (counted
// backpressure), this just avoids pointless retries.
sim::Task QpMultiplexer::scheduler_task(std::shared_ptr<bool> stop) {
  const std::shared_ptr<bool> alive = alive_;
  for (;;) {
    if (!*alive) co_return;  // multiplexer destroyed while we were parked
    if (*stop) break;
    bool progressed = false;
    bool starved = false;  // backlogged + window room, but deficit short
    for (std::size_t i = 0; i < order_.size(); ++i) {
      Tenant& t = *tenants_.at(order_[i]);
      if (t.ring.empty()) {
        t.deficit = 0;
        continue;
      }
      if (t.inflight >= t.grant.range.count()) continue;  // window full: kick on completion
      t.deficit += static_cast<std::int64_t>(cfg_.quantum_blocks) * t.grant.weight;
      while (!t.ring.empty() && t.inflight < t.grant.range.count()) {
        const auto cost = std::max<std::int64_t>(1, t.ring.front().request.nblocks);
        if (t.deficit < cost) {
          starved = true;
          break;
        }
        t.deficit -= cost;
        Staged staged = std::move(t.ring.front());
        t.ring.pop_front();
        ++t.inflight;
        ++stats_.dispatched_cmds;
        dispatch_task(t, std::move(staged), stop);
        progressed = true;
      }
      if (t.ring.empty()) t.deficit = 0;
    }
    ++stats_.drr_rounds;
    if (progressed || starved) {
      // Yield through the engine queue so dispatches (and their
      // completions) interleave; a starved tenant earns quantum next pass.
      co_await sim::yield_now(engine_);
      continue;
    }
    // Nothing dispatchable: rings empty, or every backlogged tenant's
    // window is full. Park until a submit or a completion kicks us.
    kick_.reset();
    (void)co_await kick_.wait();
  }
  // Stop: fail whatever is still staged so no submitter hangs.
  for (auto& id : order_) {
    Tenant& t = *tenants_.at(id);
    for (auto& staged : t.ring) resolve_aborted(staged);
    t.ring.clear();
  }
  scheduler_running_ = false;
}

sim::Task QpMultiplexer::dispatch_task(Tenant& t, Staged staged, std::shared_ptr<bool> stop) {
  const std::shared_ptr<bool> alive = alive_;
  sim::Engine& eng = engine_;
  // QoS pacing: charge both buckets up front and sleep off the deficit, the
  // same serialization the engine pacer uses — each dispatch sees the debt
  // left by the previous one and queues behind it.
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(staged.request.nblocks) * cfg_.block_size;
  const sim::Duration stall = std::max(t.cmd_bucket.charge(engine_.now(), 1),
                                       t.byte_bucket.charge(engine_.now(), bytes));
  if (stall > 0) {
    ++stats_.deferred_cmds;
    stats_.throttle_ns += static_cast<std::uint64_t>(stall);
    co_await sim::delay(eng, stall);
  }
  if (!*alive) {  // destroyed during the stall: resolve, touch nothing else
    staged.promise.set(
        block::Completion{Status(Errc::aborted, "multiplexer stopped"), eng.now() - staged.start});
    co_return;
  }
  if (*stop) {
    --t.inflight;
    resolve_aborted(staged);
    co_return;
  }
  block::Completion done = co_await dispatch_(staged.request, t.grant.range);
  if (!*alive) {  // destroyed while the request was on the wire
    staged.promise.set(std::move(done));
    co_return;
  }
  --t.inflight;
  ++stats_.completed_cmds;
  // Report the tenant-perceived latency: staging wait + QoS stall + wire.
  done.latency_ns = engine_.now() - staged.start;
  kick_.set();  // window room freed: the scheduler may dequeue again
  staged.promise.set(std::move(done));
}

// --- TenantDevice -------------------------------------------------------------

TenantDevice::TenantDevice(QpMultiplexer& mux, block::BlockDevice& underlying,
                           std::uint32_t tenant)
    : mux_(mux), underlying_(underlying), tenant_(tenant) {
  name_ = std::string(underlying.name()) + "-t" + std::to_string(tenant);
}

std::uint32_t TenantDevice::max_queue_depth() const {
  const ShareGrant* g = mux_.grant(tenant_);
  return g == nullptr ? 1 : g->range.count();
}

sim::Future<block::Completion> TenantDevice::submit(const block::Request& request) {
  return mux_.submit(tenant_, request);
}

}  // namespace nvmeshare::mux
