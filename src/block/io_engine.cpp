#include "block/io_engine.hpp"

#include <algorithm>

#include "block/block.hpp"
#include "common/log.hpp"

namespace nvmeshare::block {

Status outcome_status(const CmdOutcome& outcome, const char* stopped) {
  switch (outcome.kind) {
    case CmdOutcome::Kind::aborted:
      return Status(Errc::aborted, stopped);
    case CmdOutcome::Kind::transport_error:
      return outcome.transport;
    case CmdOutcome::Kind::timed_out:
      return Status(Errc::timed_out, "command timed out after retries and recovery");
    case CmdOutcome::Kind::completed:
      break;
  }
  if (outcome.status == 0) return Status::ok();
  return Status(Errc::io_error, std::string("NVMe status: ") + nvme::status_name(outcome.status));
}

nvme::IoOpcode nvme_opcode(Op op) {
  switch (op) {
    case Op::read: return nvme::IoOpcode::read;
    case Op::write: return nvme::IoOpcode::write;
    case Op::write_zeroes: return nvme::IoOpcode::write_zeroes;
    case Op::discard: return nvme::IoOpcode::dataset_management;
    case Op::flush: break;
  }
  return nvme::IoOpcode::flush;
}

Status IoEngine::validate(const Config& cfg) {
  if (cfg.channels == 0 || cfg.channels > kMaxEngineChannels) {
    return Status(Errc::invalid_argument, "channel count out of range");
  }
  if (cfg.queue_depth == 0) {
    return Status(Errc::invalid_argument, "queue depth must be positive");
  }
  // A depth equal to the ring size makes SQ-full indistinguishable from
  // SQ-empty on wrap (head == tail either way): the ring would wedge with
  // every slot handed out. Refuse at attach time instead.
  if (cfg.queue_entries != 0 &&
      cfg.queue_depth > static_cast<std::uint32_t>(cfg.queue_entries - 1)) {
    return Status(Errc::invalid_argument,
                  "queue depth must be smaller than the ring size (depth < entries)");
  }
  return Status::ok();
}

sim::Duration IoEngine::backoff_ns(sim::Duration base, std::uint32_t attempt,
                                   sim::Duration max) {
  if (base <= 0 || max <= 0) return 0;
  if (base >= max) return max;
  const std::uint32_t shift = std::min<std::uint32_t>(attempt > 0 ? attempt - 1 : 0, 10);
  // Compare against the ceiling *before* shifting: `base << shift` wraps the
  // 64-bit Duration once the product crosses 2^63, which a large configured
  // base reaches by attempt 11 — the overflow turned a capped backoff into a
  // zero (or negative) sleep, defeating the whole retry spacing.
  if (base > (max >> shift)) return max;
  return base << shift;
}

IoEngine::Channel::Channel(sim::Engine& engine, const std::string& prefix)
    : recovered(engine),
      inflight_gauge(prefix + ".inflight"),
      doorbell_writes(prefix + ".doorbell_writes"),
      coalesced_cmds(prefix + ".coalesced_cmds") {}

IoEngine::IoEngine(sim::Engine& engine, IoTransport& transport, std::shared_ptr<bool> stop,
                   Config cfg)
    : engine_(engine),
      transport_(transport),
      stop_(std::move(stop)),
      cfg_(std::move(cfg)),
      qos_throttle_ns_("nvmeshare.engine." + cfg_.backend + ".qos.throttle_ns"),
      qos_deferred_cmds_("nvmeshare.engine." + cfg_.backend + ".qos.deferred_cmds") {
  // Buckets start full: a client gets its burst allowance up front, then
  // settles to the steady-state rate.
  qos_cmds_.arm(cfg_.qos_iops_limit, cfg_.qos_burst_cmds, engine_.now());
  qos_bytes_.arm(cfg_.qos_bytes_per_s, cfg_.qos_burst_bytes, engine_.now());
  slots_ = std::make_unique<sim::Semaphore>(engine_, total_depth());
  channels_.reserve(cfg_.channels);
  for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
    auto ch = std::make_unique<Channel>(
        engine_, "nvmeshare.engine." + cfg_.backend + ".qp" + std::to_string(c));
    ch->recovered.set();  // no recovery in progress
    // Free-list in descending order so pop_back() hands out slot 0 first
    // (the pre-engine drivers did the same; bounce addresses stay stable).
    ch->free_slots.resize(cfg_.queue_depth);
    for (std::uint32_t i = 0; i < cfg_.queue_depth; ++i) {
      ch->free_slots[i] = cfg_.queue_depth - 1 - i;
    }
    channels_.push_back(std::move(ch));
  }
}

// --- scheduling ---------------------------------------------------------------

std::uint32_t IoEngine::pick_channel() {
  // Two passes: channels mid-recovery only get new work when no surviving
  // channel has capacity (their run() loops then wait on the recovered
  // event, so nothing is lost — just queued behind the rebuild).
  for (int pass = 0; pass < 2; ++pass) {
    const bool allow_recovering = pass == 1;
    if (cfg_.scheduler == Scheduler::least_inflight) {
      std::uint32_t best = cfg_.channels;
      for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
        Channel& ch = *channels_[c];
        if (ch.free_slots.empty() || (ch.recovering && !allow_recovering)) continue;
        if (best == cfg_.channels || ch.inflight < channels_[best]->inflight) best = c;
      }
      if (best != cfg_.channels) return best;
    } else {
      for (std::uint32_t i = 0; i < cfg_.channels; ++i) {
        const std::uint32_t c = (rr_cursor_ + i) % cfg_.channels;
        Channel& ch = *channels_[c];
        if (ch.free_slots.empty() || (ch.recovering && !allow_recovering)) continue;
        rr_cursor_ = (c + 1) % cfg_.channels;
        return c;
      }
    }
  }
  // Unreachable: the slot semaphore admitted us, so some channel has a slot.
  return 0;
}

sim::Future<IoEngine::Grant> IoEngine::acquire() {
  sim::Promise<Grant> promise(engine_);
  acquire_task(promise);
  return promise.future();
}

sim::Task IoEngine::acquire_task(sim::Promise<Grant> promise) {
  co_await slots_->acquire();
  const std::uint32_t chan = pick_channel();
  Channel& ch = *channels_[chan];
  const std::uint32_t local = ch.free_slots.back();
  ch.free_slots.pop_back();
  ++ch.inflight;
  ch.inflight_gauge.set(ch.inflight);
  promise.set(Grant{chan, chan * cfg_.queue_depth + local});
}

void IoEngine::release(const Grant& grant) {
  Channel& ch = *channels_[grant.chan];
  ch.free_slots.push_back(grant.slot % cfg_.queue_depth);
  --ch.inflight;
  ch.inflight_gauge.set(ch.inflight);
  slots_->release();
}

// --- doorbell coalescing ------------------------------------------------------

sim::Task IoEngine::flush_task(std::uint32_t chan, std::shared_ptr<FlushBatch> batch) {
  co_await sim::delay(engine_, cfg_.doorbell_ns);
  Channel& ch = *channels_[chan];
  // Close the batch before ringing: commands issued from here on start a
  // fresh burst (they were not covered by this tail store).
  if (ch.open_batch == batch) ch.open_batch = nullptr;
  batch->status = *stop_ ? Status(Errc::aborted, "stopped") : transport_.ring(chan);
  ++ch.doorbell_writes;
  ch.coalesced_cmds += batch->staged;
  batch->done.set();
}

sim::Future<Status> IoEngine::flush(std::uint32_t chan) {
  sim::Promise<Status> promise(engine_);
  flush_wait_task(chan, promise);
  return promise.future();
}

sim::Task IoEngine::flush_wait_task(std::uint32_t chan, sim::Promise<Status> promise) {
  Channel& ch = *channels_[chan];
  if (!cfg_.coalesce_doorbells) {
    // Seed behavior: every command pays the doorbell cost and rings.
    co_await sim::delay(engine_, cfg_.doorbell_ns);
    ++ch.doorbell_writes;
    ++ch.coalesced_cmds;
    promise.set(*stop_ ? Status(Errc::aborted, "stopped") : transport_.ring(chan));
    co_return;
  }
  std::shared_ptr<FlushBatch> batch = ch.open_batch;
  if (!batch) {
    batch = std::make_shared<FlushBatch>(engine_);
    ch.open_batch = batch;
    flush_task(chan, batch);
  }
  ++batch->staged;
  (void)co_await batch->done.wait();
  promise.set(batch->status);
}

std::uint64_t IoEngine::doorbell_writes() const {
  std::uint64_t total = 0;
  for (const auto& ch : channels_) total += ch->doorbell_writes.value();
  return total;
}

std::uint64_t IoEngine::coalesced_cmds() const {
  std::uint64_t total = 0;
  for (const auto& ch : channels_) total += ch->coalesced_cmds.value();
  return total;
}

// --- pending-command arena ----------------------------------------------------

IoEngine::PendingCmd* IoEngine::alloc_cmd() {
  PendingCmd* cmd;
  if (cmd_free_ != nullptr) {
    cmd = cmd_free_;
    cmd_free_ = cmd->next_free;
  } else {
    if (cmd_chunk_used_ == kCmdChunk) {
      cmd_chunks_.push_back(std::make_unique<PendingCmd[]>(kCmdChunk));
      cmd_chunk_used_ = 0;
    }
    cmd = &cmd_chunks_.back()[cmd_chunk_used_++];
  }
  cmd->outcome = CmdOutcome{};
  cmd->waiter = nullptr;
  cmd->resolved = false;
  cmd->next_free = nullptr;
  return cmd;
}

void IoEngine::free_cmd(PendingCmd* cmd) noexcept {
  cmd->next_free = cmd_free_;
  cmd_free_ = cmd;
}

IoEngine::PendingCmd* IoEngine::lookup(std::uint32_t chan, std::uint16_t token) const {
  const auto& table = channels_[chan]->pending;
  return token < table.size() ? table[token] : nullptr;
}

bool IoEngine::arm(std::uint32_t chan, std::uint16_t token, PendingCmd* cmd) {
  // Token-table growth is capped at the largest token a well-behaved
  // transport can hand out (NVMe cid < ring entries, message cid < total
  // depth). A token past the cap is a transport bug: refuse to arm instead
  // of letting one corrupt cid grow the table without bound.
  if (token >= token_cap()) {
    NVS_LOG(error, "engine") << cfg_.backend << " chan " << chan
                             << " completion token " << token << " beyond cap "
                             << token_cap() << "; refusing to arm";
    return false;
  }
  auto& table = channels_[chan]->pending;
  if (token >= table.size()) table.resize(token + 1, nullptr);
  table[token] = cmd;
  ++pending_count_;
  return true;
}

void IoEngine::disarm(std::uint32_t chan, std::uint16_t token) noexcept {
  // Mirror lookup()'s bounds check: a transport-issued token beyond the
  // armed range must be a no-op, not an out-of-bounds store (and a slot
  // that is already empty must not underflow pending_count_).
  auto& table = channels_[chan]->pending;
  if (token >= table.size() || table[token] == nullptr) return;
  table[token] = nullptr;
  if (--pending_count_ == 0) transport_.on_idle();
}

void IoEngine::resolve(PendingCmd* cmd, CmdOutcome outcome) {
  cmd->outcome = std::move(outcome);
  cmd->resolved = true;
  // Wake through the engine queue, never inline — the same deterministic
  // deferred resume sim::Promise::set performed. No waiter means run_task
  // has not reached its co_await yet; it will see `resolved` and continue
  // without suspending.
  if (cmd->waiter) {
    engine_.at(engine_.now(), [h = cmd->waiter]() { h.resume(); });
  }
}

// --- submission/completion/retry core ----------------------------------------

sim::Future<CmdOutcome> IoEngine::run(RunArgs args) {
  sim::Promise<CmdOutcome> promise(engine_);
  run_task(args, promise);
  return promise.future();
}

sim::Task IoEngine::run_task(RunArgs args, sim::Promise<CmdOutcome> promise) {
  auto stop = stop_;
  const std::uint32_t chan = args.grant.chan;
  obs::Tracer& tracer = obs::Tracer::global();
  const std::uint16_t qid = transport_.trace_qid(chan);
  auto mark = [&](obs::Phase phase, std::uint16_t cid = 0) {
    if (args.ph != nullptr) args.ph->mark(phase, engine_.now(), qid, cid);
  };
  auto fail = [&](CmdOutcome::Kind kind, Status st = Status::ok()) {
    CmdOutcome out;
    out.kind = kind;
    out.transport = std::move(st);
    promise.set(std::move(out));
  };

  // QoS pacing: charge the token buckets once per command (retries ride the
  // original charge) and sleep off any deficit before touching the ring.
  // Disarmed buckets charge nothing, so unconfigured runs are untouched.
  if (qos_enabled()) {
    const sim::Duration stall = std::max(qos_cmds_.charge(engine_.now(), 1),
                                         qos_bytes_.charge(engine_.now(), args.bytes));
    if (stall > 0) {
      ++qos_deferred_cmds_;
      qos_throttle_ns_ += static_cast<std::uint64_t>(stall);
      co_await sim::delay(engine_, stall);
      if (*stop) {
        fail(CmdOutcome::Kind::aborted);
        co_return;
      }
    }
  }

  std::uint32_t attempt = 0;
  bool recovered_once = false;
  for (;;) {
    if (channels_[chan]->recovering) {
      // A channel rebuild is in flight; wait for the fresh rings.
      (void)co_await channels_[chan]->recovered.wait();
    }
    if (*stop) {
      fail(CmdOutcome::Kind::aborted);
      co_return;
    }
    auto token = transport_.issue(chan, args.cookie);
    if (!token) {
      // Issue fails when the queue memory is unreachable (NTB link down) or
      // the ring is full of timed-out entries; both deserve a bounded retry.
      if (cfg_.cmd_timeout_ns == 0 || attempt >= cfg_.cmd_retry_limit) {
        // Budget spent with issue itself refusing: grant the same one-shot
        // channel rebuild as the timeout path below. This matters for
        // narrow tenant CID windows — a lost CQE leaves its CID busy until
        // a rebuild, and once a window is fully clogged with leaked CIDs no
        // command can issue, so nothing would ever reach the timeout path
        // to request the rebuild (a permanent wedge, not a transient).
        if (cfg_.cmd_timeout_ns > 0 && !recovered_once) {
          recovered_once = true;
          attempt = 0;
          request_recovery(chan);
          mark(obs::Phase::recovery);
          continue;
        }
        fail(CmdOutcome::Kind::transport_error, token.status());
        co_return;
      }
      ++attempt;
      if (cfg_.counters.retries != nullptr) ++*cfg_.counters.retries;
      co_await sim::delay(engine_, backoff_ns(cfg_.retry_backoff_ns, attempt, cfg_.retry_backoff_max_ns));
      mark(obs::Phase::recovery);
      continue;
    }
    // The command store is a posted write (no simulated CPU stall), so this
    // span has zero duration — it anchors the phase sequence and carries the
    // (qid, cid) the device-side spans correlate on.
    if (cfg_.trace_style == TraceStyle::nvme) mark(obs::Phase::sq_write, *token);
    if (cfg_.trace_style != TraceStyle::none && args.trace != 0) {
      tracer.bind(qid, *token, args.trace);
    }
    const std::uint64_t seq = ++cmd_seq_;
    PendingCmd* cmd = alloc_cmd();
    cmd->seq = seq;
    if (!arm(chan, *token, cmd)) {
      free_cmd(cmd);
      if (cfg_.trace_style != TraceStyle::none && args.trace != 0) {
        tracer.unbind(qid, *token);
      }
      fail(CmdOutcome::Kind::transport_error,
           Status(Errc::internal, "completion token beyond pending-table cap"));
      co_return;
    }
    transport_.on_armed(chan);  // completions are coming: wake an idle poller

    if (cfg_.cmd_timeout_ns > 0) {
      // Deadline watchdog: resolves the wait with timed_out unless the real
      // completion (or a recovery sweep) got there first. `seq` guards
      // against the token having been reused by a later submission.
      engine_.after(cfg_.cmd_timeout_ns, [this, stop, chan, token = *token, seq]() {
        if (*stop) return;
        PendingCmd* doomed = lookup(chan, token);
        if (doomed == nullptr || doomed->seq != seq) return;
        disarm(chan, token);
        if (cfg_.counters.timeouts != nullptr) ++*cfg_.counters.timeouts;
        CmdOutcome out;
        out.kind = CmdOutcome::Kind::timed_out;
        resolve(doomed, std::move(out));
      });
    }

    // Doorbell-latency delay, then one tail store for the burst this
    // command joined (or its own store when coalescing is off).
    Status rung = co_await flush(chan);
    if (!rung && transport_.ring_failure_fails_attempt()) {
      // Message transports: the SEND is the submission, so a failed ring
      // dooms the staged attempt. Unarm it (seq-guarded) and retry. Nobody
      // awaits this command yet, so any resolution that raced in during the
      // flush is dropped with the node.
      if (PendingCmd* armed = lookup(chan, *token); armed == cmd && cmd->seq == seq) {
        disarm(chan, *token);
      }
      free_cmd(cmd);
      if (cfg_.trace_style != TraceStyle::none && args.trace != 0) {
        tracer.unbind(qid, *token);
      }
      if (cfg_.cmd_timeout_ns == 0 || attempt >= cfg_.cmd_retry_limit) {
        fail(CmdOutcome::Kind::transport_error, std::move(rung));
        co_return;
      }
      ++attempt;
      if (cfg_.counters.retries != nullptr) ++*cfg_.counters.retries;
      co_await sim::delay(engine_, backoff_ns(cfg_.retry_backoff_ns, attempt, cfg_.retry_backoff_max_ns));
      mark(obs::Phase::recovery);
      continue;
    }
    if (cfg_.trace_style == TraceStyle::nvme) {
      mark(obs::Phase::doorbell, *token);
    } else if (cfg_.trace_style == TraceStyle::fabric) {
      mark(obs::Phase::capsule_send, *token);
    }

    CmdOutcome outcome = co_await OutcomeAwaiter{cmd};
    free_cmd(cmd);
    outcome.token = *token;
    mark(obs::Phase::cq_wait, *token);
    if (cfg_.trace_style != TraceStyle::none && args.trace != 0) {
      tracer.unbind(qid, *token);
    }
    if (*stop) {
      fail(CmdOutcome::Kind::aborted);
      co_return;
    }
    const bool retry_status = outcome.kind == CmdOutcome::Kind::completed &&
                              outcome.status != 0 && cfg_.cmd_timeout_ns > 0 &&
                              transport_.retryable(outcome.status);
    if (outcome.kind == CmdOutcome::Kind::completed && !retry_status) {
      promise.set(std::move(outcome));  // genuine completion: success or final error
      co_return;
    }
    ++attempt;
    if (attempt <= cfg_.cmd_retry_limit) {
      if (cfg_.counters.retries != nullptr) ++*cfg_.counters.retries;
      co_await sim::delay(engine_, backoff_ns(cfg_.retry_backoff_ns, attempt, cfg_.retry_backoff_max_ns));
      mark(obs::Phase::recovery);
      continue;
    }
    // Retry budget spent. A command that keeps timing out means the channel
    // itself is broken (lost CQE => permanent phase hole; controller reset
    // => rings deleted); rebuild it once, then run one fresh retry round.
    if (recovered_once) {
      fail(CmdOutcome::Kind::timed_out);
      co_return;
    }
    recovered_once = true;
    attempt = 0;
    request_recovery(chan);
    mark(obs::Phase::recovery);
  }
}

bool IoEngine::complete(std::uint32_t chan, std::uint16_t token, std::uint16_t status,
                        std::uint64_t aux) {
  PendingCmd* cmd = lookup(chan, token);
  if (cmd == nullptr) {
    // Expected under fault injection: the command timed out and was
    // retried, and this is the original submission completing late.
    if (cfg_.counters.late_completions != nullptr) ++*cfg_.counters.late_completions;
    return false;
  }
  disarm(chan, token);
  CmdOutcome out;
  out.kind = CmdOutcome::Kind::completed;
  out.status = status;
  out.aux = aux;
  resolve(cmd, std::move(out));
  return true;
}

// --- recovery -----------------------------------------------------------------

void IoEngine::request_recovery(std::uint32_t chan) {
  Channel& ch = *channels_[chan];
  if (ch.recovering || *stop_) return;
  ch.recovering = true;
  ch.recovered.reset();
  if (cfg_.counters.recoveries != nullptr) ++*cfg_.counters.recoveries;
  transport_.start_recovery(chan);
}

void IoEngine::fail_pending(std::uint32_t chan) {
  // Collect first: resolve() schedules resumptions that may submit again
  // and re-populate the table while we iterate. Ascending token order
  // preserves the wake order of the old sorted pending map.
  auto& table = channels_[chan]->pending;
  std::vector<PendingCmd*> doomed;
  for (auto& slot : table) {
    if (slot == nullptr) continue;
    doomed.push_back(slot);
    slot = nullptr;
    if (--pending_count_ == 0) transport_.on_idle();
  }
  for (PendingCmd* cmd : doomed) {
    CmdOutcome out;
    out.kind = CmdOutcome::Kind::timed_out;
    resolve(cmd, std::move(out));
  }
}

void IoEngine::fail_all_pending() {
  for (std::uint32_t c = 0; c < cfg_.channels; ++c) fail_pending(c);
}

void IoEngine::finish_recovery(std::uint32_t chan) {
  Channel& ch = *channels_[chan];
  ch.recovering = false;
  ch.recovered.set();
}

// --- pi_verify shadow tuples --------------------------------------------------

void IoEngine::enable_pi(mem::PhysMem& dram, std::uint32_t block_size) {
  pi_dram_ = &dram;
  pi_block_size_ = block_size;
}

void IoEngine::pi_note_submit(const Request& request) {
  if (pi_dram_ == nullptr) return;
  if (request.op == Op::write) {
    // Generate the shadow tuples over the user buffer before any copy:
    // everything downstream (bounce copy, DMA, media) is covered.
    const std::uint32_t bs = pi_block_size_;
    Bytes buf(static_cast<std::uint64_t>(request.nblocks) * bs);
    if (!pi_dram_->read(request.buffer_addr, buf)) return;
    auto& istats = integrity::stats();
    for (std::uint32_t i = 0; i < request.nblocks; ++i) {
      const std::uint64_t lba = request.lba + i;
      shadow_pi_[lba] = integrity::generate_pi(
          ConstByteSpan(buf).subspan(static_cast<std::size_t>(i) * bs, bs), lba);
      ++istats.pi_generated;
    }
  } else if (request.op == Op::write_zeroes || request.op == Op::discard) {
    // Deallocation drops the tuples, mirroring the device's PI semantics.
    for (std::uint64_t lba = request.lba; lba < request.lba + request.nblocks; ++lba) {
      shadow_pi_.erase(lba);
    }
  }
}

bool IoEngine::pi_check_read(const Request& request) {
  if (pi_dram_ == nullptr) return true;
  const std::uint32_t bs = pi_block_size_;
  Bytes buf(static_cast<std::uint64_t>(request.nblocks) * bs);
  if (!pi_dram_->read(request.buffer_addr, buf)) return true;
  auto& istats = integrity::stats();
  for (std::uint32_t i = 0; i < request.nblocks; ++i) {
    const std::uint64_t lba = request.lba + i;
    auto it = shadow_pi_.find(lba);
    if (it == shadow_pi_.end()) continue;  // not written by us: nothing to check
    ++istats.pi_verified;
    if (integrity::verify_pi(it->second,
                             ConstByteSpan(buf).subspan(static_cast<std::size_t>(i) * bs, bs),
                             lba) != integrity::PiCheck::ok) {
      return false;
    }
  }
  return true;
}

}  // namespace nvmeshare::block
