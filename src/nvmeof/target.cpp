#include "nvmeof/target.hpp"

#include <optional>

#include "common/log.hpp"
#include "integrity/integrity.hpp"
#include "obs/trace.hpp"

namespace nvmeshare::nvmeof {

using nvme::CompletionEntry;
using nvme::SubmissionEntry;

namespace {
// wr_id tags: kind in the top byte, slot index below.
constexpr std::uint64_t kWrRecv = 1ull << 56;
constexpr std::uint64_t kWrRdmaRead = 2ull << 56;
constexpr std::uint64_t kWrRdmaWrite = 3ull << 56;
constexpr std::uint64_t kWrSend = 4ull << 56;
constexpr std::uint64_t kWrSlotMask = (1ull << 56) - 1;
/// The kinds a command awaits completions of, each with one table row per
/// slot, starting at kWrRdmaRead.
constexpr std::uint64_t kWrAwaitedKinds = 3;

/// Row of `wr_id` in a connection's wr_pending table, or nullopt for an id
/// no command awaits (a RECV, or a kind or slot out of range).
std::optional<std::size_t> wr_row(std::uint64_t wr_id, std::uint32_t slots) {
  const std::uint64_t kind = (wr_id >> 56) - (kWrRdmaRead >> 56);
  const std::uint64_t slot = wr_id & kWrSlotMask;
  if (kind >= kWrAwaitedKinds || slot >= slots) return std::nullopt;
  return static_cast<std::size_t>(kind * slots + slot);
}

/// Attribute a target-side span to the initiator request that sent the
/// capsule, via the tracer binding the initiator made under its fabric
/// pseudo-qid (see nvmeof_trace_qid in capsule.hpp).
void trace_target_span(std::uint16_t qid, std::uint16_t cid, obs::Phase phase, sim::Time begin,
                       sim::Time end) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.enabled()) return;
  if (const std::uint64_t trace = tracer.lookup(qid, cid); trace != 0) {
    tracer.record(trace, obs::Track::target, phase, begin, end, qid, cid);
  }
}

/// The NVMe command a fabric opcode becomes; nullopt for an unknown one.
std::optional<nvme::IoOpcode> nvme_opcode(FabricOp op) {
  switch (op) {
    case FabricOp::read: return nvme::IoOpcode::read;
    case FabricOp::write: return nvme::IoOpcode::write;
    case FabricOp::flush: return nvme::IoOpcode::flush;
    case FabricOp::write_zeroes: return nvme::IoOpcode::write_zeroes;
    case FabricOp::discard: return nvme::IoOpcode::dataset_management;
  }
  return std::nullopt;
}

/// Whether a capsule's sizes are consistent. It arrives from another host,
/// so nothing is trusted: the payload must fit the staging slot (and the
/// receive slot, when inline), a block count must fit the 16-bit NLB field
/// without wrapping, and a transfer must move exactly the blocks it names.
bool capsule_sizes_valid(const CommandCapsule& capsule, std::uint64_t slot_bytes,
                         std::uint32_t block_size) {
  const auto op = static_cast<FabricOp>(capsule.opcode);
  const bool transfer = op == FabricOp::read || op == FabricOp::write;
  if (capsule.data_len > slot_bytes) return false;
  if ((capsule.flags & kFlagInlineData) != 0 && capsule.data_len > kInlineDataMax) return false;
  if ((transfer || op == FabricOp::write_zeroes) &&
      (capsule.nblocks == 0 || capsule.nblocks > 0xFFFF)) {
    return false;
  }
  return !transfer ||
         capsule.data_len == static_cast<std::uint64_t>(capsule.nblocks) * block_size;
}
}  // namespace

Target::Stats::Stats()
    : commands("nvmeshare.nvmeof_target.commands"),
      reads("nvmeshare.nvmeof_target.reads"),
      writes("nvmeshare.nvmeof_target.writes"),
      errors("nvmeshare.nvmeof_target.errors") {}

Target::Target(sisci::Cluster& cluster, rdma::Network& network, Config cfg)
    : cluster_(cluster), network_(network), cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.hardware_offload) {
    // NIC-firmware capsule handling: tiny fixed pipeline costs instead of
    // the host software path; the network and NVMe costs are untouched,
    // which is why offloading barely moves end-to-end latency.
    cfg_.costs.submit_ns = 150;
    cfg_.costs.completion_ns = 100;
    cfg_.costs.poll_interval_ns = 100;
    cfg_.costs.jitter_sigma = 0.01;
  }
}

Target::~Target() {
  *stop_ = true;
  for (auto& conn : connections_) {
    if (conn->poll_timer != nullptr) conn->poll_timer->notify();  // reactors see the stop
    conn->poll_timer = nullptr;
    conn->cq->set_poll_timer(nullptr);
    conn->cq_watch.reset();
  }
}

std::uint64_t Target::slot_bytes() const { return ctrl_->max_transfer_bytes(); }

sim::Future<Result<std::unique_ptr<Target>>> Target::start(sisci::Cluster& cluster,
                                                           fabric::EndpointId endpoint,
                                                           rdma::Network& network, Config cfg) {
  return sim::spawn(cluster.engine(),
                    start_steps(std::unique_ptr<Target>(new Target(cluster, network, cfg)),
                                endpoint));
}

sim::Co<Result<std::unique_ptr<Target>>> Target::start_steps(std::unique_ptr<Target> self,
                                                             fabric::EndpointId endpoint) {
  Target& t = *self;
  driver::BareController::Config bc;
  bc.costs = t.cfg_.costs;
  auto ctrl = co_await driver::BareController::init(t.cluster_, endpoint, bc);
  if (!ctrl) co_return ctrl.status();
  t.ctrl_ = std::move(*ctrl);
  t.ctx_ = std::make_unique<rdma::Context>(t.network_, t.ctrl_->host());
  NVS_LOG(info, "nvmeof") << "target up on host " << t.ctrl_->host();
  co_return std::move(self);
}

sim::Future<Result<rdma::QueuePair*>> Target::accept(rdma::Context& initiator_ctx,
                                                     rdma::CompletionQueue& initiator_cq) {
  return sim::spawn(cluster_.engine(), accept_steps(&initiator_ctx, &initiator_cq));
}

sim::Co<Result<rdma::QueuePair*>> Target::accept_steps(rdma::Context* initiator_ctx,
                                                       rdma::CompletionQueue* initiator_cq) {
  auto conn = std::make_unique<Connection>();
  sim::Engine& engine = cluster_.engine();
  const fabric::HostId host = ctrl_->host();
  const std::uint64_t sb = slot_bytes();

  conn->cq = std::make_unique<rdma::CompletionQueue>(engine);
  conn->wr_pending.resize(kWrAwaitedKinds * kCommandSlots);
  conn->nvme_pending.resize(cfg_.queue_entries);
  auto [qp_target, qp_initiator] = network_.create_qp_pair(*ctx_, *conn->cq, *initiator_ctx,
                                                           *initiator_cq);
  conn->qp = qp_target;

  auto recv = cluster_.alloc_dram(host, kCommandSlots * kCapsuleSlotBytes, 4096);
  auto resp = cluster_.alloc_dram(host, kCommandSlots * sizeof(ResponseCapsule), 4096);
  auto staging = cluster_.alloc_dram(host, kCommandSlots * sb, 4096);
  auto prp = cluster_.alloc_dram(host, kCommandSlots * nvme::kPageSize, 4096);
  auto sq = cluster_.alloc_dram(host, cfg_.queue_entries * 64ull, 4096);
  auto cq = cluster_.alloc_dram(host, cfg_.queue_entries * 16ull, 4096);
  if (!recv || !resp || !staging || !prp || !sq || !cq) {
    co_return Status(Errc::resource_exhausted, "target: no DRAM for connection");
  }
  conn->recv_base = *recv;
  conn->resp_base = *resp;
  conn->staging_base = *staging;
  conn->prp_base = *prp;
  conn->sq_addr = *sq;
  conn->cq_addr = *cq;
  // Zero queue memory: stale phase bits would alias as completions.
  {
    mem::PhysMem& d = cluster_.fabric().host_dram(host);
    (void)d.write(conn->sq_addr, Bytes(cfg_.queue_entries * 64ull, std::byte{0}));
    (void)d.write(conn->cq_addr, Bytes(cfg_.queue_entries * 16ull, std::byte{0}));
  }

  (void)ctx_->register_mr(conn->recv_base, kCommandSlots * kCapsuleSlotBytes);
  (void)ctx_->register_mr(conn->resp_base, kCommandSlots * sizeof(ResponseCapsule));
  (void)ctx_->register_mr(conn->staging_base, kCommandSlots * sb);

  // Staging slots never move: prewrite one PRP list per slot.
  mem::PhysMem& dram = cluster_.fabric().host_dram(host);
  Bytes list((sb / nvme::kPageSize - 1) * 8);
  for (std::uint32_t slot = 0; slot < kCommandSlots; ++slot) {
    nvme::fill_prp_list(conn->staging_base + slot * sb, sb, list);
    (void)dram.write(conn->prp_base + slot * nvme::kPageSize, list);
  }

  auto qid = co_await sim::spawn(
      engine, ctrl_->create_queue_pair(conn->sq_addr, cfg_.queue_entries, conn->cq_addr,
                                       cfg_.queue_entries, std::nullopt /* polled */));
  if (!qid) co_return qid.status();
  conn->qid = *qid;

  nvme::QueuePair::Config qc;
  qc.qid = conn->qid;
  qc.sq_size = cfg_.queue_entries;
  qc.cq_size = cfg_.queue_entries;
  qc.sq_write_addr = conn->sq_addr;
  qc.cq_poll_addr = conn->cq_addr;
  qc.sq_doorbell_addr = ctrl_->sq_doorbell(conn->qid);
  qc.cq_doorbell_addr = ctrl_->cq_doorbell(conn->qid);
  qc.cpu = cluster_.fabric().cpu(host);
  conn->nvme_qp = std::make_unique<nvme::QueuePair>(cluster_.fabric(), qc);

  for (std::uint32_t slot = 0; slot < kCommandSlots; ++slot) {
    (void)conn->qp->post_recv(kWrRecv | slot, conn->recv_base + slot * kCapsuleSlotBytes,
                              kCapsuleSlotBytes);
  }

  Connection* raw = conn.get();
  connections_.push_back(std::move(conn));
  connection_loop(raw, stop_);
  auto cq_watch = cluster_.fabric().watch_writes(host, raw->cq_addr,
                                                 cfg_.queue_entries * 16ull, *raw->poll_timer);
  if (!cq_watch) co_return cq_watch.status();
  raw->cq_watch = std::move(*cq_watch);
  NVS_LOG(info, "nvmeof") << "target accepted connection (nvme qid " << raw->qid << ")";
  co_return qp_initiator;
}

sim::Task Target::connection_loop(Connection* conn, std::shared_ptr<bool> stop) {
  sim::Engine& engine = cluster_.engine();
  auto route = [this, conn, &stop](const rdma::WorkCompletion& wc) {
    const std::uint64_t kind = wc.wr_id & ~kWrSlotMask;
    if (kind == kWrRecv) {
      if (!wc.status) {
        ++stats_.errors;
        return;
      }
      ++conn->inflight;
      handle_command(conn, static_cast<std::uint32_t>(wc.wr_id & kWrSlotMask), stop);
      return;
    }
    const std::optional<std::size_t> row = wr_row(wc.wr_id, kCommandSlots);
    if (row && conn->wr_pending[*row]) {
      auto promise = std::move(*conn->wr_pending[*row]);
      conn->wr_pending[*row].reset();
      promise.set(wc);
    }
  };

  // A round that finds no work is skipped by the engine (sim::PollTimer).
  sim::PollTimer timer(engine);
  conn->poll_timer = &timer;
  conn->cq->set_poll_timer(&timer);
  for (;;) {
    if (*stop) co_return;
    if (conn->inflight == 0) {
      // Idle: sleep until the NIC delivers something (poll-mode reactors
      // spin in reality; the latency effect is identical and this keeps
      // the event count bounded).
      auto wc = co_await conn->cq->pop();
      if (*stop) co_return;
      timer.clear();  // this round reads everything a notify stood for
      if (wc) route(*wc);
      continue;
    }
    while (auto wc = conn->cq->poll()) route(*wc);
    conn->nvme_qp->drain([&](const nvme::CompletionEntry& cqe) {
      if (cqe.cid < conn->nvme_pending.size() && conn->nvme_pending[cqe.cid]) {
        auto promise = std::move(*conn->nvme_pending[cqe.cid]);
        conn->nvme_pending[cqe.cid].reset();
        promise.set(cqe);
      }
    });
    co_await sim::poll_tick(engine, timer,
                            std::max<sim::Duration>(cfg_.costs.poll_interval_ns, 100));
  }
}

sim::Task Target::handle_command(Connection* conn, std::uint32_t slot,
                                 std::shared_ptr<bool> stop) {
  sim::Engine& engine = cluster_.engine();
  mem::PhysMem& dram = cluster_.fabric().host_dram(ctrl_->host());
  ++stats_.commands;

  auto finish = [&]() {
    // Back to idle: the reactor's next round parks on the RDMA CQ.
    if (--conn->inflight == 0 && conn->poll_timer != nullptr) conn->poll_timer->notify();
  };
  // The wr_pending entry a work request of this slot resolves.
  auto pending_wr = [&](std::uint64_t wr) -> std::optional<sim::Promise<rdma::WorkCompletion>>& {
    return conn->wr_pending[*wr_row(wr, kCommandSlots)];
  };

  CommandCapsule capsule;
  (void)dram.read(conn->recv_base + slot * kCapsuleSlotBytes, as_writable_bytes_of(capsule));
  // Whether the write payload at `addr` still carries the capsule's digest
  // (true without one). A mismatch counts as a digest error; a range that
  // cannot be read fails the check too.
  auto write_digest_holds = [&](std::uint64_t addr) {
    if (capsule.data_digest == 0) return true;
    auto digest = memory_digest(dram, addr, capsule.data_len);
    if (digest && *digest != capsule.data_digest) ++integrity::stats().digest_errors;
    return digest && *digest == capsule.data_digest;
  };
  const std::uint16_t trace_qid =
      nvmeof_trace_qid(static_cast<std::uint16_t>(conn->qp->peer()->node()));

  // Per-command target software: decode capsule, prep the NVMe command.
  const sim::Time decode_begin = engine.now();
  co_await sim::delay(engine, cfg_.costs.jittered(cfg_.costs.submit_ns, rng_));
  trace_target_span(trace_qid, capsule.cid, obs::Phase::submit, decode_begin, engine.now());
  if (*stop) {
    finish();
    co_return;
  }

  const std::uint64_t staging = conn->staging_base + slot * slot_bytes();
  std::uint16_t nvme_status = 0;
  bool ok = true;

  const auto op = static_cast<FabricOp>(capsule.opcode);
  if (!capsule_sizes_valid(capsule, slot_bytes(), ctrl_->block_size())) {
    ok = false;
    nvme_status = nvme::kScInvalidField;
  }

  // Writes: in-capsule payloads were delivered with the command; larger
  // payloads are pulled from the initiator with a one-sided RDMA READ (a
  // full network round trip the paper's PCIe path never pays).
  if (ok && op == FabricOp::write && capsule.data_len > 0 &&
      (capsule.flags & kFlagInlineData) != 0) {
    ++stats_.writes;
    const std::uint64_t inline_addr =
        conn->recv_base + slot * kCapsuleSlotBytes + sizeof(CommandCapsule);
    // Inline payload damaged on the wire: refuse before it reaches media.
    if (!write_digest_holds(inline_addr) ||
        !dram.copy_from(staging, dram, inline_addr, capsule.data_len)) {
      ok = false;
      nvme_status = nvme::kScDataTransferError;
    }
  } else if (ok && op == FabricOp::write && capsule.data_len > 0) {
    ++stats_.writes;
    const std::uint64_t wr = kWrRdmaRead | slot;
    auto& pending = pending_wr(wr);
    pending.emplace(engine);
    auto fut = pending->future();
    if (Status st = conn->qp->rdma_read(wr, staging, capsule.data_len,
                                        capsule.initiator_data_addr);
        !st) {
      pending.reset();
      ok = false;
      nvme_status = nvme::kScDataTransferError;
    } else {
      const sim::Time pull_begin = engine.now();
      auto wc = co_await fut;
      if (*stop) {
        finish();
        co_return;
      }
      trace_target_span(trace_qid, capsule.cid, obs::Phase::rdma_data, pull_begin,
                        engine.now());
      if (!wc.status) {
        ok = false;
        nvme_status = nvme::kScDataTransferError;
      } else if (!write_digest_holds(staging)) {
        // Verified against what actually landed in staging after the READ.
        ok = false;
        nvme_status = nvme::kScDataTransferError;
      }
    }
  }
  if (op == FabricOp::read) ++stats_.reads;

  // Submit to the local NVMe queue pair.
  const std::optional<nvme::IoOpcode> nvme_op = nvme_opcode(op);
  if (ok && !nvme_op) {
    ok = false;
    nvme_status = nvme::kScInvalidOpcode;
  }
  if (ok) {
    if (op == FabricOp::discard) {
      // Build the range descriptor in this command's staging slot.
      (void)dram.write(staging, nvme::stage_io(*nvme_op, capsule.slba, capsule.nblocks, 0, 0,
                                               staging).list());
    }
    const nvme::PrpPair prp = nvme::make_prps(staging, capsule.data_len,
                                              conn->prp_base + slot * nvme::kPageSize);
    const SubmissionEntry sqe =
        nvme::make_io(*nvme_op, capsule.nsid, capsule.slba,
                      static_cast<std::uint16_t>(capsule.nblocks), prp.prp1, prp.prp2);
    auto cid = conn->nvme_qp->push(sqe);
    if (!cid) {
      ok = false;
      nvme_status = nvme::kScInternalError;
    } else {
      auto& pending = conn->nvme_pending[*cid];
      pending.emplace(engine);
      auto fut = pending->future();
      const sim::Time nvme_begin = engine.now();
      co_await sim::delay(engine, cfg_.costs.doorbell_ns);
      (void)conn->nvme_qp->ring_sq_doorbell();
      CompletionEntry cqe = co_await fut;
      if (*stop) {
        finish();
        co_return;
      }
      trace_target_span(trace_qid, capsule.cid, obs::Phase::media, nvme_begin, engine.now());
      nvme_status = cqe.status();
      ok = cqe.ok();
    }
  }
  if (!ok) ++stats_.errors;

  // Reads: push the data to the initiator's buffer; the response capsule
  // follows on the same QP, so RC ordering keeps data-before-completion.
  sim::Future<rdma::WorkCompletion> write_fut;
  bool pushed_data = false;
  std::uint32_t read_digest = 0;
  if (ok && op == FabricOp::read && capsule.data_len > 0 && cfg_.data_digest) {
    // DDGST over the staged data before the push: the initiator compares
    // it against what actually arrives in its buffer.
    if (auto digest = memory_digest(dram, staging, capsule.data_len)) {
      read_digest = *digest;
      ++integrity::stats().digests_generated;
    } else {
      ok = false;
      nvme_status = nvme::kScDataTransferError;
      ++stats_.errors;
    }
  }
  if (ok && op == FabricOp::read && capsule.data_len > 0) {
    const std::uint64_t wr = kWrRdmaWrite | slot;
    auto& pending = pending_wr(wr);
    pending.emplace(engine);
    write_fut = pending->future();
    if (Status st = conn->qp->rdma_write(wr, staging, capsule.data_len,
                                         capsule.initiator_data_addr);
        !st) {
      pending.reset();
      ok = false;
      nvme_status = nvme::kScDataTransferError;
      ++stats_.errors;
    } else {
      pushed_data = true;
    }
  }

  // Completion path software + the response capsule SEND.
  co_await sim::delay(engine, cfg_.costs.jittered(cfg_.costs.completion_ns, rng_));
  ResponseCapsule response;
  response.cid = capsule.cid;
  response.status = ok ? 0 : (nvme_status != 0 ? nvme_status : nvme::kScInternalError);
  if (ok && pushed_data) response.data_digest = read_digest;
  (void)dram.write(conn->resp_base + slot * sizeof(ResponseCapsule), as_bytes_of(response));

  const std::uint64_t wr_send = kWrSend | slot;
  auto& send_pending = pending_wr(wr_send);
  send_pending.emplace(engine);
  auto send_fut = send_pending->future();
  if (Status st = conn->qp->post_send(wr_send, conn->resp_base + slot * sizeof(ResponseCapsule),
                                      sizeof(ResponseCapsule));
      !st) {
    send_pending.reset();
  } else {
    (void)co_await send_fut;
  }
  if (pushed_data) (void)co_await write_fut;
  if (*stop) {
    finish();
    co_return;
  }

  // Recycle the command slot.
  (void)conn->qp->post_recv(kWrRecv | slot, conn->recv_base + slot * kCapsuleSlotBytes,
                            kCapsuleSlotBytes);
  finish();
}

}  // namespace nvmeshare::nvmeof
