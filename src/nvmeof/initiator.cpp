#include "nvmeof/initiator.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "integrity/integrity.hpp"
#include "obs/trace.hpp"

namespace nvmeshare::nvmeof {

namespace {
constexpr std::uint64_t kWrSend = 4ull << 56;
constexpr std::uint64_t kWrRecv = 1ull << 56;
constexpr std::uint64_t kWrSlotMask = (1ull << 56) - 1;
}  // namespace

Initiator::Stats::Stats()
    : RequestStats("nvmeshare.nvmeof_initiator"),
      interrupts("nvmeshare.nvmeof_initiator.interrupts"),
      capsule_timeouts("nvmeshare.nvmeof_initiator.capsule_timeouts"),
      capsule_retries("nvmeshare.nvmeof_initiator.capsule_retries"),
      reconnects("nvmeshare.nvmeof_initiator.reconnects") {}

Initiator::Initiator(sisci::Cluster& cluster, rdma::Network& network, rdma::NodeId node,
                     Config cfg)
    : cluster_(cluster), network_(network), node_(node), cfg_(cfg), rng_(cfg.seed ^ node) {}

Initiator::~Initiator() { *stop_ = true; }

sim::Future<Result<std::unique_ptr<Initiator>>> Initiator::connect(sisci::Cluster& cluster,
                                                                   rdma::Network& network,
                                                                   Target& target,
                                                                   rdma::NodeId node,
                                                                   Config cfg) {
  auto self = std::unique_ptr<Initiator>(new Initiator(cluster, network, node, cfg));
  return sim::spawn(cluster.engine(), connect_steps(std::move(self), &target));
}

sim::Co<Result<std::unique_ptr<Initiator>>> Initiator::connect_steps(
    std::unique_ptr<Initiator> self, Target* target) {
  Initiator& i = *self;
  sim::Engine& engine = i.cluster_.engine();

  block::IoEngine::Config ec;
  ec.backend = "nvmeof";
  ec.channels = i.cfg_.channels;
  ec.queue_depth = i.cfg_.queue_depth;
  ec.queue_entries = 0;  // message transport: no ring wrap to guard
  ec.coalesce_doorbells = i.cfg_.coalesce_doorbells;
  ec.doorbell_ns = i.cfg_.costs.doorbell_ns;
  ec.cmd_timeout_ns = i.cfg_.capsule_timeout_ns;
  ec.cmd_retry_limit = i.cfg_.capsule_retry_limit;
  ec.retry_backoff_ns = i.cfg_.retry_backoff_ns;
  ec.trace_style = block::IoEngine::TraceStyle::fabric;
  ec.counters.requests = &i.stats_;
  ec.counters.timeouts = &i.stats_.capsule_timeouts;
  ec.counters.retries = &i.stats_.capsule_retries;
  ec.counters.recoveries = &i.stats_.reconnects;
  if (Status st = block::IoEngine::validate(ec); !st) co_return st;

  i.target_ = target;
  i.ctx_ = std::make_unique<rdma::Context>(i.network_, i.node_);
  i.cq_ = std::make_unique<rdma::CompletionQueue>(engine);

  const std::uint32_t total_depth = i.cfg_.queue_depth * i.cfg_.channels;
  auto cmd = i.cluster_.alloc_dram(i.node_, total_depth * kCapsuleSlotBytes, 4096);
  auto resp = i.cluster_.alloc_dram(i.node_, total_depth * sizeof(ResponseCapsule), 4096);
  if (!cmd || !resp) {
    co_return Status(Errc::resource_exhausted, "initiator: no DRAM for capsule buffers");
  }
  i.cmd_base_ = *cmd;
  i.resp_base_ = *resp;

  // The kernel initiator DMA-maps request buffers on the fly; model that as
  // one MR covering all of this host's DRAM (data is placed one-sided by
  // the target, so every request buffer must be reachable).
  (void)i.ctx_->register_mr(0, i.cluster_.fabric().host_dram(i.node_).size());

  // One RDMA queue pair per channel, all sharing one completion queue (the
  // kernel initiator's one-QP-per-core layout with a shared EQ).
  i.qps_.resize(i.cfg_.channels, nullptr);
  i.staged_.resize(i.cfg_.channels);
  for (std::uint32_t chan = 0; chan < i.cfg_.channels; ++chan) {
    auto qp = co_await target->accept(*i.ctx_, *i.cq_);
    if (!qp) co_return qp.status();
    i.qps_[chan] = *qp;
    i.post_recv_ring(chan);
  }

  i.capacity_blocks_ = target->controller().capacity_blocks();
  i.block_size_ = target->controller().block_size();
  i.max_transfer_ = target->controller().max_transfer_bytes();

  block::IoTransport& transport = i;
  i.engine_io_ = std::make_unique<block::IoEngine>(engine, transport, i.stop_, ec);
  i.completion_loop(i.stop_);
  NVS_LOG(info, "nvmeof") << "initiator connected from node " << i.node_
                          << (i.cfg_.channels > 1
                                  ? " with " + std::to_string(i.cfg_.channels) + " channels"
                                  : "");
  co_return std::move(self);
}

void Initiator::post_recv_ring(std::uint32_t chan) {
  for (std::uint32_t s = chan * cfg_.queue_depth; s < (chan + 1) * cfg_.queue_depth; ++s) {
    (void)qps_[chan]->post_recv(kWrRecv | s, resp_base_ + s * sizeof(ResponseCapsule),
                                sizeof(ResponseCapsule));
  }
}

// --- block::IoTransport ---------------------------------------------------------------

Result<std::uint16_t> Initiator::issue(std::uint32_t chan, const block::Command* cmd) {
  // A duplicate SEND after a timeout is idempotent: same slot, same cid — a
  // late duplicate response resolves nothing and is dropped by the engine.
  const auto cid = static_cast<std::uint16_t>(cmd->slot);
  staged_[chan].push_back(SendDesc{capsule_addr(cmd->slot), wire_len(cmd->request), cid});
  return cid;
}

Status Initiator::ring(std::uint32_t chan) {
  // Post every capsule staged since the last ring as one SEND burst; the
  // first failure is reported for the whole burst (commands whose SEND did
  // go out are idempotent — a late duplicate response is dropped).
  Status first = Status::ok();
  for (const SendDesc& desc : staged_[chan]) {
    if (Status st = qps_[chan]->post_send(kWrSend | desc.cid, desc.addr, desc.len); !st) {
      if (first) first = st;
    }
  }
  staged_[chan].clear();
  return first;
}

void Initiator::start_recovery(std::uint32_t chan) { reconnect_task(chan, stop_); }

std::uint16_t Initiator::trace_qid(std::uint32_t chan) const {
  // All channels correlate under the node's fabric qid: capsule cids are
  // engine-global, so (qid, cid) stays unique across channels.
  (void)chan;
  return nvmeof_trace_qid(static_cast<std::uint16_t>(node_));
}

sim::Future<block::Completion> Initiator::submit(const block::Request& request) {
  return engine_io_->serve(*this, request);
}

sim::Duration Initiator::cpu_ns(obs::Phase phase) {
  return cfg_.costs.jittered(
      phase == obs::Phase::submit ? cfg_.costs.submit_ns : cfg_.costs.completion_ns, rng_);
}

std::uint32_t Initiator::wire_len(const block::Request& request) const {
  // Small writes ride in-capsule (the NIC gathers payload from the request
  // buffer; no CPU copy), like SPDK's in-capsule data path.
  const std::uint32_t data_len = request.nblocks * block_size_;
  const bool inline_data = request.op == block::Op::write && data_len <= kInlineDataMax;
  return sizeof(CommandCapsule) + (inline_data ? data_len : 0);
}

block::Step Initiator::prepare(const block::Command& cmd, std::uint32_t step) {
  (void)step;
  const block::Request& request = cmd.request;
  static constexpr FabricOp kOps[] = {FabricOp::read, FabricOp::write, FabricOp::flush,
                                      FabricOp::write_zeroes, FabricOp::discard};  // by block::Op
  CommandCapsule capsule;
  capsule.opcode = static_cast<std::uint8_t>(kOps[static_cast<std::size_t>(request.op)]);
  capsule.cid = static_cast<std::uint16_t>(cmd.slot);
  capsule.slba = request.lba;
  capsule.nblocks = request.nblocks;
  capsule.initiator_data_addr = request.buffer_addr;
  if (request.op == block::Op::read || request.op == block::Op::write) {
    capsule.data_len = request.nblocks * block_size_;
  }
  if (wire_len(request) > sizeof(CommandCapsule)) capsule.flags |= kFlagInlineData;
  const std::uint64_t addr = capsule_addr(cmd.slot);
  mem::PhysMem& dram = cluster_.fabric().host_dram(node_);
  if (cfg_.data_digest && request.op == block::Op::write && capsule.data_len > 0) {
    // DDGST over the payload as it leaves the application buffer; the
    // target re-computes it after the payload lands on its side.
    auto digest = memory_digest(dram, request.buffer_addr, capsule.data_len);
    if (!digest) return digest.status();
    capsule.data_digest = *digest;
    ++integrity::stats().digests_generated;
  }
  (void)dram.write(addr, as_bytes_of(capsule));
  if ((capsule.flags & kFlagInlineData) != 0) {
    if (Status st = dram.copy_from(addr + sizeof(CommandCapsule), dram, request.buffer_addr,
                                   capsule.data_len);
        !st) {
      return st;
    }
  }
  return {};
}

block::Step Initiator::settle(const block::Command& cmd, const block::CmdOutcome& outcome) {
  // Verify the digest the target computed over the read payload it pushed.
  // A mismatch means the data was damaged in flight — the media copy is
  // intact, so a re-send heals it.
  const block::Request& request = cmd.request;
  if (!cfg_.data_digest || request.op != block::Op::read || outcome.aux == 0) return {};
  auto digest = memory_digest(cluster_.fabric().host_dram(node_), request.buffer_addr,
                              request.nblocks * block_size_);
  if (!digest) return digest.status();
  if (*digest == outcome.aux) return {};
  ++integrity::stats().digest_errors;
  block::Step out;
  out.status = Status(Errc::io_error, "read payload failed data-digest verify");
  out.mismatch = true;
  return out;
}

sim::Task Initiator::completion_loop(std::shared_ptr<bool> stop) {
  sim::Engine& engine = cluster_.engine();
  mem::PhysMem& dram = cluster_.fabric().host_dram(node_);
  for (;;) {
    if (*stop) co_return;
    auto wc = co_await cq_->pop();
    if (*stop) co_return;
    if (!wc) continue;

    auto process = [this, &dram](const rdma::WorkCompletion& one) {
      if (one.opcode != rdma::WcOpcode::recv) return;  // send completions are free
      if (!one.status) {
        ++stats_.errors;
        return;
      }
      const std::uint32_t buffer = static_cast<std::uint32_t>(one.wr_id & kWrSlotMask);
      ResponseCapsule response;
      (void)dram.read(resp_base_ + buffer * sizeof(ResponseCapsule),
                      as_writable_bytes_of(response));
      // Replenish the RECV ring of the channel this buffer belongs to.
      const std::uint32_t buf_chan = buffer / cfg_.queue_depth;
      (void)qps_[buf_chan]->post_recv(kWrRecv | buffer,
                                      resp_base_ + buffer * sizeof(ResponseCapsule),
                                      sizeof(ResponseCapsule));
      // The cid is the engine-global slot; its channel is implied. An
      // unknown cid is a late duplicate of a timed-out command, dropped
      // like a real initiator would.
      const std::uint32_t cid_chan = response.cid / cfg_.queue_depth;
      if (cid_chan < cfg_.channels) {
        (void)engine_io_->complete(cid_chan, response.cid, response.status,
                                   response.data_digest);
      }
    };

    // One interrupt wakes the handler, which then drains every completion
    // that arrived meanwhile (interrupt coalescing; the per-request
    // software cost is charged by the request lifecycle, not here).
    ++stats_.interrupts;
    co_await sim::delay(engine, cfg_.costs.jittered(cfg_.costs.irq_delivery_ns, rng_));
    if (*stop) co_return;
    process(*wc);
    while (auto more = cq_->poll()) process(*more);
  }
}

// --- fault recovery -------------------------------------------------------------------

// Connection re-establishment for one channel: fail out its in-flight waits
// (their requests replay through the engine's retry loop once the fresh
// queue pair exists) and accept a new connection from the same target. The
// old RDMA queue pair and its posted RECVs are abandoned — a bounded leak
// per reconnect, like a real RC QP left in the error state until teardown.
sim::Task Initiator::reconnect_task(std::uint32_t chan, std::shared_ptr<bool> stop) {
  sim::Engine& engine = cluster_.engine();
  const sim::Time begin = engine.now();
  NVS_LOG(warn, "nvmeof") << "initiator on node " << node_ << " reconnecting channel "
                          << chan << " to target";

  engine_io_->fail_pending(chan);

  auto qp = co_await target_->accept(*ctx_, *cq_);
  if (!*stop && qp) {
    qps_[chan] = *qp;
    // Fresh RECV ring on the new queue pair (same response buffers).
    post_recv_ring(chan);
    NVS_LOG(info, "nvmeof") << "initiator reconnected in " << (engine.now() - begin)
                            << " ns";
  } else if (!qp) {
    NVS_LOG(error, "nvmeof") << "initiator reconnect failed: " << qp.status().message();
  }

  obs::Tracer::global().record_recovery(obs::Track::client, begin, engine.now(),
                                        trace_qid(chan));
  engine_io_->finish_recovery(chan);
}

}  // namespace nvmeshare::nvmeof
