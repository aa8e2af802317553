#include "rdma/rdma.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "fault/fault.hpp"

namespace nvmeshare::rdma {

Network::Stats::Stats()
    : sends("nvmeshare.rdma.sends"),
      rdma_writes("nvmeshare.rdma.rdma_writes"),
      rdma_reads("nvmeshare.rdma.rdma_reads"),
      bytes_moved("nvmeshare.rdma.bytes_moved"),
      rnr_drops("nvmeshare.rdma.rnr_drops"),
      protection_errors("nvmeshare.rdma.protection_errors") {}

// --- Context -------------------------------------------------------------------

Context::~Context() { network_.close(*this); }

Status Context::register_mr(std::uint64_t addr, std::uint64_t len) {
  if (len == 0) return Status(Errc::invalid_argument, "empty MR");
  const std::uint64_t dram = network_.fabric().host_dram(node_).size();
  if (addr > dram || len > dram - addr) {
    return Status(Errc::out_of_range, "MR runs past the end of DRAM");
  }
  mrs_.emplace_back(addr, len);
  return Status::ok();
}

bool Context::covered(std::uint64_t addr, std::uint64_t len) const {
  for (const auto& [base, size] : mrs_) {
    // Overflow-safe form of base <= addr && addr + len <= base + size.
    if (addr >= base && len <= size && addr - base <= size - len) return true;
  }
  return false;
}

// --- Network -------------------------------------------------------------------

sim::Duration Network::message_latency(std::uint64_t bytes) const {
  return cfg_.per_message_ns + cfg_.nic_tx_ns + cfg_.propagation_ns + cfg_.switch_ns +
         cfg_.nic_rx_ns +
         static_cast<sim::Duration>(static_cast<double>(bytes) / cfg_.bytes_per_ns);
}

std::pair<QueuePair*, QueuePair*> Network::create_qp_pair(Context& a, CompletionQueue& cq_a,
                                                          Context& b, CompletionQueue& cq_b) {
  auto qa = std::make_unique<QueuePair>(engine());
  auto qb = std::make_unique<QueuePair>(engine());
  qa->node_ = a.node();
  qa->ctx_ = &a;
  qa->cq_ = &cq_a;
  qa->network_ = this;
  qb->node_ = b.node();
  qb->ctx_ = &b;
  qb->cq_ = &cq_b;
  qb->network_ = this;
  qa->peer_ = qb.get();
  qb->peer_ = qa.get();
  QueuePair* pa = qa.get();
  QueuePair* pb = qb.get();
  qps_.push_back(std::move(qa));
  qps_.push_back(std::move(qb));
  return {pa, pb};
}

void Network::close(const Context& ctx) noexcept {
  for (auto& qp : qps_) {
    if (qp->ctx_ != &ctx) continue;
    qp->ctx_ = nullptr;
    qp->cq_ = nullptr;
  }
}

// --- QueuePair -----------------------------------------------------------------

sim::Time QueuePair::schedule_delivery(sim::Duration latency, std::uint64_t bytes) {
  sim::Engine& engine = network_->engine();
  const NetworkConfig& cfg = network_->config();
  const auto gap = static_cast<sim::Duration>(static_cast<double>(bytes) / cfg.bytes_per_ns) +
                   cfg.per_message_ns;
  const sim::Time at = std::max(engine.now() + latency, out_floor_ + gap);
  out_floor_ = at;
  return at;
}

Status QueuePair::post_recv(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len) {
  if (!ctx_->covered(addr, len)) {
    ++network_->stats_.protection_errors;
    return Status(Errc::permission_denied, "recv buffer not in a registered MR");
  }
  recvs_.push(RecvBuffer{wr_id, addr, len});
  return Status::ok();
}

Status QueuePair::post_send(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len) {
  if (!ctx_->covered(addr, len)) {
    ++network_->stats_.protection_errors;
    return Status(Errc::permission_denied, "send buffer not in a registered MR");
  }
  // Fault injection: a lost SEND leaves the wire silently — the post
  // succeeds but no delivery is scheduled and neither side ever sees a
  // completion, exactly like a wire loss the RC retry budget gave up on.
  fault::Injector* faults = network_->fabric().faults();
  if (faults != nullptr && faults->on_capsule_send()) {
    return Status::ok();
  }
  Network& net = *network_;
  ++net.stats_.sends;
  net.stats_.bytes_moved += len;

  // Snapshot the payload at post time (the HCA DMAs it out immediately;
  // modifying the buffer afterwards must not change the message).
  mem::Payload payload;
  if (Status st = net.fabric_.host_dram(node()).read(addr, len, payload); !st) return st;

  const sim::Time deliver_at = schedule_delivery(net.message_latency(len), len);
  QueuePair* dst = peer_;
  net.engine().at(deliver_at, [this, dst, wr_id, payload = std::move(payload), len]() mutable {
    Network& n = *network_;
    const std::optional<RecvBuffer> rb = dst->recvs_.try_pop();
    if (!rb) {
      // Receiver-not-ready: in RC this would retry and eventually error the
      // QP; we complete both sides with an error immediately.
      ++n.stats_.rnr_drops;
      complete(WorkCompletion{WcOpcode::send, Status(Errc::unavailable, "RNR: no posted recv"),
                              wr_id, len});
      return;
    }
    if (len > rb->len) {
      dst->complete(WorkCompletion{
          WcOpcode::recv, Status(Errc::out_of_range, "message exceeds recv buffer"), rb->wr_id,
          len});
      complete(WorkCompletion{WcOpcode::send, Status(Errc::out_of_range, "recv buffer too small"),
                              wr_id, len});
      return;
    }
    mem::PayloadReader in(payload);
    Status landed = n.fabric_.host_dram(dst->node()).write(rb->addr, in, len);
    if (!landed) {
      dst->complete(WorkCompletion{WcOpcode::recv, landed, rb->wr_id, len});
      complete(WorkCompletion{WcOpcode::send, landed, wr_id, len});
      return;
    }
    dst->complete(WorkCompletion{WcOpcode::recv, Status::ok(), rb->wr_id, len});
    // Sender's completion: generated by the remote ACK, so it trails the
    // delivery by roughly one header traversal.
    n.engine().after(n.message_latency(0) / 2, [this, wr_id, len]() {
      complete(WorkCompletion{WcOpcode::send, Status::ok(), wr_id, len});
    });
  });
  return Status::ok();
}

Status QueuePair::rdma_write(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len,
                             std::uint64_t remote_addr) {
  if (!ctx_->covered(addr, len)) {
    ++network_->stats_.protection_errors;
    return Status(Errc::permission_denied, "local buffer not in a registered MR");
  }
  Network& net = *network_;
  if (peer_->closed() || !peer_->ctx_->covered(remote_addr, len)) {
    ++net.stats_.protection_errors;
    return Status(Errc::permission_denied, "remote address not in a registered MR");
  }
  ++net.stats_.rdma_writes;
  net.stats_.bytes_moved += len;

  mem::Payload payload;
  if (Status st = net.fabric_.host_dram(node()).read(addr, len, payload); !st) return st;

  const sim::Time deliver_at = schedule_delivery(net.message_latency(len), len);
  QueuePair* dst = peer_;
  net.engine().at(deliver_at, [this, dst, wr_id, payload = std::move(payload), remote_addr,
                               len]() mutable {
    Network& n = *network_;
    mem::PayloadReader in(payload);
    const bool landed = n.fabric_.host_dram(dst->node()).write(remote_addr, in, len).is_ok();
    n.engine().after(n.message_latency(0) / 2, [this, wr_id, len, landed]() {
      complete(WorkCompletion{
          WcOpcode::rdma_write,
          landed ? Status::ok() : Status(Errc::out_of_range, "RDMA WRITE did not land"), wr_id,
          len});
    });
  });
  return Status::ok();
}

Status QueuePair::rdma_read(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len,
                            std::uint64_t remote_addr) {
  if (!ctx_->covered(addr, len)) {
    ++network_->stats_.protection_errors;
    return Status(Errc::permission_denied, "local buffer not in a registered MR");
  }
  Network& net = *network_;
  if (peer_->closed() || !peer_->ctx_->covered(remote_addr, len)) {
    ++net.stats_.protection_errors;
    return Status(Errc::permission_denied, "remote address not in a registered MR");
  }
  ++net.stats_.rdma_reads;
  net.stats_.bytes_moved += len;

  // Request travels as a header-only message; the peer HCA DMAs the data
  // out of memory (no software) and the response carries the payload back.
  const sim::Time request_at = schedule_delivery(net.message_latency(0), 0);
  QueuePair* dst = peer_;
  net.engine().at(request_at, [this, dst, wr_id, addr, len, remote_addr]() {
    Network& n = *network_;
    mem::Payload payload;
    const bool fetched =
        n.fabric_.host_dram(dst->node()).read(remote_addr, len, payload).is_ok();
    // The response travels the peer->us direction and obeys its FIFO. A
    // failed fetch still answers, with an error and no data.
    const sim::Time response_at = dst->schedule_delivery(n.message_latency(len), len);
    n.engine().at(response_at, [this, wr_id, addr, len, fetched,
                                payload = std::move(payload)]() mutable {
      Network& nn = *network_;
      mem::PayloadReader in(payload);
      const bool landed = fetched && nn.fabric_.host_dram(node()).write(addr, in, len).is_ok();
      complete(WorkCompletion{
          WcOpcode::rdma_read,
          landed ? Status::ok() : Status(Errc::out_of_range, "RDMA READ did not land"), wr_id,
          len});
    });
  });
  return Status::ok();
}

}  // namespace nvmeshare::rdma
