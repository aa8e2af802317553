// InfiniBand-verbs-style RDMA model (ConnectX-5-class), the transport under
// the NVMe-oF baseline.
//
// Modeled mechanics (the ones the paper's comparison depends on):
//  * reliable-connected queue pairs with SEND/RECV, RDMA WRITE, RDMA READ;
//  * one-sided operations move bytes directly between registered memory
//    regions with no remote software, but every message still pays NIC
//    processing on both ends plus switch/propagation/serialization time;
//  * RECVs must be pre-posted; completions are delivered to completion
//    queues the application polls (or sleeps on, modeling CQ interrupts).
//
// Memory is addressed by physical DRAM addresses of the owning host and
// must be covered by a registered MR — accesses outside registered regions
// complete with an error, like a real HCA's protection checks.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "fabric/substrate.hpp"
#include "sim/task.hpp"

namespace nvmeshare::rdma {

using NodeId = fabric::HostId;

struct NetworkConfig {
  sim::Duration nic_tx_ns = 1000;      ///< send-side WQE fetch, processing, PCIe DMA
  sim::Duration nic_rx_ns = 1000;      ///< receive-side processing + memory DMA
  sim::Duration switch_ns = 300;       ///< IB switch forwarding
  sim::Duration propagation_ns = 100;  ///< cables, both segments combined
  sim::Duration per_message_ns = 150;  ///< doorbell + WQE build
  double bytes_per_ns = 12.5;          ///< 100 Gb/s payload bandwidth
};

enum class WcOpcode : std::uint8_t { send, recv, rdma_write, rdma_read };

struct WorkCompletion {
  WcOpcode opcode = WcOpcode::send;
  Status status;
  std::uint64_t wr_id = 0;
  std::uint32_t byte_len = 0;
};

class CompletionQueue {
 public:
  explicit CompletionQueue(sim::Engine& engine) : queue_(engine) {}

  [[nodiscard]] std::optional<WorkCompletion> poll() { return queue_.try_pop(); }
  /// Sleep until a completion arrives (models a CQ event / interrupt).
  [[nodiscard]] auto pop() { return queue_.pop(); }
  [[nodiscard]] auto pop_for(sim::Duration timeout) { return queue_.pop_for(timeout); }
  [[nodiscard]] std::size_t depth() const noexcept { return queue_.size(); }

  /// Notify `timer` (null: nobody) on every completion pushed, so a
  /// reactor polling this CQ on a sim::PollTimer sees it.
  void set_poll_timer(sim::PollTimer* timer) noexcept { timer_ = timer; }

 private:
  friend class QueuePair;
  void push(WorkCompletion wc) {
    queue_.push(std::move(wc));
    if (timer_ != nullptr) timer_->notify();
  }

  sim::Mailbox<WorkCompletion> queue_;
  sim::PollTimer* timer_ = nullptr;
};

class Network;

/// Per-host verbs context: owns the MR table.
class Context {
 public:
  Context(Network& network, NodeId node) : network_(network), node_(node) {}

  [[nodiscard]] NodeId node() const noexcept { return node_; }

  /// Register [addr, addr+len) of this host's DRAM for RDMA access.
  Status register_mr(std::uint64_t addr, std::uint64_t len);
  Status deregister_mr(std::uint64_t addr);
  [[nodiscard]] bool covered(std::uint64_t addr, std::uint64_t len) const;

 private:
  friend class QueuePair;
  Network& network_;
  NodeId node_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mrs_;  // addr, len
};

/// One side of a reliable-connected queue pair.
class QueuePair {
 public:
  /// Post a receive buffer (local DRAM, must be registered).
  Status post_recv(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len);

  /// SEND: deliver `len` bytes from local `addr` into the peer's next
  /// posted RECV buffer. Completion on both sides.
  Status post_send(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len);

  /// RDMA WRITE: one-sided write of local [addr,len) to peer remote_addr.
  /// Completion only on the sender.
  Status rdma_write(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len,
                    std::uint64_t remote_addr);

  /// RDMA READ: one-sided read of peer [remote_addr,len) into local addr.
  Status rdma_read(std::uint64_t wr_id, std::uint64_t addr, std::uint32_t len,
                   std::uint64_t remote_addr);

  [[nodiscard]] NodeId node() const noexcept { return ctx_->node(); }
  [[nodiscard]] QueuePair* peer() const noexcept { return peer_; }
  [[nodiscard]] std::size_t posted_recvs() const noexcept { return recvs_.size(); }

 private:
  friend class Network;
  struct RecvBuffer {
    std::uint64_t wr_id;
    std::uint64_t addr;
    std::uint32_t len;
  };

  /// Reliable-connected FIFO: messages on one QP direction are delivered
  /// in posting order, so a small response can never overtake a large
  /// RDMA WRITE issued before it. Messages pipeline: a successor lands one
  /// wire-serialization gap after its predecessor, not one full latency.
  [[nodiscard]] sim::Time schedule_delivery(sim::Duration latency, std::uint64_t bytes);

  Context* ctx_ = nullptr;
  CompletionQueue* cq_ = nullptr;
  QueuePair* peer_ = nullptr;
  Network* network_ = nullptr;
  std::deque<RecvBuffer> recvs_;
  sim::Time out_floor_ = 0;  ///< earliest delivery time of the next outbound message
};

class Network {
 public:
  Network(fabric::Substrate& fabric, NetworkConfig cfg) : fabric_(fabric), cfg_(cfg) {}

  [[nodiscard]] sim::Engine& engine() noexcept { return fabric_.engine(); }
  [[nodiscard]] fabric::Substrate& fabric() noexcept { return fabric_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return cfg_; }

  /// One-way latency of a message carrying `bytes` of payload.
  [[nodiscard]] sim::Duration message_latency(std::uint64_t bytes) const;

  /// Create a connected queue pair between two contexts. Both endpoints
  /// share the fate of the returned objects (owned by the Network).
  std::pair<QueuePair*, QueuePair*> create_qp_pair(Context& a, CompletionQueue& cq_a,
                                                   Context& b, CompletionQueue& cq_b);

  /// Network-wide counters, also registered as `nvmeshare.rdma.*`.
  struct Stats {
    Stats();
    obs::Counter sends;
    obs::Counter rdma_writes;
    obs::Counter rdma_reads;
    obs::Counter bytes_moved;
    obs::Counter rnr_drops;  ///< SENDs that found no posted RECV
    obs::Counter protection_errors;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  friend class QueuePair;
  fabric::Substrate& fabric_;
  NetworkConfig cfg_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  Stats stats_;
};

}  // namespace nvmeshare::rdma
