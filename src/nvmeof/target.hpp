// SPDK-style NVMe-oF target over the RDMA model (Figure 9a's target side).
//
// The target owns the NVMe controller on its host and creates a dedicated
// NVMe I/O queue pair per initiator connection, binding it to the
// connection's RDMA queues: command capsules arriving in RECV buffers are
// translated into NVMe commands against a per-command staging buffer; write
// payloads are pulled with RDMA READ, read payloads pushed with RDMA WRITE,
// and completion capsules SENT back. Everything is polled (SPDK-style
// reactor), with a small per-command software cost.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "driver/bringup.hpp"
#include "driver/cost_model.hpp"
#include "nvmeof/capsule.hpp"
#include "obs/metrics.hpp"
#include "rdma/rdma.hpp"

namespace nvmeshare::nvmeof {

class Target {
 public:
  /// Concurrent commands per connection.
  static constexpr std::uint32_t kCommandSlots = 64;

  struct Config {
    std::uint16_t queue_entries = 128;  ///< NVMe SQ/CQ entries per connection
    driver::CostModel costs = driver::CostModel::spdk();
    /// Target offloading: the NIC firmware translates capsules to NVMe
    /// commands, replacing the host software path with a small hardware
    /// pipeline cost. The paper tried this and saw reduced CPU usage but
    /// no latency change — this knob reproduces that observation.
    bool hardware_offload = false;
    /// Generate a CRC-32C data digest (DDGST) over read payloads pushed to
    /// the initiator. Write payloads are always verified when the capsule
    /// carries a digest, independent of this knob. Off by default.
    bool data_digest = false;
    std::uint64_t seed = 0x7a67;
  };

  /// Take over the controller and get ready to accept connections.
  static sim::Future<Result<std::unique_ptr<Target>>> start(sisci::Cluster& cluster,
                                                            fabric::EndpointId endpoint,
                                                            rdma::Network& network,
                                                            Config cfg);

  ~Target();
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  /// Establish a connection for an initiator: creates the RDMA queue pair
  /// and a dedicated NVMe queue pair. Returns the initiator-side RDMA QP.
  sim::Future<Result<rdma::QueuePair*>> accept(rdma::Context& initiator_ctx,
                                               rdma::CompletionQueue& initiator_cq);

  [[nodiscard]] driver::BareController& controller() noexcept { return *ctrl_; }
  [[nodiscard]] rdma::Context& context() noexcept { return *ctx_; }
  [[nodiscard]] std::size_t connection_count() const noexcept { return connections_.size(); }

  /// Per-target counters, also registered as `nvmeshare.nvmeof_target.*`.
  struct Stats {
    Stats();
    obs::Counter commands;
    obs::Counter reads;
    obs::Counter writes;
    obs::Counter errors;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Connection {
    rdma::QueuePair* qp = nullptr;
    std::unique_ptr<rdma::CompletionQueue> cq;
    std::unique_ptr<nvme::QueuePair> nvme_qp;
    std::uint16_t qid = 0;
    std::uint64_t recv_base = 0;     ///< kCommandSlots RECV buffers (capsule size)
    std::uint64_t resp_base = 0;     ///< kCommandSlots response capsule buffers
    std::uint64_t staging_base = 0;  ///< kCommandSlots data staging slots
    std::uint64_t prp_base = 0;      ///< kCommandSlots PRP list pages
    std::uint64_t sq_addr = 0;
    std::uint64_t cq_addr = 0;
    // In-flight bookkeeping, in tables sized at connect: RDMA work requests
    // by (kind, command slot), since a slot posts a kind again only after
    // its completion, and NVMe commands by CID, which stays below the
    // queue size.
    std::vector<std::optional<sim::Promise<rdma::WorkCompletion>>> wr_pending;
    std::vector<std::optional<sim::Promise<nvme::CompletionEntry>>> nvme_pending;
    std::uint32_t inflight = 0;
    /// The reactor's tick (in its frame; null once the target stops) and
    /// the watch that notifies it on NVMe CQ writes. RDMA CQ pushes and
    /// `inflight` reaching 0 notify it too.
    sim::PollTimer* poll_timer = nullptr;
    mem::WriteWatch cq_watch;
  };

  Target(sisci::Cluster& cluster, rdma::Network& network, Config cfg);

  static sim::Co<Result<std::unique_ptr<Target>>> start_steps(std::unique_ptr<Target> self,
                                                              fabric::EndpointId endpoint);
  sim::Co<Result<rdma::QueuePair*>> accept_steps(rdma::Context* initiator_ctx,
                                                 rdma::CompletionQueue* initiator_cq);
  sim::Task connection_loop(Connection* conn, std::shared_ptr<bool> stop);
  sim::Task handle_command(Connection* conn, std::uint32_t slot, std::shared_ptr<bool> stop);

  /// Staging-slot max bytes (bounded by controller MDTS).
  [[nodiscard]] std::uint64_t slot_bytes() const;

  sisci::Cluster& cluster_;
  rdma::Network& network_;
  Config cfg_;
  Rng rng_;
  std::unique_ptr<driver::BareController> ctrl_;
  std::unique_ptr<rdma::Context> ctx_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::shared_ptr<bool> stop_ = std::make_shared<bool>(false);
  Stats stats_;
};

}  // namespace nvmeshare::nvmeof
