// Testbed: assembles the full simulated cluster the tests, benches, and
// examples share — N hosts with root complexes and NTB adapters, a Dolphin
// MXS924-style cluster switch, the Optane-like NVMe controller installed in
// host 0 (optionally behind extra transparent switch chips for path-length
// sweeps), one interrupt controller per host, the SISCI cluster, the
// SmartIO service, and the InfiniBand network for the NVMe-oF baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cxl/pool.hpp"
#include "driver/irq.hpp"
#include "fabric/types.hpp"
#include "fault/fault.hpp"
#include "nvme/controller.hpp"
#include "pcie/fabric.hpp"
#include "rdma/rdma.hpp"
#include "sisci/sisci.hpp"
#include "smartio/smartio.hpp"

namespace nvmeshare::workload {

struct TestbedConfig {
  /// Which interconnect backs the cluster: the paper's PCIe/NTB fabric
  /// (default) or the CXL pooled-memory substrate.
  fabric::SubstrateKind substrate = fabric::SubstrateKind::ntb;
  std::uint32_t hosts = 2;
  std::uint64_t dram_per_host = 8 * GiB;
  /// Extra transparent switch chips between host 0's root complex and the
  /// NVMe device (0 = device directly below the root complex).
  std::uint32_t local_switch_chips = 0;
  /// Number of NVMe controllers. Device i is installed in host i % hosts,
  /// so a 2-host / 2-device cluster has one drive per host.
  std::uint32_t nvme_devices = 1;
  nvme::Controller::Config nvme = {};
  pcie::LatencyModel pcie = {};
  cxl::PoolConfig cxl = {};
  rdma::NetworkConfig rdma = {};
  /// Fault plan installed on the substrate once the cluster is built and
  /// before any engine event runs; arm it after bring-up with
  /// `substrate().arm_faults()`. None by default.
  std::optional<fault::FaultPlan> faults;
};

class Testbed {
 public:
  /// LUT entries of each host's NTB adapter, and the bytes one entry maps.
  static constexpr std::uint32_t kNtbWindows = 2048;
  static constexpr std::uint64_t kNtbWindowSize = 1 * MiB;

  explicit Testbed(TestbedConfig cfg);
  Testbed() : Testbed(TestbedConfig{}) {}

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  /// The substrate-neutral interconnect every consumer should code against.
  [[nodiscard]] fabric::Substrate& substrate() noexcept { return *substrate_; }
  /// The concrete NTB fabric — only for NTB-specific tests/benches (LUT
  /// programming, topology sweeps). Asserts on a CXL testbed.
  [[nodiscard]] pcie::Fabric& fabric() noexcept { return *ntb_; }
  [[nodiscard]] sisci::Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] smartio::Service& service() noexcept { return *service_; }
  [[nodiscard]] rdma::Network& network() noexcept { return *network_; }
  [[nodiscard]] nvme::Controller& controller(std::size_t i = 0) noexcept {
    return *controllers_.at(i);
  }
  [[nodiscard]] driver::IrqController& irq(pcie::HostId host) { return *irqs_.at(host); }

  [[nodiscard]] smartio::DeviceId device_id(std::size_t i = 0) const {
    return device_ids_.at(i);
  }
  [[nodiscard]] pcie::EndpointId nvme_endpoint(std::size_t i = 0) const {
    return nvme_eps_.at(i);
  }
  [[nodiscard]] std::size_t device_count() const noexcept { return controllers_.size(); }
  /// Host device `i` is installed in.
  [[nodiscard]] pcie::HostId device_host(std::size_t i = 0) const {
    return static_cast<pcie::HostId>(i % cfg_.hosts);
  }
  [[nodiscard]] const TestbedConfig& config() const noexcept { return cfg_; }

  /// Drive the engine until `future.ready()` or `bound` simulated time
  /// elapses; returns the future's value (or a timeout error).
  template <typename T>
  Result<T> wait(sim::Future<Result<T>> future, sim::Duration bound = 10_s) {
    return drive<Result<T>>(std::move(future), bound);
  }

  /// Same, for a step started here with sim::spawn.
  template <typename T>
  Result<T> wait(sim::Co<Result<T>> step, sim::Duration bound = 10_s) {
    return wait(sim::spawn(engine_, std::move(step)), bound);
  }

  /// Same, for futures of bare Status.
  Status wait_status(sim::Future<Status> future, sim::Duration bound = 10_s) {
    return drive<Status>(std::move(future), bound);
  }

  /// Same, for futures of plain (non-Result) values.
  template <typename T>
  Result<T> wait_plain(sim::Future<T> future, sim::Duration bound = 10_s) {
    return drive<Result<T>>(std::move(future), bound);
  }

 private:
  /// The loop behind the three waits: `R` holds either the future's value
  /// or the timeout status.
  template <typename R, typename T>
  R drive(sim::Future<T> future, sim::Duration bound) {
    const sim::Time give_up = engine_.now() + bound;
    while (!future.ready() && engine_.pending_events() > 0 && engine_.now() < give_up) {
      engine_.run_until(std::min(engine_.now() + 1_ms, give_up));
    }
    if (!future.ready()) {
      return Status(Errc::timed_out, "future did not resolve within the time bound");
    }
    return *future.try_take();
  }

  TestbedConfig cfg_;
  sim::Engine engine_;
  std::unique_ptr<fabric::Substrate> substrate_;
  pcie::Fabric* ntb_ = nullptr;  ///< downcast view, null on CXL testbeds
  std::vector<std::unique_ptr<nvme::Controller>> controllers_;
  std::vector<std::unique_ptr<driver::IrqController>> irqs_;
  std::unique_ptr<sisci::Cluster> cluster_;
  std::unique_ptr<smartio::Service> service_;
  std::unique_ptr<rdma::Network> network_;
  std::vector<smartio::DeviceId> device_ids_;
  std::vector<pcie::EndpointId> nvme_eps_;
};

}  // namespace nvmeshare::workload
