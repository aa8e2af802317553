#include "workload/testbed.hpp"

#include <cassert>
#include <string>

namespace nvmeshare::workload {

Testbed::Testbed(TestbedConfig cfg) : cfg_(cfg) {
  assert(cfg.hosts >= 1);

  if (cfg.substrate == fabric::SubstrateKind::ntb) {
    auto ntb_fabric = std::make_unique<pcie::Fabric>(engine_, cfg.pcie);
    ntb_ = ntb_fabric.get();

    // Hosts and their root complexes.
    for (std::uint32_t h = 0; h < cfg.hosts; ++h) {
      (void)ntb_->add_host("host" + std::to_string(h), cfg.dram_per_host);
    }

    // NVMe devices. The first sits in host 0, optionally behind a chain of
    // transparent switch chips (for the hop-count sweep); additional devices
    // round-robin across hosts, directly below their root complexes.
    for (std::uint32_t d = 0; d < std::max(1u, cfg.nvme_devices); ++d) {
      const pcie::HostId host = d % cfg.hosts;
      pcie::ChipId attach = ntb_->host_rc(host);
      if (d == 0) {
        for (std::uint32_t i = 0; i < cfg.local_switch_chips; ++i) {
          pcie::ChipId sw = ntb_->add_switch_chip("host0.sw" + std::to_string(i), 0);
          (void)ntb_->link_chips(attach, sw);
          attach = sw;
        }
      }
      nvme::Controller::Config ctrl_cfg = cfg.nvme;
      ctrl_cfg.seed = cfg.nvme.seed + d;
      ctrl_cfg.name = "nvme" + std::to_string(d);
      controllers_.push_back(std::make_unique<nvme::Controller>(engine_, ctrl_cfg));
      auto ep = ntb_->attach_endpoint(*controllers_.back(), host, attach);
      assert(ep);
      nvme_eps_.push_back(*ep);
    }

    // One interrupt controller per host (MSI-X landing pad).
    for (std::uint32_t h = 0; h < cfg.hosts; ++h) {
      auto irq = std::make_unique<driver::IrqController>();
      auto irq_ep = ntb_->attach_endpoint(*irq, h, ntb_->host_rc(h));
      assert(irq_ep);
      (void)irq_ep;
      irqs_.push_back(std::move(irq));
    }

    // NTB adapters and the cluster switch (only for real clusters).
    if (cfg.hosts > 1) {
      pcie::ChipId cluster_switch = ntb_->add_cluster_switch("mxs924");
      for (std::uint32_t h = 0; h < cfg.hosts; ++h) {
        auto ntb = ntb_->add_ntb(h, kNtbWindows, kNtbWindowSize);
        assert(ntb);
        (void)ntb_->link_chips(ntb_->ntb_chip(*ntb), cluster_switch);
      }
    }
    substrate_ = std::move(ntb_fabric);
  } else {
    // CXL pooled-memory cluster: no switch chips, no NTB adapters — hosts
    // hang off a CXL 3.x switch with a shared pool, and devices are reached
    // over CXL.io p2p MMIO from any host.
    auto pool = std::make_unique<cxl::PoolFabric>(engine_, cfg.cxl);
    for (std::uint32_t h = 0; h < cfg.hosts; ++h) {
      (void)pool->add_host("host" + std::to_string(h), cfg.dram_per_host);
    }
    for (std::uint32_t d = 0; d < std::max(1u, cfg.nvme_devices); ++d) {
      const fabric::HostId host = d % cfg.hosts;
      nvme::Controller::Config ctrl_cfg = cfg.nvme;
      ctrl_cfg.seed = cfg.nvme.seed + d;
      ctrl_cfg.name = "nvme" + std::to_string(d);
      controllers_.push_back(std::make_unique<nvme::Controller>(engine_, ctrl_cfg));
      auto ep = pool->attach(*controllers_.back(), host);
      assert(ep);
      nvme_eps_.push_back(*ep);
    }
    for (std::uint32_t h = 0; h < cfg.hosts; ++h) {
      auto irq = std::make_unique<driver::IrqController>();
      auto irq_ep = pool->attach(*irq, h);
      assert(irq_ep);
      (void)irq_ep;
      irqs_.push_back(std::move(irq));
    }
    substrate_ = std::move(pool);
  }

  cluster_ = std::make_unique<sisci::Cluster>(*substrate_);
  service_ = std::make_unique<smartio::Service>(*cluster_);
  network_ = std::make_unique<rdma::Network>(*substrate_, cfg.rdma);

  for (fabric::EndpointId ep : nvme_eps_) {
    auto dev = service_->register_device(ep);
    assert(dev);
    device_ids_.push_back(*dev);
  }
  substrate_->set_fault_plan(std::move(cfg.faults));
}

}  // namespace nvmeshare::workload
