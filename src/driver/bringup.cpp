#include "driver/bringup.hpp"

#include "common/log.hpp"

namespace nvmeshare::driver {

using nvme::CompletionEntry;
using nvme::SubmissionEntry;

BareController::BareController(sisci::Cluster& cluster, fabric::EndpointId endpoint, Config cfg)
    : cluster_(cluster), endpoint_(endpoint), cfg_(cfg), admin_(cluster.fabric(), cfg.costs) {}

BareController::~BareController() {
  if (asq_addr_ != 0) (void)cluster_.free_dram(host_, asq_addr_);
  if (acq_addr_ != 0) (void)cluster_.free_dram(host_, acq_addr_);
  if (admin_data_addr_ != 0) (void)cluster_.free_dram(host_, admin_data_addr_);
}

sim::Future<Result<std::unique_ptr<BareController>>> BareController::init(
    sisci::Cluster& cluster, fabric::EndpointId endpoint, Config cfg) {
  return sim::spawn(cluster.engine(), init_steps(std::unique_ptr<BareController>(
                                          new BareController(cluster, endpoint, cfg))));
}

sim::Co<Result<std::unique_ptr<BareController>>> BareController::init_steps(
    std::unique_ptr<BareController> self) {
  BareController& m = *self;
  fabric::Substrate& fabric = m.cluster_.fabric();

  m.host_ = fabric.endpoint_host(m.endpoint_);
  auto bar = fabric.bar_address(m.endpoint_, 0);
  if (!bar) co_return bar.status();
  m.bar_base_ = *bar;

  // Admin queues + a page for identify payloads, all in local DRAM: the CPU,
  // the controller and the backing memory see the same addresses.
  auto asq = m.cluster_.alloc_dram(m.host_, kAdminEntries * 64ull, 4096);
  auto acq = m.cluster_.alloc_dram(m.host_, kAdminEntries * 16ull, 4096);
  auto buf = m.cluster_.alloc_dram(m.host_, 4096, 4096);
  if (!asq || !acq || !buf) co_return Status(Errc::resource_exhausted, "no DRAM for admin queues");
  m.asq_addr_ = *asq;
  m.acq_addr_ = *acq;
  m.admin_data_addr_ = *buf;
  auto local = [&](std::uint64_t addr, std::uint64_t bytes) {
    return AdminRing{addr, addr, m.host_, addr, bytes};
  };
  m.admin_.place({fabric.cpu(m.host_), m.bar_base_, kAdminEntries,
                  local(*asq, kAdminEntries * 64ull), local(*acq, kAdminEntries * 16ull)});

  const EnableResult up = co_await m.admin_.enable(0, /*strict=*/true);
  if (!up.status) co_return up.status;
  auto info = co_await m.admin_.identify(local(*buf, 4096), m.cfg_.requested_io_queues);
  if (!info) co_return info.status();
  m.mdts_bytes_ = info->max_transfer_bytes;
  m.capacity_blocks_ = info->capacity_blocks;
  m.block_size_ = info->block_size;
  m.granted_io_queues_ = info->granted_io_queues;

  NVS_LOG(info, "bringup") << "controller up: " << m.capacity_blocks_ << " blocks of "
                           << m.block_size_ << "B, " << m.granted_io_queues_ << " IO queues";
  co_return std::move(self);
}

sim::Co<Result<CompletionEntry>> BareController::submit_admin(SubmissionEntry entry) {
  return admin_.submit(entry);
}

sim::Co<Result<std::uint16_t>> BareController::create_queue_pair(
    std::uint64_t sq_addr, std::uint16_t sq_size, std::uint64_t cq_addr, std::uint16_t cq_size,
    std::optional<std::uint16_t> irq_vector) {
  IoPairSpec spec{0, sq_addr, sq_size, cq_addr, cq_size, irq_vector};
  if (next_qid_ > granted_io_queues_) {
    co_return Status(Errc::resource_exhausted, "no I/O queue ids left");
  }
  spec.qid = next_qid_++;
  const CreateResult created = co_await admin_.create_io_pair(spec);
  if (!created.status) {
    --next_qid_;
    co_return created.status;
  }
  co_return spec.qid;
}

Status BareController::program_msix(std::uint16_t vector, std::uint64_t addr,
                                    std::uint32_t data) {
  fabric::Substrate& fabric = cluster_.fabric();
  Bytes entry(16);
  store_pod(entry, addr, 0);
  store_pod(entry, data, 8);
  store_pod(entry, std::uint32_t{0} /* unmasked */, 12);
  return fabric
      .post_write(fabric.cpu(host_),
                  bar_base_ + nvme::reg::kMsixTable + vector * nvme::reg::kMsixEntrySize,
                  std::move(entry))
      .status();
}

}  // namespace nvmeshare::driver
