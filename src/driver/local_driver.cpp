#include "driver/local_driver.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace nvmeshare::driver {

LocalDriver::Stats::Stats()
    : RequestStats("nvmeshare.local_driver"),
      interrupts("nvmeshare.local_driver.interrupts") {}

LocalDriver::LocalDriver(sisci::Cluster& cluster, Config cfg)
    : cluster_(cluster), cfg_(cfg), rng_(cfg.seed) {}

LocalDriver::~LocalDriver() {
  *stop_ = true;
  if (poll_timer_ != nullptr) poll_timer_->notify();  // a polling loop sees the stop
  poll_timer_ = nullptr;
  cq_watch_.reset();
  if (irq_event_) irq_event_->set();  // unblock the completion loop
  if (irq_ != nullptr && irq_vector_allocated_) irq_->release_vector(irq_vector_);
  if (sq_addr_ != 0 && ctrl_) (void)cluster_.free_dram(ctrl_->host(), sq_addr_);
  if (cq_addr_ != 0 && ctrl_) (void)cluster_.free_dram(ctrl_->host(), cq_addr_);
  if (prp_pages_addr_ != 0 && ctrl_) (void)cluster_.free_dram(ctrl_->host(), prp_pages_addr_);
}

// --- block::IoTransport -------------------------------------------------------------

Result<std::uint16_t> LocalDriver::issue(std::uint32_t chan, const block::Command* cmd) {
  return qps_[chan]->push(sqes_[cmd->slot]);
}

Status LocalDriver::ring(std::uint32_t chan) { return qps_[chan]->ring_sq_doorbell(); }

void LocalDriver::start_recovery(std::uint32_t chan) {
  // A local device has no manager or fabric to rebuild through; fail what
  // is pending and declare the channel recovered (commands then exhaust
  // their retry budgets and report timeouts).
  engine_io_->fail_pending(chan);
  engine_io_->finish_recovery(chan);
}

std::uint16_t LocalDriver::trace_qid(std::uint32_t chan) const { return qids_[chan]; }

sim::Future<Result<std::unique_ptr<LocalDriver>>> LocalDriver::start(sisci::Cluster& cluster,
                                                                     fabric::EndpointId endpoint,
                                                                     IrqController* irq,
                                                                     Config cfg) {
  return sim::spawn(cluster.engine(),
                    init_steps(std::unique_ptr<LocalDriver>(new LocalDriver(cluster, cfg)),
                               endpoint, irq));
}

sim::Co<Result<std::unique_ptr<LocalDriver>>> LocalDriver::init_steps(
    std::unique_ptr<LocalDriver> self, fabric::EndpointId endpoint, IrqController* irq) {
  LocalDriver& d = *self;
  sim::Engine& engine = d.cluster_.engine();

  if (d.cfg_.use_interrupts && irq == nullptr) {
    co_return Status(Errc::invalid_argument, "interrupt mode needs an IrqController");
  }
  block::IoEngine::Config ec;
  ec.backend = "local";
  ec.channels = d.cfg_.channels;
  ec.queue_depth = d.cfg_.queue_depth;
  ec.queue_entries = d.cfg_.queue_entries;
  ec.coalesce_doorbells = d.cfg_.coalesce_doorbells;
  ec.doorbell_ns = d.cfg_.costs.doorbell_ns;
  ec.counters.requests = &d.stats_;
  if (Status st = block::IoEngine::validate(ec); !st) co_return st;
  const std::uint32_t total_depth = d.cfg_.queue_depth * d.cfg_.channels;

  BareController::Config bc;
  bc.costs = d.cfg_.costs;
  auto ctrl = co_await BareController::init(d.cluster_, endpoint, bc);
  if (!ctrl) co_return ctrl.status();
  d.ctrl_ = std::move(*ctrl);
  const fabric::HostId host = d.ctrl_->host();
  fabric::Substrate& fabric = d.cluster_.fabric();

  const std::uint64_t sq_ring_bytes = nvme::ring_stride(d.cfg_.queue_entries, 64, d.cfg_.channels);
  const std::uint64_t cq_ring_bytes = nvme::ring_stride(d.cfg_.queue_entries, 16, d.cfg_.channels);
  auto sq = d.cluster_.alloc_dram(host, sq_ring_bytes * d.cfg_.channels, 4096);
  auto cq = d.cluster_.alloc_dram(host, cq_ring_bytes * d.cfg_.channels, 4096);
  auto prp = d.cluster_.alloc_dram(
      host, static_cast<std::uint64_t>(total_depth) * nvme::kPageSize, 4096);
  if (!sq || !cq || !prp) co_return Status(Errc::resource_exhausted, "no DRAM for IO queues");
  d.sq_addr_ = *sq;
  d.cq_addr_ = *cq;
  d.prp_pages_addr_ = *prp;
  mem::PhysMem& dram = fabric.host_dram(host);
  (void)dram.write(d.sq_addr_, Bytes(sq_ring_bytes * d.cfg_.channels, std::byte{0}));
  (void)dram.write(d.cq_addr_, Bytes(cq_ring_bytes * d.cfg_.channels, std::byte{0}));

  d.irq_event_ = std::make_unique<sim::Event>(engine);
  std::optional<std::uint16_t> vector;
  if (d.cfg_.use_interrupts) {
    d.irq_ = irq;
    sim::Event* event = d.irq_event_.get();
    auto stop = d.stop_;
    auto v = irq->allocate_vector([event, stop](std::uint32_t) {
      if (!*stop) event->set();
    });
    if (!v) co_return v.status();
    d.irq_vector_ = *v;
    d.irq_vector_allocated_ = true;
    vector = static_cast<std::uint16_t>(*v);
    auto addr = irq->vector_address(*v);
    if (!addr) co_return addr.status();
    if (Status st = d.ctrl_->program_msix(*vector, *addr, *v); !st) co_return st;
  }

  // One queue pair per channel, each on its own slice of the shared ring
  // allocations, all raising the same MSI-X vector.
  d.qids_.resize(d.cfg_.channels);
  d.qps_.resize(d.cfg_.channels);
  for (std::uint32_t chan = 0; chan < d.cfg_.channels; ++chan) {
    const std::uint64_t sq_base = d.sq_addr_ + chan * sq_ring_bytes;
    const std::uint64_t cq_base = d.cq_addr_ + chan * cq_ring_bytes;
    auto qid = co_await sim::spawn(engine, d.ctrl_->create_queue_pair(
                                               sq_base, d.cfg_.queue_entries, cq_base,
                                               d.cfg_.queue_entries, vector));
    if (!qid) co_return qid.status();
    d.qids_[chan] = *qid;

    nvme::QueuePair::Config qc;
    qc.qid = *qid;
    qc.sq_size = d.cfg_.queue_entries;
    qc.cq_size = d.cfg_.queue_entries;
    qc.sq_write_addr = sq_base;
    qc.cq_poll_addr = cq_base;
    qc.sq_doorbell_addr = d.ctrl_->sq_doorbell(*qid);
    qc.cq_doorbell_addr = d.ctrl_->cq_doorbell(*qid);
    qc.cpu = fabric.cpu(host);
    d.qps_[chan] = std::make_unique<nvme::QueuePair>(fabric, qc);
  }

  block::IoTransport& transport = d;
  d.engine_io_ = std::make_unique<block::IoEngine>(engine, transport, d.stop_, ec);
  d.sqes_.resize(total_depth);
  d.completion_loop(d.stop_);
  if (!d.cfg_.use_interrupts) {
    auto cq_watch = fabric.watch_writes(host, d.cq_addr_, cq_ring_bytes * d.cfg_.channels,
                                        *d.poll_timer_);
    if (!cq_watch) co_return cq_watch.status();
    d.cq_watch_ = std::move(*cq_watch);
  }
  NVS_LOG(info, "local") << "local driver up, qid " << d.qids_[0]
                         << (d.cfg_.channels > 1
                                 ? " (+" + std::to_string(d.cfg_.channels - 1) + " channels)"
                                 : "")
                         << (d.cfg_.use_interrupts ? " (MSI-X)" : " (polled)");
  co_return std::move(self);
}

sim::Future<block::Completion> LocalDriver::submit(const block::Request& request) {
  return engine_io_->serve(*this, request);
}

sim::Duration LocalDriver::cpu_ns(obs::Phase phase) {
  return cfg_.costs.jittered(
      phase == obs::Phase::submit ? cfg_.costs.submit_ns : cfg_.costs.completion_ns, rng_);
}

block::Step LocalDriver::prepare(const block::Command& cmd, std::uint32_t step) {
  (void)step;
  const block::Request& request = cmd.request;
  const nvme::IoOpcode op = block::nvme_opcode(request.op);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(request.nblocks) * ctrl_->block_size();
  // Direct DMA: PRPs point straight at the request buffer (local memory, no
  // bounce). PRP lists and discard ranges go into this slot's list page.
  const std::uint64_t page =
      prp_pages_addr_ + static_cast<std::uint64_t>(cmd.slot) * nvme::kPageSize;
  const nvme::StagedIo io =
      nvme::stage_io(op, request.lba, request.nblocks, request.buffer_addr, bytes, page);
  if (io.list_size > 0) (void)cluster_.fabric().host_dram(ctrl_->host()).write(page, io.list());
  sqes_[cmd.slot] = nvme::make_io(op, 1, request.lba, static_cast<std::uint16_t>(request.nblocks),
                                  io.prp.prp1, io.prp.prp2);
  return {};
}

void LocalDriver::drain_cq() {
  for (std::uint32_t chan = 0; chan < cfg_.channels; ++chan) {
    qps_[chan]->drain([&](const nvme::CompletionEntry& cqe) {
      (void)engine_io_->complete(chan, cqe.cid, cqe.status());
    });
  }
}

sim::Task LocalDriver::completion_loop(std::shared_ptr<bool> stop) {
  sim::Engine& eng = cluster_.engine();
  // Polled mode: a round that finds no CQE is skipped by the engine
  // (sim::PollTimer). Notified by CQ writes (cq_watch_) and the destructor.
  sim::PollTimer timer(eng);
  poll_timer_ = &timer;
  for (;;) {
    if (*stop) co_return;
    if (cfg_.use_interrupts) {
      co_await irq_event_->wait();
      if (*stop) co_return;
      ++stats_.interrupts;
      // Reset *before* draining: an interrupt that fires while we drain
      // leaves the event set, so its completion is picked up next round.
      irq_event_->reset();
      // Interrupt delivery, wakeup, and handler entry cost.
      co_await sim::delay(eng, cfg_.costs.jittered(cfg_.costs.irq_delivery_ns, rng_));
      if (*stop) co_return;
      drain_cq();
    } else {
      drain_cq();
      co_await sim::poll_tick(eng, timer,
                              std::max<sim::Duration>(cfg_.costs.poll_interval_ns, 100));
      if (*stop) co_return;
    }
  }
}

}  // namespace nvmeshare::driver
