#include "driver/local_driver.hpp"

#include <array>

#include "common/log.hpp"

namespace nvmeshare::driver {

using nvme::SubmissionEntry;

LocalDriver::Stats::Stats()
    : reads("nvmeshare.local_driver.reads"),
      writes("nvmeshare.local_driver.writes"),
      flushes("nvmeshare.local_driver.flushes"),
      errors("nvmeshare.local_driver.errors"),
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

Result<std::uint16_t> LocalDriver::issue(std::uint32_t chan, void* cookie) {
  return qps_[chan]->push(*static_cast<const SubmissionEntry*>(cookie));
}

Status LocalDriver::ring(std::uint32_t chan) { return qps_[chan]->ring_sq_doorbell(); }

bool LocalDriver::retryable(std::uint16_t status) const {
  // The local baseline reports controller errors straight up (no deadline
  // watchdog is configured, so the engine never retries anyway).
  (void)status;
  return false;
}

void LocalDriver::start_recovery(std::uint32_t chan) {
  // A local device has no manager or fabric to rebuild through; fail what
  // is pending and declare the channel recovered (commands then exhaust
  // their retry budgets and report timeouts).
  engine_io_->fail_pending(chan);
  engine_io_->finish_recovery(chan);
}

std::uint16_t LocalDriver::trace_qid(std::uint32_t chan) const { return qids_[chan]; }

sim::Future<Result<std::unique_ptr<LocalDriver>>> LocalDriver::start(sisci::Cluster& cluster,
                                                                     pcie::EndpointId endpoint,
                                                                     IrqController* irq,
                                                                     Config cfg) {
  sim::Promise<Result<std::unique_ptr<LocalDriver>>> promise(cluster.engine());
  auto self = std::unique_ptr<LocalDriver>(new LocalDriver(cluster, cfg));
  init_task(std::move(self), endpoint, irq, promise);
  return promise.future();
}

sim::Task LocalDriver::init_task(std::unique_ptr<LocalDriver> self, pcie::EndpointId endpoint,
                                 IrqController* irq,
                                 sim::Promise<Result<std::unique_ptr<LocalDriver>>> promise) {
  LocalDriver& d = *self;
  sim::Engine& engine = d.cluster_.engine();

  if (d.cfg_.use_interrupts && irq == nullptr) {
    promise.set(Status(Errc::invalid_argument, "interrupt mode needs an IrqController"));
    co_return;
  }
  block::IoEngine::Config ec;
  ec.backend = "local";
  ec.channels = d.cfg_.channels;
  ec.queue_depth = d.cfg_.queue_depth;
  ec.queue_entries = d.cfg_.queue_entries;
  ec.scheduler = d.cfg_.scheduler;
  ec.coalesce_doorbells = d.cfg_.coalesce_doorbells;
  ec.doorbell_ns = d.cfg_.costs.doorbell_ns;
  if (Status st = block::IoEngine::validate(ec); !st) {
    promise.set(st);
    co_return;
  }
  const std::uint32_t total_depth = d.cfg_.queue_depth * d.cfg_.channels;

  BareController::Config bc;
  bc.costs = d.cfg_.costs;
  auto ctrl = co_await BareController::init(d.cluster_, endpoint, bc);
  if (!ctrl) {
    promise.set(ctrl.status());
    co_return;
  }
  d.ctrl_ = std::move(*ctrl);
  const pcie::HostId host = d.ctrl_->host();
  fabric::Substrate& fabric = d.cluster_.fabric();

  // Per-channel ring stride. Single-channel keeps the seed-exact ring size;
  // multi-channel slices are page-rounded because NVMe queue base addresses
  // must be page-aligned.
  const std::uint64_t sq_ring_bytes =
      d.cfg_.channels == 1 ? d.cfg_.queue_entries * 64ull
                           : div_ceil(d.cfg_.queue_entries * 64ull, nvme::kPageSize) *
                                 nvme::kPageSize;
  const std::uint64_t cq_ring_bytes =
      d.cfg_.channels == 1 ? d.cfg_.queue_entries * 16ull
                           : div_ceil(d.cfg_.queue_entries * 16ull, nvme::kPageSize) *
                                 nvme::kPageSize;
  auto sq = d.cluster_.alloc_dram(host, sq_ring_bytes * d.cfg_.channels, 4096);
  auto cq = d.cluster_.alloc_dram(host, cq_ring_bytes * d.cfg_.channels, 4096);
  auto prp = d.cluster_.alloc_dram(
      host, static_cast<std::uint64_t>(total_depth) * nvme::kPageSize, 4096);
  if (!sq || !cq || !prp) {
    promise.set(Status(Errc::resource_exhausted, "no DRAM for IO queues"));
    co_return;
  }
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
    if (!v) {
      promise.set(v.status());
      co_return;
    }
    d.irq_vector_ = *v;
    d.irq_vector_allocated_ = true;
    vector = static_cast<std::uint16_t>(*v);
    auto addr = irq->vector_address(*v);
    if (!addr) {
      promise.set(addr.status());
      co_return;
    }
    if (Status st = d.ctrl_->program_msix(*vector, *addr, *v); !st) {
      promise.set(st);
      co_return;
    }
  }

  // One queue pair per channel, each on its own slice of the shared ring
  // allocations, all raising the same MSI-X vector.
  d.qids_.resize(d.cfg_.channels);
  d.qps_.resize(d.cfg_.channels);
  for (std::uint32_t chan = 0; chan < d.cfg_.channels; ++chan) {
    const std::uint64_t sq_base = d.sq_addr_ + chan * sq_ring_bytes;
    const std::uint64_t cq_base = d.cq_addr_ + chan * cq_ring_bytes;
    auto qid = co_await d.ctrl_->create_queue_pair(sq_base, d.cfg_.queue_entries, cq_base,
                                                   d.cfg_.queue_entries, vector);
    if (!qid) {
      promise.set(qid.status());
      co_return;
    }
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
  d.completion_loop(d.stop_);
  if (!d.cfg_.use_interrupts) {
    auto cq_watch = fabric.watch_writes(host, d.cq_addr_, cq_ring_bytes * d.cfg_.channels,
                                        *d.poll_timer_);
    if (!cq_watch) {
      promise.set(cq_watch.status());
      co_return;
    }
    d.cq_watch_ = std::move(*cq_watch);
  }
  NVS_LOG(info, "local") << "local driver up, qid " << d.qids_[0]
                         << (d.cfg_.channels > 1
                                 ? " (+" + std::to_string(d.cfg_.channels - 1) + " channels)"
                                 : "")
                         << (d.cfg_.use_interrupts ? " (MSI-X)" : " (polled)");
  promise.set(std::move(self));
}

sim::Future<block::Completion> LocalDriver::submit(const block::Request& request) {
  sim::Promise<block::Completion> promise(cluster_.engine());
  io_task(request, promise);
  return promise.future();
}

sim::Task LocalDriver::io_task(block::Request request,
                               sim::Promise<block::Completion> promise) {
  auto stop = stop_;
  sim::Engine& eng = cluster_.engine();
  const sim::Time start = eng.now();
  auto finish = [&](Status st) {
    if (!st) ++stats_.errors;
    promise.set(block::Completion{std::move(st), eng.now() - start});
  };

  if (Status st = block::validate_command_request(*this, request); !st) {
    finish(st);
    co_return;
  }
  const block::IoEngine::Grant grant = co_await engine_io_->acquire();
  if (*stop) {
    engine_io_->release(grant);
    finish(Status(Errc::aborted, "driver stopped"));
    co_return;
  }
  const std::uint32_t slot = grant.slot;

  co_await sim::delay(eng, cfg_.costs.jittered(cfg_.costs.submit_ns, rng_));

  const std::uint64_t bytes =
      static_cast<std::uint64_t>(request.nblocks) * ctrl_->block_size();

  // Direct DMA: PRPs point straight at the request buffer (local memory, no
  // bounce). PRP lists and discard ranges go into this slot's list page.
  const std::uint64_t page =
      prp_pages_addr_ + static_cast<std::uint64_t>(slot) * nvme::kPageSize;
  mem::PhysMem& dram = cluster_.fabric().host_dram(ctrl_->host());
  nvme::PrpPair prp;
  if (request.op == block::Op::discard) {
    nvme::DsmRange range;
    range.nlb = request.nblocks;
    range.slba = request.lba;
    (void)dram.write(page, as_bytes_of(range));
    prp.prp1 = page;
  } else if (request.op == block::Op::read || request.op == block::Op::write) {
    prp = nvme::make_prps(request.buffer_addr, bytes, page);
    if (const std::uint64_t n = nvme::prp_list_bytes(request.buffer_addr, bytes); n > 0) {
      Bytes list(n);
      nvme::fill_prp_list(request.buffer_addr, bytes, list);
      (void)dram.write(page, list);
    }
  }

  SubmissionEntry sqe =
      nvme::make_io(block::nvme_opcode(request.op), 1, request.lba,
                    static_cast<std::uint16_t>(request.nblocks), prp.prp1, prp.prp2);
  if (request.op == block::Op::read) {
    ++stats_.reads;
  } else if (request.op == block::Op::flush) {
    ++stats_.flushes;
  } else {
    ++stats_.writes;
  }
  block::IoEngine::RunArgs run_args;
  run_args.grant = grant;
  run_args.cookie = &sqe;
  const block::CmdOutcome outcome = co_await engine_io_->run(run_args);
  if (outcome.completed()) {
    co_await sim::delay(eng, cfg_.costs.jittered(cfg_.costs.completion_ns, rng_));
  }
  engine_io_->release(grant);
  finish(block::outcome_status(outcome, "driver stopped"));
}

void LocalDriver::drain_cq() {
  std::array<nvme::CompletionEntry, 32> cqes;
  for (std::uint32_t chan = 0; chan < cfg_.channels; ++chan) {
    bool delivered = false;
    for (;;) {
      const std::size_t n = qps_[chan]->reap(cqes);
      for (std::size_t i = 0; i < n; ++i) {
        (void)engine_io_->complete(chan, cqes[i].cid, cqes[i].status());
      }
      if (n > 0) delivered = true;
      if (n < cqes.size()) break;
    }
    if (delivered) (void)qps_[chan]->ring_cq_doorbell();
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
