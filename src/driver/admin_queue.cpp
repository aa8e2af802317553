#include "driver/admin_queue.hpp"

#include <algorithm>
#include <string>

namespace nvmeshare::driver {

using nvme::CompletionEntry;
using nvme::SubmissionEntry;

namespace {
constexpr sim::Duration kRegPollNs = 1000;
constexpr int kRegPollLimit = 1000;
constexpr sim::Duration kAdminTimeoutNs = 50_ms;

/// The failure of admin command `what`: io_error naming its NVMe status, or
/// the transport status when no completion arrived.
Status refused(const Result<CompletionEntry>& cqe, const char* what) {
  if (!cqe) return cqe.status();
  return Status(Errc::io_error,
                std::string(what) + " failed: " + nvme::status_name(cqe->status()));
}
}  // namespace

AdminQueue::AdminQueue(fabric::Substrate& fabric, const CostModel& costs)
    : fabric_(fabric), costs_(costs), lock_(fabric.engine(), 1) {}

Status AdminQueue::write_reg(std::uint64_t offset, std::uint64_t value, std::size_t width) {
  Bytes b(width);
  if (width == 4) {
    store_pod(b, static_cast<std::uint32_t>(value));
  } else {
    store_pod(b, value);
  }
  return fabric_.post_write(layout_.cpu, layout_.bar + offset, std::move(b)).status();
}

void AdminQueue::open() {
  nvme::QueuePair::Config qc;
  qc.qid = 0;
  qc.sq_size = layout_.entries;
  qc.cq_size = layout_.entries;
  qc.sq_write_addr = layout_.sq.cpu_addr;
  qc.cq_poll_addr = layout_.cq.cpu_addr;
  qc.sq_doorbell_addr = layout_.bar + nvme::sq_doorbell_offset(0);
  qc.cq_doorbell_addr = layout_.bar + nvme::cq_doorbell_offset(0);
  qc.cpu = layout_.cpu;
  qp_ = std::make_unique<nvme::QueuePair>(fabric_, qc);
}

void AdminQueue::adopt(const nvme::QueuePair::RingState& state) {
  open();
  qp_->restore(state);
}

sim::Co<Status> AdminQueue::wait_ready(bool want, bool strict) {
  sim::Engine& engine = fabric_.engine();
  for (int i = 0;; ++i) {
    auto csts = co_await fabric_.read(layout_.cpu, layout_.bar + nvme::reg::kCsts, 4);
    if (csts) {
      const auto v = load_pod<std::uint32_t>(*csts);
      if (strict && want && (v & nvme::kCstsFatal) != 0) {
        co_return Status(Errc::unavailable, "controller reported fatal status on enable");
      }
      if (((v & nvme::kCstsReady) != 0) == want) co_return Status::ok();
    } else if (strict) {
      co_return csts.status();
    }
    if (strict && i >= kRegPollLimit) break;
    co_await sim::delay(engine, kRegPollNs);
    if (!strict && i + 1 >= kRegPollLimit) break;
  }
  co_return Status(Errc::timed_out, want ? "controller did not become ready"
                                         : "controller did not leave ready state");
}

sim::Co<EnableResult> AdminQueue::enable(std::uint32_t cc_extra, bool strict) {
  EnableResult r;
  if (Status st = write_reg(nvme::reg::kCc, 0, 4); !st && strict) {
    r.status = st;
    co_return r;
  }
  const Status down = co_await wait_ready(false, strict);
  r.down = down.is_ok();
  if (!r.down && strict) {
    r.status = down;
    co_return r;
  }
  // Zero the ring memory: stale phase bits would alias as completions.
  for (const AdminRing* ring : {&layout_.sq, &layout_.cq}) {
    (void)fabric_.host_dram(ring->home).write(ring->phys, Bytes(ring->bytes, std::byte{0}));
  }
  const std::uint32_t aqa = static_cast<std::uint32_t>(layout_.entries - 1) |
                            (static_cast<std::uint32_t>(layout_.entries - 1) << 16);
  if (Status st = write_reg(nvme::reg::kAqa, aqa, 4); !st && strict) {
    r.status = st;
    co_return r;
  }
  (void)write_reg(nvme::reg::kAsq, layout_.sq.device_addr, 8);
  (void)write_reg(nvme::reg::kAcq, layout_.cq.device_addr, 8);
  (void)write_reg(nvme::reg::kCc, nvme::kCcEnable | cc_extra, 4);
  const Status up = co_await wait_ready(true, strict);
  r.ready = up.is_ok();
  if (!r.ready && strict) {
    r.status = up;
    co_return r;
  }
  r.status = r.down ? up : down;
  // The reset wiped the doorbell state; the ring wrapper restarts at 0 too.
  open();
  advanced();
  co_return r;
}

sim::Co<Result<CompletionEntry>> AdminQueue::submit(SubmissionEntry entry) {
  sim::Engine& engine = fabric_.engine();
  co_await lock_.acquire();
  auto cid = qp_->push(entry);
  if (!cid) {
    lock_.release();
    co_return cid.status();
  }
  // Report the pushed SQ cursor before the doorbell: an owner dying in
  // between leaves a pushed-but-unfetched entry its successor overwrites.
  advanced();
  co_await sim::delay(engine, costs_.doorbell_ns);
  (void)qp_->ring_sq_doorbell();

  const sim::Time deadline = engine.now() + kAdminTimeoutNs;
  for (;;) {
    if (auto cqe = qp_->poll()) {
      (void)qp_->ring_cq_doorbell();
      advanced();
      lock_.release();
      co_return *cqe;  // NVMe-level failures are reported via cqe->status()
    }
    if (engine.now() >= deadline) {
      lock_.release();
      co_return Status(Errc::timed_out, "admin command timed out");
    }
    co_await sim::delay(engine, std::max<sim::Duration>(costs_.poll_interval_ns, 200));
  }
}

sim::Co<Result<std::uint16_t>> AdminQueue::negotiate_queues(std::uint16_t requested) {
  auto feat =
      co_await sim::spawn(engine(), submit(nvme::make_set_num_queues(0, requested, requested)));
  if (!feat || !feat->ok()) co_return refused(feat, "set number of queues");
  const auto nsqa = static_cast<std::uint16_t>((feat->dw0 & 0xFFFF) + 1);
  const auto ncqa = static_cast<std::uint16_t>((feat->dw0 >> 16) + 1);
  co_return std::min(nsqa, ncqa);
}

sim::Co<Result<ControllerInfo>> AdminQueue::identify(AdminRing data, std::uint16_t requested) {
  ControllerInfo info;
  Bytes payload(4096);
  auto ctrl = co_await sim::spawn(
      engine(), submit(nvme::make_identify(0, nvme::IdentifyCns::controller, 0, data.device_addr)));
  if (!ctrl || !ctrl->ok()) co_return refused(ctrl, "identify controller");
  (void)fabric_.host_dram(data.home).read(data.phys, payload);
  info.max_transfer_bytes = static_cast<std::uint32_t>(
      (1u << nvme::parse_identify_controller(payload).mdts_pages_log2) * nvme::kPageSize);

  auto ns = co_await sim::spawn(
      engine(), submit(nvme::make_identify(0, nvme::IdentifyCns::ns, 1, data.device_addr)));
  if (!ns || !ns->ok()) co_return refused(ns, "identify namespace");
  (void)fabric_.host_dram(data.home).read(data.phys, payload);
  const auto nsinfo = nvme::parse_identify_namespace(payload);
  info.capacity_blocks = nsinfo.size_blocks;
  info.block_size = nsinfo.block_size;

  auto granted = co_await negotiate_queues(requested);
  if (!granted) co_return granted.status();
  info.granted_io_queues = *granted;
  co_return info;
}

sim::Co<Result<CompletionEntry>> AdminQueue::delete_cq(std::uint16_t qid) {
  return submit(nvme::make_delete_io_cq(0, qid));
}

sim::Co<CreateResult> AdminQueue::create_io_pair(IoPairSpec spec, const bool* stop) {
  CreateResult r;
  auto cq = co_await sim::spawn(
      engine(), submit(nvme::make_create_io_cq(0, spec.qid, spec.cq_size, spec.cq_addr,
                                               spec.irq_vector.has_value(),
                                               spec.irq_vector.value_or(0))));
  if (stop != nullptr && *stop) {
    r.stopped = true;
    co_return r;
  }
  if (!cq || !cq->ok()) {
    r.status = refused(cq, "create CQ");
    r.nvme_status = cq ? cq->status() : 0;
    co_return r;
  }
  auto sq = co_await sim::spawn(
      engine(), submit(nvme::make_create_io_sq(0, spec.qid, spec.sq_size, spec.sq_addr, spec.qid,
                                               spec.priority)));
  if (stop != nullptr && *stop) {
    r.stopped = true;
    co_return r;
  }
  if (!sq || !sq->ok()) {
    (void)co_await sim::spawn(engine(), delete_cq(spec.qid));
    r.status = refused(sq, "create SQ");
    r.nvme_status = sq ? sq->status() : 0;
  }
  co_return r;
}

sim::Co<DeleteResult> AdminQueue::delete_io_pair(std::uint16_t qid) {
  auto sq = co_await sim::spawn(engine(), submit(nvme::make_delete_io_sq(0, qid)));
  auto cq = co_await sim::spawn(engine(), delete_cq(qid));
  co_return DeleteResult{sq && sq->ok(), cq && cq->ok()};
}

}  // namespace nvmeshare::driver
