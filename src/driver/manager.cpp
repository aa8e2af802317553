#include "driver/manager.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/log.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace nvmeshare::driver {

using nvme::CompletionEntry;
using nvme::SubmissionEntry;

namespace {
constexpr sim::Duration kRegPollNs = 1000;
constexpr int kRegPollLimit = 1000;
constexpr sim::Duration kAdminTimeoutNs = 50_ms;
// Standby bring-up: how long to keep retrying the shared device acquisition
// and the metadata lookup while the active manager is still initializing.
constexpr sim::Duration kStandbyRetryNs = 50'000;
constexpr int kStandbyRetryLimit = 200;

QpOwnerEntry make_owner_entry(const MboxSlot& slot, std::uint64_t sq_base,
                              std::uint64_t cq_base, QpOwnerState state, sim::Time now) {
  QpOwnerEntry e;
  e.state = static_cast<std::uint32_t>(state);
  e.owner_node = slot.client_node;
  e.sq_device_addr = sq_base;
  e.cq_device_addr = cq_base;
  e.created_at_ns = now;
  e.sq_size = slot.sq_size;
  e.cq_size = slot.cq_size;
  e.qos_class = slot.qos_granted_class;
  e.granted_iops = slot.qos_granted_iops;
  e.granted_bytes_per_s = slot.qos_granted_bytes_per_s;
  return e;
}
}  // namespace

Manager::Stats::Stats()
    : mailbox_requests("nvmeshare.manager.mailbox_requests"),
      qps_created("nvmeshare.manager.qps_created"),
      qps_deleted("nvmeshare.manager.qps_deleted"),
      request_errors("nvmeshare.manager.request_errors"),
      qps_reaped("nvmeshare.manager.qps_reaped"),
      ctrl_resets("nvmeshare.manager.ctrl_resets"),
      scrub_sweeps("nvmeshare.manager.scrub_sweeps"),
      scrub_mismatches("nvmeshare.manager.scrub_mismatches"),
      lease_renewals("nvmeshare.manager.lease_renewals"),
      takeovers("nvmeshare.manager.takeovers"),
      fencings("nvmeshare.manager.fencings"),
      qps_adopted("nvmeshare.manager.qps_adopted"),
      intent_rollbacks("nvmeshare.manager.intent_rollbacks"),
      shares_granted("nvmeshare.manager.shares_granted"),
      shares_released("nvmeshare.manager.shares_released") {}

Manager::Manager(smartio::Service& service, smartio::NodeId node, smartio::DeviceId device,
                 Config cfg)
    : service_(service), node_(node), device_id_(device), cfg_(cfg) {}

Manager::~Manager() {
  shutdown();
  if (crash_token_ != 0) fault::Injector::global().unregister_crash_handler(crash_token_);
}

sim::Engine& Manager::engine() { return service_.cluster().engine(); }
fabric::Substrate& Manager::fabric() { return service_.cluster().fabric(); }

std::uint16_t Manager::active_queue_pairs() const {
  return static_cast<std::uint16_t>(std::count(qid_used_.begin(), qid_used_.end(), true));
}

void Manager::shutdown() {
  if (standby_) {  // still watching: nothing published, just stop the watch
    standby_ = false;
    halt();
    return;
  }
  if (!serving_) return;
  serving_ = false;
  halt();
  // Only withdraw the registration while it still names this instance — a
  // fenced or superseded manager must not clobber its successor's.
  auto loc = service_.device_metadata(device_id_);
  if (loc && loc->first == node_ && loc->second == cfg_.metadata_segment_id) {
    (void)service_.clear_device_metadata(device_id_);
  }
}

void Manager::crash() {
  if (crashed_) return;
  crashed_ = true;
  serving_ = false;
  halt();
  // Deliberately NO clear_device_metadata: a dead process cannot clean up
  // after itself. The metadata segment survives in this host's DRAM, so
  // clients find a mailbox that nobody answers — their calls time out.
  NVS_LOG(warn, "manager") << "manager on node " << node_ << " crashed (fault injection)";
}

sim::Future<Result<std::unique_ptr<Manager>>> Manager::start(smartio::Service& service,
                                                             smartio::NodeId node,
                                                             smartio::DeviceId device,
                                                             Config cfg) {
  sim::Promise<Result<std::unique_ptr<Manager>>> promise(service.cluster().engine());
  auto self = std::unique_ptr<Manager>(new Manager(service, node, device, cfg));
  init_task(std::move(self), promise);
  return promise.future();
}

sim::Task Manager::init_task(std::unique_ptr<Manager> self,
                             sim::Promise<Result<std::unique_ptr<Manager>>> promise) {
  Manager& m = *self;
  fabric::Substrate& fabric = m.fabric();
  sim::Engine& engine = m.engine();
  sisci::Cluster& cluster = m.service_.cluster();
  const pcie::Initiator cpu = fabric.cpu(m.node_);

  // 1. Lock the device: only one process may reset/initialize it.
  auto ref = m.service_.acquire(m.device_id_, smartio::AcquireMode::exclusive);
  if (!ref) {
    promise.set(ref.status());
    co_return;
  }
  m.ref_ = std::move(*ref);

  // 2. Map device registers (BAR window, possibly across the NTB).
  auto bar = m.ref_.map_bar(m.node_, 0);
  if (!bar) {
    promise.set(bar.status());
    co_return;
  }
  m.bar_ = std::move(*bar);

  auto write_reg32 = [&](std::uint64_t off, std::uint32_t v) {
    Bytes b(4);
    store_pod(b, v);
    return fabric.post_write(cpu, m.bar_.addr() + off, std::move(b)).status();
  };
  auto write_reg64 = [&](std::uint64_t off, std::uint64_t v) {
    Bytes b(8);
    store_pod(b, v);
    return fabric.post_write(cpu, m.bar_.addr() + off, std::move(b)).status();
  };

  // 3. Reset the controller and wait until it is down.
  if (Status st = write_reg32(nvme::reg::kCc, 0); !st) {
    promise.set(st);
    co_return;
  }
  for (int i = 0;; ++i) {
    auto csts = co_await fabric.read(cpu, m.bar_.addr() + nvme::reg::kCsts, 4);
    if (!csts) {
      promise.set(csts.status());
      co_return;
    }
    if ((load_pod<std::uint32_t>(*csts) & nvme::kCstsReady) == 0) break;
    if (i >= kRegPollLimit) {
      promise.set(Status(Errc::timed_out, "controller did not leave ready state"));
      co_return;
    }
    co_await sim::delay(engine, kRegPollNs);
  }

  // 4. Admin queue memory, placed by access-pattern hint (Figure 8): the SQ
  //    goes device-side so command fetches never cross the NTB; the CQ
  //    stays local so polling never stalls.
  const std::uint16_t entries = m.cfg_.admin_entries;
  auto asq_seg = m.service_.create_segment_hinted(m.node_, m.cfg_.private_segment_base + 0,
                                                  entries * 64ull, m.device_id_,
                                                  smartio::AccessHint::sq());
  auto acq_seg = m.service_.create_segment_hinted(m.node_, m.cfg_.private_segment_base + 1,
                                                  entries * 16ull, m.device_id_,
                                                  smartio::AccessHint::cq());
  auto data_seg = m.service_.create_segment_hinted(m.node_, m.cfg_.private_segment_base + 2,
                                                   4096, m.device_id_,
                                                   smartio::AccessHint::cq());
  if (!asq_seg || !acq_seg || !data_seg) {
    promise.set(Status(Errc::resource_exhausted, "no memory for admin segments"));
    co_return;
  }
  m.asq_seg_ = std::move(*asq_seg);
  m.acq_seg_ = std::move(*acq_seg);
  m.admin_data_seg_ = std::move(*data_seg);
  // Zero the queue memory: stale phase bits in reused pages would be read
  // as valid completions.
  (void)m.asq_seg_.write(0, Bytes(m.asq_seg_.size(), std::byte{0}));
  (void)m.acq_seg_.write(0, Bytes(m.acq_seg_.size(), std::byte{0}));

  // 5. DMA windows: device-visible addresses for the queue memory.
  auto asq_win = m.ref_.map_for_device(m.asq_seg_.descriptor());
  auto acq_win = m.ref_.map_for_device(m.acq_seg_.descriptor());
  auto data_win = m.ref_.map_for_device(m.admin_data_seg_.descriptor());
  if (!asq_win || !acq_win || !data_win) {
    promise.set(Status(Errc::resource_exhausted, "no NTB windows for admin segments"));
    co_return;
  }
  m.asq_win_ = std::move(*asq_win);
  m.acq_win_ = std::move(*acq_win);
  m.admin_data_win_ = std::move(*data_win);

  // 6. CPU views of the admin rings: the SQ may live device-side; the CQ
  //    is direct for local DRAM, an HDM address when pooled.
  auto asq_map = sisci::Map::create(cluster, m.node_, m.asq_seg_.descriptor());
  auto acq_map = sisci::Map::create(cluster, m.node_, m.acq_seg_.descriptor());
  if (!asq_map || !acq_map) {
    promise.set((!asq_map ? asq_map.status() : acq_map.status()));
    co_return;
  }
  m.asq_cpu_map_ = std::move(*asq_map);
  m.acq_cpu_map_ = std::move(*acq_map);

  // 7. Program admin queue registers and enable.
  const std::uint32_t aqa = static_cast<std::uint32_t>(entries - 1) |
                            (static_cast<std::uint32_t>(entries - 1) << 16);
  (void)write_reg32(nvme::reg::kAqa, aqa);
  (void)write_reg64(nvme::reg::kAsq, m.asq_win_.device_addr());
  (void)write_reg64(nvme::reg::kAcq, m.acq_win_.device_addr());
  (void)write_reg32(nvme::reg::kCc,
                    nvme::kCcEnable | (m.cfg_.enable_wrr ? nvme::kCcAmsWrrBits : 0));
  for (int i = 0;; ++i) {
    auto csts = co_await fabric.read(cpu, m.bar_.addr() + nvme::reg::kCsts, 4);
    if (!csts) {
      promise.set(csts.status());
      co_return;
    }
    const auto v = load_pod<std::uint32_t>(*csts);
    if ((v & nvme::kCstsFatal) != 0) {
      promise.set(Status(Errc::unavailable, "controller fatal on enable"));
      co_return;
    }
    if ((v & nvme::kCstsReady) != 0) break;
    if (i >= kRegPollLimit) {
      promise.set(Status(Errc::timed_out, "controller did not become ready"));
      co_return;
    }
    co_await sim::delay(engine, kRegPollNs);
  }

  nvme::QueuePair::Config qc;
  qc.qid = 0;
  qc.sq_size = entries;
  qc.cq_size = entries;
  qc.sq_write_addr = m.asq_cpu_map_.addr();
  qc.cq_poll_addr = m.acq_cpu_map_.addr();  // hint guarantees it is pollable
  qc.sq_doorbell_addr = m.bar_.addr() + nvme::sq_doorbell_offset(0);
  qc.cq_doorbell_addr = m.bar_.addr() + nvme::cq_doorbell_offset(0);
  qc.cpu = cpu;
  m.admin_qp_ = std::make_unique<nvme::QueuePair>(fabric, qc);
  m.admin_lock_ = std::make_unique<sim::Semaphore>(engine, 1);

  // 8. Identify controller and namespace.
  auto ident = co_await m.submit_admin(
      nvme::make_identify(0, nvme::IdentifyCns::controller, 0, m.admin_data_win_.device_addr()));
  if (!ident) {
    promise.set(ident.status());
    co_return;
  }
  Bytes payload(4096);
  (void)m.admin_data_seg_.read(0, payload);
  const auto ctrl = nvme::parse_identify_controller(payload);

  auto ns = co_await m.submit_admin(
      nvme::make_identify(0, nvme::IdentifyCns::ns, 1, m.admin_data_win_.device_addr()));
  if (!ns) {
    promise.set(ns.status());
    co_return;
  }
  (void)m.admin_data_seg_.read(0, payload);
  const auto nsinfo = nvme::parse_identify_namespace(payload);

  // 9. Negotiate I/O queue count.
  auto feat = co_await m.submit_admin(
      nvme::make_set_num_queues(0, m.cfg_.requested_io_queues, m.cfg_.requested_io_queues));
  if (!feat) {
    promise.set(feat.status());
    co_return;
  }
  const auto nsqa = static_cast<std::uint16_t>((feat->dw0 & 0xFFFF) + 1);
  const auto ncqa = static_cast<std::uint16_t>((feat->dw0 >> 16) + 1);
  const std::uint16_t granted = std::min(nsqa, ncqa);

  // 9b. WRR mode: program the arbitration burst and class weights the
  // controller will spend per turn (Set Features / Arbitration).
  if (m.cfg_.enable_wrr) {
    auto arb = co_await m.submit_admin(nvme::make_set_arbitration(
        0, m.cfg_.arb_burst_log2, m.cfg_.wrr_low_weight, m.cfg_.wrr_medium_weight,
        m.cfg_.wrr_high_weight));
    if (!arb) {
      promise.set(arb.status());
      co_return;
    }
  }

  // 10. Done with privileged init: let clients share the device.
  if (Status st = m.ref_.downgrade_to_shared(); !st) {
    promise.set(st);
    co_return;
  }

  // 11. Publish the metadata segment.
  const auto nodes = static_cast<std::uint32_t>(fabric.host_count());
  // Every client CPU reads this segment; the substrate places it where that
  // works (NTB: manager-local DRAM mapped via LUTs, CXL: the shared pool).
  auto meta = cluster.create_segment_placed(m.node_, m.node_, /*cpu_access=*/true,
                                            /*device_access=*/false,
                                            m.cfg_.metadata_segment_id,
                                            metadata_segment_size(nodes));
  if (!meta) {
    promise.set(meta.status());
    co_return;
  }
  m.metadata_seg_ = std::move(*meta);

  m.header_.manager_node = m.node_;
  m.header_.device_id = m.device_id_;
  m.header_.capacity_blocks = nsinfo.size_blocks;
  m.header_.block_size = nsinfo.block_size;
  m.header_.max_transfer_bytes =
      static_cast<std::uint32_t>((1u << ctrl.mdts_pages_log2) * nvme::kPageSize);
  m.header_.max_queue_pairs = static_cast<std::uint16_t>(granted + 1);
  m.header_.granted_io_queues = granted;
  m.header_.mailbox_slots = nodes;
  m.header_.mailbox_offset = 4096;
  (void)m.metadata_seg_.write(0, as_bytes_of(m.header_));
  // v4: publish the QoS policy table so clients can see what a grant
  // request will be judged against.
  (void)m.metadata_seg_.write(kQosPolicyOffset, as_bytes_of(m.cfg_.qos_policy));

  m.qid_used_.assign(granted + 1u, false);
  m.qid_used_[0] = true;  // admin
  m.qid_owner_.assign(granted + 1u, 0);
  m.qid_created_at_.assign(granted + 1u, 0);
  m.qid_sq_addr_.assign(granted + 1u, 0);
  m.qid_shares_.assign(granted + 1u, {});
  m.qid_sq_size_.assign(granted + 1u, 0);

  // v5: persist where the admin rings live and their cursors so a standby
  // can continue them without a controller reset (AQA/ASQ/ACQ are latched
  // at enable — rebuilding them would kill every client's I/O queues).
  m.journal_.asq_node = m.asq_seg_.node();
  m.journal_.asq_segment = m.asq_seg_.id();
  m.journal_.acq_node = m.acq_seg_.node();
  m.journal_.acq_segment = m.acq_seg_.id();
  m.journal_.entries = entries;
  m.journal_ready_ = true;
  m.journal_admin_ring();
  if (m.cfg_.lease_duration_ns > 0) {
    m.epoch_ = 1;
    m.publish_lease();
  }

  if (Status st = m.service_.set_device_metadata(m.device_id_, m.metadata_seg_.node(),
                                                 m.cfg_.metadata_segment_id);
      !st) {
    promise.set(st);
    co_return;
  }

  m.serving_ = true;
  m.serve_mailbox();
  if (m.cfg_.lease_duration_ns > 0) m.lease_task(m.stop_);
  if (m.cfg_.client_heartbeat_timeout_ns > 0) m.reaper_task(m.stop_);
  if (m.cfg_.csts_poll_interval_ns > 0) m.watchdog_task(m.stop_);
  if (m.cfg_.scrub_interval_ns > 0) m.scrub_task(m.stop_);
  if (fault::enabled()) {
    Manager* raw = self.get();
    m.crash_token_ = fault::Injector::global().register_crash_handler(
        m.node_, [raw]() { raw->crash(); });
  }
  NVS_LOG(info, "manager") << "serving device " << m.device_id_ << " from node " << m.node_
                           << " with " << granted << " IO queue pairs";
  promise.set(std::move(self));
}

sim::Future<Result<CompletionEntry>> Manager::submit_admin(SubmissionEntry entry) {
  sim::Promise<Result<CompletionEntry>> promise(engine());
  admin_task(entry, promise);
  return promise.future();
}

sim::Task Manager::admin_task(SubmissionEntry entry,
                              sim::Promise<Result<CompletionEntry>> promise) {
  sim::Engine& eng = engine();
  co_await admin_lock_->acquire();
  auto cid = admin_qp_->push(entry);
  if (!cid) {
    admin_lock_->release();
    promise.set(cid.status());
    co_return;
  }
  // Journal the SQ cursor before the doorbell: dying in between leaves a
  // pushed-but-unfetched entry that the successor simply overwrites.
  journal_admin_ring();
  co_await sim::delay(eng, cfg_.costs.doorbell_ns);
  (void)admin_qp_->ring_sq_doorbell();

  const sim::Time deadline = eng.now() + kAdminTimeoutNs;
  for (;;) {
    if (auto cqe = admin_qp_->poll()) {
      (void)admin_qp_->ring_cq_doorbell();
      journal_admin_ring();
      admin_lock_->release();
      promise.set(*cqe);  // NVMe-level failures are reported via cqe->status()
      co_return;
    }
    if (eng.now() >= deadline) {
      admin_lock_->release();
      promise.set(Status(Errc::timed_out, "admin command timed out"));
      co_return;
    }
    co_await sim::delay(eng, std::max<sim::Duration>(cfg_.costs.poll_interval_ns, 200));
  }
}

void Manager::halt() {
  *stop_ = true;
  if (mailbox_timer_ != nullptr) mailbox_timer_->notify();
  mailbox_timer_ = nullptr;
  mailbox_watch_.reset();
}

void Manager::serve_mailbox() {
  mailbox_server(stop_);
  // Segment reads go straight to the backing memory, so the watch does too.
  mailbox_watch_ = mem::WriteWatch(
      fabric().host_dram(metadata_seg_.node()),
      metadata_seg_.phys_addr() + mbox_slot_offset(header_, 0),
      static_cast<std::uint64_t>(header_.mailbox_slots) * sizeof(MboxSlot), *mailbox_timer_);
}

sim::Task Manager::mailbox_server(std::shared_ptr<bool> stop) {
  sim::Engine& eng = engine();
  // A scan that finds no request is skipped by the engine (sim::PollTimer).
  sim::PollTimer timer(eng);
  mailbox_timer_ = &timer;
  for (;;) {
    if (*stop) co_return;
    bool worked = false;
    const std::uint32_t slots = header_.mailbox_slots;
    for (std::uint32_t i = 0; i < slots; ++i) {
      MboxSlot slot;
      if (Status st = metadata_seg_.read(mbox_slot_offset(header_, i),
                                         as_writable_bytes_of(slot));
          !st) {
        continue;
      }
      if (slot.state != static_cast<std::uint32_t>(MboxState::request)) continue;
      worked = true;
      co_await handle_slot_await(i, slot, stop);
      if (*stop) co_return;
    }
    // Cheap insurance: the next scan after a handled request is real even
    // if the handler left its slot unchanged.
    if (worked) timer.notify();
    co_await sim::poll_tick(eng, timer, cfg_.mailbox_poll_ns);
    if (*stop) co_return;
  }
}

// handle_slot_task is awaited inline from the server loop (via the future
// wrapper) so one request fully completes before the next slot is scanned.
sim::Future<bool> Manager::handle_slot_await(std::uint32_t slot_index, MboxSlot slot,
                                             std::shared_ptr<bool> stop) {
  sim::Promise<bool> done(engine());
  handle_slot_task(slot_index, slot, std::move(stop), done);
  return done.future();
}

sim::Task Manager::handle_slot_task(std::uint32_t slot_index, MboxSlot slot,
                                    std::shared_ptr<bool> stop, sim::Promise<bool> done) {
  ++stats_.mailbox_requests;
  co_await sim::delay(engine(), cfg_.mailbox_service_ns);
  if (*stop) {
    done.set(false);
    co_return;
  }

  auto respond = [&](Errc errc, std::uint16_t qid, std::uint16_t nvme_status) {
    slot.status = static_cast<std::uint32_t>(errc);
    slot.qid_out = qid;
    slot.nvme_status = nvme_status;
    slot.epoch = static_cast<std::uint32_t>(epoch_);  // v5: fenceable response
    slot.state = static_cast<std::uint32_t>(MboxState::done);
    (void)metadata_seg_.write(mbox_slot_offset(header_, slot_index), as_bytes_of(slot));
    if (errc != Errc::ok) ++stats_.request_errors;
  };

  switch (static_cast<MboxOp>(slot.op)) {
    case MboxOp::ping:
      respond(Errc::ok, 0, 0);
      break;
    case MboxOp::create_qp: {
      if (slot.sq_size < 2 || slot.cq_size < 2 || slot.sq_device_addr == 0 ||
          slot.cq_device_addr == 0) {
        respond(Errc::invalid_argument, 0, 0);
        break;
      }
      if (!grant_qos(slot)) {
        respond(Errc::permission_denied, 0, 0);
        break;
      }
      // Idempotent re-serve: a previous manager may have created this
      // client's queues and died before responding; the retry arrives with
      // the same (deterministic) queue addresses, so reclaim the overlap
      // before granting afresh.
      if (has_stale_overlap(slot.client_node, slot.sq_device_addr, slot.sq_device_addr + 1)) {
        co_await reclaim_stale_await(slot.client_node, slot.sq_device_addr,
                                     slot.sq_device_addr + 1);
        if (*stop) {
          done.set(false);
          co_return;
        }
      }
      // Pick a free queue id.
      std::uint16_t qid = 0;
      for (std::uint16_t q = 1; q < qid_used_.size(); ++q) {
        if (!qid_used_[q]) {
          qid = q;
          break;
        }
      }
      if (qid == 0) {
        respond(Errc::resource_exhausted, 0, 0);
        break;
      }
      // Write-ahead intent (v5): if we die between here and the active
      // flip, a takeover rolls the half-made grant back.
      write_owner_entry(qid, make_owner_entry(slot, slot.sq_device_addr, slot.cq_device_addr,
                                              QpOwnerState::pending, engine().now()));
      auto cq = co_await submit_admin(
          nvme::make_create_io_cq(0, qid, slot.cq_size, slot.cq_device_addr,
                                  /*irq_enable=*/false, 0));
      if (*stop) {
        done.set(false);
        co_return;
      }
      if (!cq || !cq->ok()) {
        clear_owner_entry(qid);
        respond(cq ? Errc::io_error : cq.status().code(), 0, cq ? cq->status() : 0);
        break;
      }
      auto sq = co_await submit_admin(nvme::make_create_io_sq(
          0, qid, slot.sq_size, slot.sq_device_addr, qid, sq_priority(slot)));
      if (*stop) {
        done.set(false);
        co_return;
      }
      if (!sq || !sq->ok()) {
        (void)co_await submit_admin(nvme::make_delete_io_cq(0, qid));
        clear_owner_entry(qid);
        respond(sq ? Errc::io_error : sq.status().code(), 0, sq ? sq->status() : 0);
        break;
      }
      qid_used_[qid] = true;
      qid_owner_[qid] = slot.client_node;
      qid_created_at_[qid] = engine().now();
      qid_sq_addr_[qid] = slot.sq_device_addr;
      qid_sq_size_[qid] = slot.sq_size;
      write_owner_entry(qid, make_owner_entry(slot, slot.sq_device_addr, slot.cq_device_addr,
                                              QpOwnerState::active, qid_created_at_[qid]));
      ++stats_.qps_created;
      NVS_LOG(info, "manager") << "created QP " << qid << " for node " << slot.client_node;
      respond(Errc::ok, qid, 0);
      break;
    }
    case MboxOp::delete_qp: {
      const std::uint16_t qid = slot.qid_in;
      if (qid == 0 || qid >= qid_used_.size() || !qid_used_[qid] ||
          qid_owner_[qid] != slot.client_node) {
        respond(Errc::permission_denied, 0, 0);
        break;
      }
      auto sq = co_await submit_admin(nvme::make_delete_io_sq(0, qid));
      auto cq = co_await submit_admin(nvme::make_delete_io_cq(0, qid));
      if (*stop) {
        done.set(false);
        co_return;
      }
      if (!sq || !sq->ok() || !cq || !cq->ok()) {
        respond(Errc::io_error, 0, 0);
        break;
      }
      qid_used_[qid] = false;
      qid_owner_[qid] = 0;
      qid_created_at_[qid] = 0;
      qid_sq_addr_[qid] = 0;
      release_shares(qid);
      clear_owner_entry(qid);
      ++stats_.qps_deleted;
      respond(Errc::ok, qid, 0);
      break;
    }
    case MboxOp::create_qp_batch: {
      // Multi-channel grant: one pair per channel, SQ/CQ bases advancing by
      // the client's strides. All-or-nothing — a mid-batch failure deletes
      // what this batch already created before responding.
      const std::uint16_t count = slot.qp_count;
      if (count == 0 || count > kMaxBatchQps || slot.sq_size < 2 || slot.cq_size < 2 ||
          slot.sq_device_addr == 0 || slot.cq_device_addr == 0 ||
          (count > 1 && (slot.sq_stride == 0 || slot.cq_stride == 0))) {
        respond(Errc::invalid_argument, 0, 0);
        break;
      }
      // One QoS grant covers the whole batch: every channel shares the class.
      if (!grant_qos(slot)) {
        respond(Errc::permission_denied, 0, 0);
        break;
      }
      // Idempotent re-serve across the whole batch's SQ address range.
      const std::uint64_t batch_hi =
          slot.sq_device_addr +
          (count > 1 ? static_cast<std::uint64_t>(count - 1) * slot.sq_stride : 0) + 1;
      if (has_stale_overlap(slot.client_node, slot.sq_device_addr, batch_hi)) {
        co_await reclaim_stale_await(slot.client_node, slot.sq_device_addr, batch_hi);
        if (*stop) {
          done.set(false);
          co_return;
        }
      }
      std::uint16_t created = 0;
      Errc errc = Errc::ok;
      std::uint16_t bad_status = 0;
      while (created < count) {
        std::uint16_t qid = 0;
        for (std::uint16_t q = 1; q < qid_used_.size(); ++q) {
          if (!qid_used_[q]) {
            qid = q;
            break;
          }
        }
        if (qid == 0) {
          errc = Errc::resource_exhausted;
          break;
        }
        const std::uint64_t cq_base =
            slot.cq_device_addr + static_cast<std::uint64_t>(created) * slot.cq_stride;
        const std::uint64_t sq_base =
            slot.sq_device_addr + static_cast<std::uint64_t>(created) * slot.sq_stride;
        write_owner_entry(qid, make_owner_entry(slot, sq_base, cq_base, QpOwnerState::pending,
                                                engine().now()));
        auto cq = co_await submit_admin(nvme::make_create_io_cq(0, qid, slot.cq_size, cq_base,
                                                                /*irq_enable=*/false, 0));
        if (*stop) {
          done.set(false);
          co_return;
        }
        if (!cq || !cq->ok()) {
          clear_owner_entry(qid);
          errc = cq ? Errc::io_error : cq.status().code();
          bad_status = cq ? cq->status() : 0;
          break;
        }
        auto sq = co_await submit_admin(
            nvme::make_create_io_sq(0, qid, slot.sq_size, sq_base, qid, sq_priority(slot)));
        if (*stop) {
          done.set(false);
          co_return;
        }
        if (!sq || !sq->ok()) {
          (void)co_await submit_admin(nvme::make_delete_io_cq(0, qid));
          clear_owner_entry(qid);
          errc = sq ? Errc::io_error : sq.status().code();
          bad_status = sq ? sq->status() : 0;
          break;
        }
        qid_used_[qid] = true;
        qid_owner_[qid] = slot.client_node;
        qid_created_at_[qid] = engine().now();
        qid_sq_addr_[qid] = sq_base;
        qid_sq_size_[qid] = slot.sq_size;
        write_owner_entry(qid, make_owner_entry(slot, sq_base, cq_base, QpOwnerState::active,
                                                qid_created_at_[qid]));
        ++stats_.qps_created;
        slot.qids[created] = qid;
        ++created;
      }
      if (errc != Errc::ok) {
        for (std::uint16_t c = 0; c < created; ++c) {
          const std::uint16_t qid = slot.qids[c];
          (void)co_await submit_admin(nvme::make_delete_io_sq(0, qid));
          (void)co_await submit_admin(nvme::make_delete_io_cq(0, qid));
          qid_used_[qid] = false;
          qid_owner_[qid] = 0;
          qid_created_at_[qid] = 0;
          qid_sq_addr_[qid] = 0;
          release_shares(qid);
          clear_owner_entry(qid);
          ++stats_.qps_deleted;
          slot.qids[c] = 0;
        }
        if (*stop) {
          done.set(false);
          co_return;
        }
        respond(errc, 0, bad_status);
        break;
      }
      NVS_LOG(info, "manager") << "created " << count << " QPs for node "
                               << slot.client_node;
      respond(Errc::ok, slot.qids[0], 0);
      break;
    }
    case MboxOp::delete_qp_batch: {
      const std::uint16_t count = slot.qp_count;
      if (count == 0 || count > kMaxBatchQps) {
        respond(Errc::invalid_argument, 0, 0);
        break;
      }
      // Best effort: every owned qid in the list is attempted so one stale
      // entry cannot strand the rest; the first failure is reported.
      Errc errc = Errc::ok;
      for (std::uint16_t c = 0; c < count; ++c) {
        const std::uint16_t qid = slot.qids[c];
        if (qid == 0 || qid >= qid_used_.size() || !qid_used_[qid] ||
            qid_owner_[qid] != slot.client_node) {
          if (errc == Errc::ok) errc = Errc::permission_denied;
          continue;
        }
        auto sq = co_await submit_admin(nvme::make_delete_io_sq(0, qid));
        auto cq = co_await submit_admin(nvme::make_delete_io_cq(0, qid));
        if (*stop) {
          done.set(false);
          co_return;
        }
        if (!sq || !sq->ok() || !cq || !cq->ok()) {
          if (errc == Errc::ok) errc = Errc::io_error;
          continue;
        }
        qid_used_[qid] = false;
        qid_owner_[qid] = 0;
        qid_created_at_[qid] = 0;
        qid_sq_addr_[qid] = 0;
        release_shares(qid);
        clear_owner_entry(qid);
        ++stats_.qps_deleted;
      }
      respond(errc, 0, 0);
      break;
    }
    case MboxOp::create_share: {
      // v6: subdivide an owned pair's CID space for a tenant. No admin
      // command is involved — the controller never sees shares; they are
      // pure manager bookkeeping the owning client enforces at push time.
      const std::uint16_t qid = slot.qid_in;
      if (qid == 0 || qid >= qid_used_.size() || !qid_used_[qid] ||
          qid_owner_[qid] != slot.client_node) {
        respond(Errc::permission_denied, 0, 0);
        break;
      }
      const std::uint16_t sq_size = qid_sq_size_[qid];
      if (slot.share_cid_count == 0 || slot.share_cid_floor >= sq_size) {
        respond(Errc::invalid_argument, 0, 0);
        break;
      }
      // Per-share QoS rides the same policy table as whole-pair grants.
      if (!grant_qos(slot)) {
        respond(Errc::permission_denied, 0, 0);
        break;
      }
      auto& shares = qid_shares_[qid];
      // Idempotent per tenant: a re-request (say, after the client lost a
      // response) releases the tenant's old range before placing afresh.
      for (auto it = shares.begin(); it != shares.end(); ++it) {
        if (it->tenant == slot.share_tenant) {
          shares.erase(it);
          ++stats_.shares_released;
          break;
        }
      }
      // First-fit gap scan above the owner's reserved floor. `shares` is
      // sorted by lo, so walking it advances the cursor past every taken
      // range.
      const std::uint32_t count = slot.share_cid_count;
      std::uint32_t lo = slot.share_cid_floor;
      bool placed = false;
      for (const ShareEntry& s : shares) {
        if (s.hi <= lo) continue;
        if (lo + count <= s.lo) {
          placed = true;
          break;
        }
        lo = s.hi;
      }
      if (!placed && lo + count > sq_size) {
        respond(Errc::resource_exhausted, 0, 0);
        break;
      }
      ShareEntry entry{slot.share_tenant, static_cast<std::uint16_t>(lo),
                       static_cast<std::uint16_t>(lo + count)};
      shares.insert(std::upper_bound(shares.begin(), shares.end(), entry,
                                     [](const ShareEntry& a, const ShareEntry& b) {
                                       return a.lo < b.lo;
                                     }),
                    entry);
      ++stats_.shares_granted;
      slot.share_cid_lo = entry.lo;
      slot.share_cid_hi = entry.hi;
      NVS_LOG(info, "manager") << "granted tenant " << slot.share_tenant << " CIDs ["
                               << entry.lo << ", " << entry.hi << ") of QP " << qid;
      respond(Errc::ok, qid, 0);
      break;
    }
    case MboxOp::delete_share: {
      const std::uint16_t qid = slot.qid_in;
      if (qid == 0 || qid >= qid_used_.size() || !qid_used_[qid] ||
          qid_owner_[qid] != slot.client_node) {
        respond(Errc::permission_denied, 0, 0);
        break;
      }
      auto& shares = qid_shares_[qid];
      bool found = false;
      for (auto it = shares.begin(); it != shares.end(); ++it) {
        if (it->tenant == slot.share_tenant) {
          slot.share_cid_lo = it->lo;
          slot.share_cid_hi = it->hi;
          shares.erase(it);
          found = true;
          break;
        }
      }
      if (!found) {
        respond(Errc::not_found, 0, 0);
        break;
      }
      ++stats_.shares_released;
      respond(Errc::ok, qid, 0);
      break;
    }
    default:
      respond(Errc::protocol_error, 0, 0);
      break;
  }
  done.set(true);
}

bool Manager::grant_qos(MboxSlot& slot) const {
  // Demote toward lower priority until an allowed class admits the client
  // (urgent = 0 down to low = 3); a client never gets promoted above what
  // it asked for.
  int cls = slot.qos_class & 0x3;
  while (cls <= 3 && cfg_.qos_policy.classes[cls].allowed == 0) ++cls;
  if (cls > 3) return false;
  const QosPolicyEntry& pol = cfg_.qos_policy.classes[cls];
  slot.qos_granted_class = static_cast<std::uint8_t>(cls);
  // Budget semantics: a zero request asks for the class default (the cap);
  // a zero cap means the class is unpaced unless the client self-limits.
  auto clamp = [](std::uint32_t requested, std::uint32_t cap) -> std::uint32_t {
    if (cap == 0) return requested;
    if (requested == 0) return cap;
    return std::min(requested, cap);
  };
  slot.qos_granted_iops = clamp(slot.qos_iops, pol.max_iops);
  slot.qos_granted_bytes_per_s = clamp(slot.qos_bytes_per_s, pol.max_bytes_per_s);
  return true;
}

void Manager::release_shares(std::uint16_t qid) {
  if (qid >= qid_shares_.size()) return;
  stats_.shares_released += qid_shares_[qid].size();
  qid_shares_[qid].clear();
  qid_sq_size_[qid] = 0;
}

// --- fault recovery -------------------------------------------------------------------

// Orphaned-queue-pair reaper (docs/faults.md): a crashed client leaves its
// queue pair allocated forever — it never sends delete_qp. Clients post a
// liveness heartbeat into their mailbox slot; when a pair's owner has been
// silent longer than the timeout (measured from its last beat, or from the
// pair's creation as a grace period before the first beat), the manager
// deletes the pair with the same admin commands a voluntary detach uses.
sim::Task Manager::reaper_task(std::shared_ptr<bool> stop) {
  sim::Engine& eng = engine();
  for (;;) {
    co_await sim::delay(eng, cfg_.reaper_interval_ns);
    if (*stop) co_return;
    // Post-takeover grace: survivors are still re-resolving the new mailbox
    // location; judging their silence now would mis-reap live clients.
    if (takeover_time_ != 0 && eng.now() < takeover_time_ + cfg_.takeover_grace_ns) continue;
    for (std::uint16_t qid = 1; qid < qid_used_.size(); ++qid) {
      if (!qid_used_[qid]) continue;
      const std::uint32_t owner = qid_owner_[qid];
      MboxSlot slot;
      if (owner >= header_.mailbox_slots ||
          !metadata_seg_.read(mbox_slot_offset(header_, owner), as_writable_bytes_of(slot))) {
        continue;
      }
      const sim::Time last =
          std::max(static_cast<sim::Time>(slot.heartbeat_ns), qid_created_at_[qid]);
      if (eng.now() - last <= cfg_.client_heartbeat_timeout_ns) continue;
      NVS_LOG(warn, "manager") << "reaping orphaned QP " << qid << ": node " << owner
                               << " silent for " << (eng.now() - last) << " ns";
      auto sq = co_await submit_admin(nvme::make_delete_io_sq(0, qid));
      auto cq = co_await submit_admin(nvme::make_delete_io_cq(0, qid));
      if (*stop) co_return;
      if ((sq && sq->ok()) || (cq && cq->ok())) {
        qid_used_[qid] = false;
        qid_owner_[qid] = 0;
        qid_created_at_[qid] = 0;
        qid_sq_addr_[qid] = 0;
        release_shares(qid);
        clear_owner_entry(qid);
        ++stats_.qps_reaped;
      }
    }
  }
}

// CSTS watchdog (docs/faults.md): detects a fatal controller status (CFS)
// and runs the full reset + re-init sequence. Every client queue pair dies
// with the reset; the bookkeeping is cleared so clients can re-create their
// pairs through the mailbox once their own deadlines notice the loss.
sim::Task Manager::watchdog_task(std::shared_ptr<bool> stop) {
  sim::Engine& eng = engine();
  fabric::Substrate& fab = fabric();
  const pcie::Initiator cpu = fab.cpu(node_);
  auto write_reg32 = [&](std::uint64_t off, std::uint32_t v) {
    Bytes b(4);
    store_pod(b, v);
    return fab.post_write(cpu, bar_.addr() + off, std::move(b)).status();
  };
  auto write_reg64 = [&](std::uint64_t off, std::uint64_t v) {
    Bytes b(8);
    store_pod(b, v);
    return fab.post_write(cpu, bar_.addr() + off, std::move(b)).status();
  };
  for (;;) {
    co_await sim::delay(eng, cfg_.csts_poll_interval_ns);
    if (*stop) co_return;
    auto csts = co_await fab.read(cpu, bar_.addr() + nvme::reg::kCsts, 4);
    if (*stop) co_return;
    if (!csts) continue;  // registers unreachable (link down); retry next tick
    if ((load_pod<std::uint32_t>(*csts) & nvme::kCstsFatal) == 0) continue;

    const sim::Time begin = eng.now();
    NVS_LOG(warn, "manager") << "controller reports fatal status; resetting";
    ++stats_.ctrl_resets;
    // Serialize against in-flight admin commands; their deadlines release
    // the lock even though the dead controller never answers them.
    co_await admin_lock_->acquire();

    if (adopted_ring_) {
      // A promoted standby still rides its predecessor's admin rings. The
      // reset below re-latches AQA/ASQ/ACQ anyway, so this is the moment to
      // switch to fresh local segments and own the rings from here on.
      auto asq_seg = service_.create_segment_hinted(node_, cfg_.private_segment_base + 0,
                                                    cfg_.admin_entries * 64ull, device_id_,
                                                    smartio::AccessHint::sq());
      auto acq_seg = service_.create_segment_hinted(node_, cfg_.private_segment_base + 1,
                                                    cfg_.admin_entries * 16ull, device_id_,
                                                    smartio::AccessHint::cq());
      if (!asq_seg || !acq_seg) {
        NVS_LOG(error, "manager") << "cannot re-home adopted admin rings; retrying on "
                                     "next fatal";
        admin_lock_->release();
        continue;
      }
      auto asq_win = ref_.map_for_device(asq_seg->descriptor());
      auto acq_win = ref_.map_for_device(acq_seg->descriptor());
      auto asq_map = sisci::Map::create(service_.cluster(), node_, asq_seg->descriptor());
      auto acq_map = sisci::Map::create(service_.cluster(), node_, acq_seg->descriptor());
      if (!asq_win || !acq_win || !asq_map || !acq_map) {
        NVS_LOG(error, "manager") << "no fabric windows to re-home adopted admin rings";
        admin_lock_->release();
        continue;
      }
      asq_seg_ = std::move(*asq_seg);
      acq_seg_ = std::move(*acq_seg);
      asq_win_ = std::move(*asq_win);
      acq_win_ = std::move(*acq_win);
      asq_cpu_map_ = std::move(*asq_map);
      acq_cpu_map_ = std::move(*acq_map);
      journal_.asq_node = asq_seg_.node();
      journal_.asq_segment = asq_seg_.id();
      journal_.acq_node = acq_seg_.node();
      journal_.acq_segment = acq_seg_.id();
      journal_.entries = cfg_.admin_entries;
      adopted_ring_ = false;
    }

    // CC.EN=0 clears CFS and tears down every queue, then re-run the
    // enable sequence on zeroed admin queue memory.
    (void)write_reg32(nvme::reg::kCc, 0);
    bool down = false;
    for (int i = 0; i < kRegPollLimit; ++i) {
      auto v = co_await fab.read(cpu, bar_.addr() + nvme::reg::kCsts, 4);
      if (v && (load_pod<std::uint32_t>(*v) & nvme::kCstsReady) == 0) {
        down = true;
        break;
      }
      co_await sim::delay(eng, kRegPollNs);
    }
    (void)asq_seg_.write(0, Bytes(asq_seg_.size(), std::byte{0}));
    (void)acq_seg_.write(0, Bytes(acq_seg_.size(), std::byte{0}));
    const std::uint16_t entries = cfg_.admin_entries;
    const std::uint32_t aqa = static_cast<std::uint32_t>(entries - 1) |
                              (static_cast<std::uint32_t>(entries - 1) << 16);
    (void)write_reg32(nvme::reg::kAqa, aqa);
    (void)write_reg64(nvme::reg::kAsq, asq_win_.device_addr());
    (void)write_reg64(nvme::reg::kAcq, acq_win_.device_addr());
    (void)write_reg32(nvme::reg::kCc,
                      nvme::kCcEnable | (cfg_.enable_wrr ? nvme::kCcAmsWrrBits : 0));
    bool ready = false;
    for (int i = 0; i < kRegPollLimit; ++i) {
      auto v = co_await fab.read(cpu, bar_.addr() + nvme::reg::kCsts, 4);
      if (v && (load_pod<std::uint32_t>(*v) & nvme::kCstsReady) != 0) {
        ready = true;
        break;
      }
      co_await sim::delay(eng, kRegPollNs);
    }
    // The reset wiped the doorbell state; the QP wrapper must restart from
    // index zero as well.
    nvme::QueuePair::Config qc;
    qc.qid = 0;
    qc.sq_size = entries;
    qc.cq_size = entries;
    qc.sq_write_addr = asq_cpu_map_.addr();
    qc.cq_poll_addr = acq_cpu_map_.addr();
    qc.sq_doorbell_addr = bar_.addr() + nvme::sq_doorbell_offset(0);
    qc.cq_doorbell_addr = bar_.addr() + nvme::cq_doorbell_offset(0);
    qc.cpu = cpu;
    admin_qp_ = std::make_unique<nvme::QueuePair>(fab, qc);
    journal_admin_ring();
    admin_lock_->release();

    if (*stop) co_return;
    if (!down || !ready) {
      NVS_LOG(error, "manager") << "controller reset did not complete (down=" << down
                                << " ready=" << ready << "); will retry on next fatal";
      continue;
    }

    // Every I/O queue died with the reset: forget them so clients can
    // re-create their pairs (their delete_qp for a stale qid is refused,
    // which they ignore).
    for (std::uint16_t q = 1; q < qid_used_.size(); ++q) {
      qid_used_[q] = false;
      qid_owner_[q] = 0;
      qid_created_at_[q] = 0;
      qid_sq_addr_[q] = 0;
      release_shares(q);
      clear_owner_entry(q);
    }
    // Re-negotiate the I/O queue count (required before queue creation).
    auto feat = co_await submit_admin(nvme::make_set_num_queues(
        0, cfg_.requested_io_queues, cfg_.requested_io_queues));
    if (*stop) co_return;
    if (!feat || !(*feat).ok()) {
      NVS_LOG(error, "manager") << "set_num_queues after reset failed";
      continue;
    }
    // The reset also wiped the arbitration weights; re-program them before
    // clients re-create their prioritized queues.
    if (cfg_.enable_wrr) {
      (void)co_await submit_admin(nvme::make_set_arbitration(
          0, cfg_.arb_burst_log2, cfg_.wrr_low_weight, cfg_.wrr_medium_weight,
          cfg_.wrr_high_weight));
      if (*stop) co_return;
    }
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
      const std::uint64_t t = tracer.begin_trace(obs::Kind::other, begin);
      tracer.record(t, obs::Track::controller, obs::Phase::recovery, begin, eng.now(), 0);
      tracer.end_trace(t, eng.now());
    }
    NVS_LOG(info, "manager") << "controller recovered in " << (eng.now() - begin) << " ns";
  }
}

// Background integrity scrubber (docs/MODEL.md §7): walks the namespace
// with vendor scrub commands, one range per tick, making the controller
// verify its stored protection tuples against the stored data. Detection
// only — a mismatch is surfaced through counters and a recovery-phase trace
// span; repair is the writer's job (re-write or deallocate the range).
sim::Task Manager::scrub_task(std::shared_ptr<bool> stop) {
  sim::Engine& eng = engine();
  std::uint64_t cursor = 0;
  for (;;) {
    co_await sim::delay(eng, cfg_.scrub_interval_ns);
    if (*stop) co_return;
    const std::uint64_t capacity = header_.capacity_blocks;
    if (capacity == 0 || cfg_.scrub_blocks_per_cmd == 0) continue;
    if (cursor >= capacity) cursor = 0;
    const auto span = static_cast<std::uint16_t>(
        std::min<std::uint64_t>(cfg_.scrub_blocks_per_cmd, capacity - cursor));
    const sim::Time begin = eng.now();
    auto cqe = co_await submit_admin(nvme::make_vendor_scrub(0, 1, cursor, span));
    if (*stop) co_return;
    // Unreachable or resetting controller: leave the cursor so the next
    // tick retries the same range.
    if (!cqe || (!(*cqe).ok() && (*cqe).status() != nvme::kScGuardCheckError)) continue;
    if ((*cqe).dw0 != 0) {
      stats_.scrub_mismatches += (*cqe).dw0;
      NVS_LOG(warn, "manager") << "scrub found " << (*cqe).dw0
                               << " mismatching blocks in [" << cursor << ", "
                               << (cursor + span) << ")";
      obs::Tracer& tracer = obs::Tracer::global();
      if (tracer.enabled()) {
        const std::uint64_t t = tracer.begin_trace(obs::Kind::other, begin);
        tracer.record(t, obs::Track::controller, obs::Phase::recovery, begin, eng.now(), 0);
        tracer.end_trace(t, eng.now());
      }
    }
    cursor += span;
    if (cursor >= capacity) {
      cursor = 0;
      ++stats_.scrub_sweeps;
    }
  }
}

// --- manager high availability (docs/MODEL.md §10) -----------------------------------

void Manager::publish_lease() {
  ManagerLease lease;
  lease.epoch = epoch_;
  lease.expires_at_ns = engine().now() + cfg_.lease_duration_ns;
  lease.manager_node = node_;
  lease.state = static_cast<std::uint32_t>(LeaseState::active);
  (void)metadata_seg_.write(kLeaseOffset, as_bytes_of(lease));
}

// Lease renewal: local-memory writes on a slow clock — nothing here touches
// the I/O hot path. The lease is read back before renewing: a foreign epoch
// means a standby fenced us while we could not renew, and the only correct
// move is to stop serving immediately.
sim::Task Manager::lease_task(std::shared_ptr<bool> stop) {
  sim::Engine& eng = engine();
  const auto renew = std::max<sim::Duration>(cfg_.lease_duration_ns / 4, 1);
  for (;;) {
    co_await sim::delay(eng, renew);
    if (*stop) co_return;
    ManagerLease lease;
    if (metadata_seg_.read(kLeaseOffset, as_writable_bytes_of(lease)) &&
        lease.epoch != epoch_) {
      fence(lease.epoch);
      co_return;
    }
    publish_lease();
    ++stats_.lease_renewals;
  }
}

void Manager::fence(std::uint64_t foreign_epoch) {
  NVS_LOG(warn, "manager") << "node " << node_ << " fenced: epoch " << foreign_epoch
                           << " supersedes " << epoch_ << "; ceasing service";
  ++stats_.fencings;
  serving_ = false;
  halt();
  // No clear_device_metadata: the successor already re-pointed the
  // registration (shutdown()'s ownership guard keeps us off it later too).
}

void Manager::journal_admin_ring() {
  if (!journal_ready_) return;  // early bring-up: metadata segment not yet created
  const auto rs = admin_qp_->ring_state();
  journal_.sq_tail = rs.sq_tail;
  journal_.cq_head = rs.cq_head;
  journal_.next_cid = rs.next_cid;
  journal_.phase = rs.expected_phase ? 1u : 0u;
  (void)metadata_seg_.write(kAdminJournalOffset, as_bytes_of(journal_));
}

void Manager::write_owner_entry(std::uint16_t qid, const QpOwnerEntry& e) {
  if (!journal_ready_ || qid >= kOwnerTableEntries) return;
  (void)metadata_seg_.write(owner_entry_offset(qid), as_bytes_of(e));
}

bool Manager::has_stale_overlap(std::uint32_t client_node, std::uint64_t lo,
                                std::uint64_t hi) const {
  for (std::uint16_t q = 1; q < qid_used_.size(); ++q) {
    if (qid_used_[q] && qid_owner_[q] == client_node && qid_sq_addr_[q] >= lo &&
        qid_sq_addr_[q] < hi) {
      return true;
    }
  }
  return false;
}

sim::Future<bool> Manager::reclaim_stale_await(std::uint32_t client_node, std::uint64_t lo,
                                               std::uint64_t hi) {
  sim::Promise<bool> done(engine());
  reclaim_stale_task(client_node, lo, hi, done);
  return done.future();
}

sim::Task Manager::reclaim_stale_task(std::uint32_t client_node, std::uint64_t lo,
                                      std::uint64_t hi, sim::Promise<bool> done) {
  for (std::uint16_t q = 1; q < qid_used_.size(); ++q) {
    if (!qid_used_[q] || qid_owner_[q] != client_node) continue;
    if (qid_sq_addr_[q] < lo || qid_sq_addr_[q] >= hi) continue;
    NVS_LOG(warn, "manager") << "reclaiming stale QP " << q << " of node " << client_node
                             << " (overlaps a re-served grant request)";
    (void)co_await submit_admin(nvme::make_delete_io_sq(0, q));
    (void)co_await submit_admin(nvme::make_delete_io_cq(0, q));
    qid_used_[q] = false;
    qid_owner_[q] = 0;
    qid_created_at_[q] = 0;
    qid_sq_addr_[q] = 0;
    release_shares(q);
    clear_owner_entry(q);
    ++stats_.qps_deleted;
  }
  done.set(true);
}

sim::Future<Result<std::unique_ptr<Manager>>> Manager::start_standby(smartio::Service& service,
                                                                     smartio::NodeId node,
                                                                     smartio::DeviceId device,
                                                                     Config cfg) {
  sim::Promise<Result<std::unique_ptr<Manager>>> promise(service.cluster().engine());
  auto self = std::unique_ptr<Manager>(new Manager(service, node, device, cfg));
  self->standby_ = true;
  standby_init_task(std::move(self), promise);
  return promise.future();
}

sim::Task Manager::standby_init_task(std::unique_ptr<Manager> self,
                                     sim::Promise<Result<std::unique_ptr<Manager>>> promise) {
  Manager& m = *self;
  sim::Engine& engine = m.engine();
  fabric::Substrate& fabric = m.fabric();
  sisci::Cluster& cluster = m.service_.cluster();
  const pcie::Initiator cpu = fabric.cpu(m.node_);

  if (m.cfg_.lease_duration_ns == 0) {
    promise.set(Status(Errc::invalid_argument,
                       "standby requires lease_duration_ns > 0 (it must publish its own "
                       "lease after takeover)"));
    co_return;
  }

  // Shared claim only: the standby never resets or reconfigures the device
  // while someone else is the manager. Retries ride out the active
  // manager's exclusive-init window.
  for (int attempt = 0;; ++attempt) {
    auto ref = m.service_.acquire(m.device_id_, smartio::AcquireMode::shared);
    if (ref) {
      m.ref_ = std::move(*ref);
      break;
    }
    if (attempt >= kStandbyRetryLimit) {
      promise.set(ref.status());
      co_return;
    }
    co_await sim::delay(engine, kStandbyRetryNs);
  }

  auto bar = m.ref_.map_bar(m.node_, 0);
  if (!bar) {
    promise.set(bar.status());
    co_return;
  }
  m.bar_ = std::move(*bar);

  // Find and map the active manager's metadata segment.
  std::pair<smartio::NodeId, sisci::SegmentId> loc;
  for (int attempt = 0;; ++attempt) {
    auto meta = m.service_.device_metadata(m.device_id_);
    if (meta) {
      loc = *meta;
      break;
    }
    if (attempt >= kStandbyRetryLimit) {
      promise.set(meta.status());
      co_return;
    }
    co_await sim::delay(engine, kStandbyRetryNs);
  }
  auto remote = cluster.connect(loc.first, loc.second);
  if (!remote) {
    promise.set(remote.status());
    co_return;
  }
  auto map = sisci::Map::create(cluster, m.node_, *remote);
  if (!map) {
    promise.set(map.status());
    co_return;
  }
  m.watched_meta_map_ = std::move(*map);
  m.watched_node_ = loc.first;
  m.watched_seg_id_ = loc.second;

  auto raw = co_await fabric.read(cpu, m.watched_meta_map_.addr(), sizeof(MetadataHeader));
  if (!raw) {
    promise.set(raw.status());
    co_return;
  }
  m.header_ = load_pod<MetadataHeader>(*raw);
  if (m.header_.magic != kMetadataMagic) {
    promise.set(Status(Errc::protocol_error, "metadata segment has no valid header"));
    co_return;
  }
  if (m.header_.version != kMetadataVersion) {
    promise.set(Status(Errc::unsupported,
                       "manager speaks metadata v" + std::to_string(m.header_.version) +
                           ", standby requires v" + std::to_string(kMetadataVersion)));
    co_return;
  }
  raw = co_await fabric.read(cpu, m.watched_meta_map_.addr() + kLeaseOffset,
                             sizeof(ManagerLease));
  if (!raw) {
    promise.set(raw.status());
    co_return;
  }
  if (load_pod<ManagerLease>(*raw).epoch == 0) {
    promise.set(Status(Errc::unsupported,
                       "active manager does not publish leases (lease_duration_ns = 0); "
                       "nothing to stand by for"));
    co_return;
  }

  if (fault::enabled()) {
    Manager* rawp = self.get();
    m.crash_token_ = fault::Injector::global().register_crash_handler(
        m.node_, [rawp]() { rawp->crash(); });
  }
  m.standby_watch_task(m.stop_);
  NVS_LOG(info, "manager") << "standby on node " << m.node_ << " watching device "
                           << m.device_id_ << " (manager on node " << loc.first << ")";
  promise.set(std::move(self));
}

// Hot-standby lease watch. All reads are remote (the watched segment lives
// on the active manager's host) and timed through the fabric — a standby
// costs a few reads per poll interval and nothing on any hot path.
sim::Task Manager::standby_watch_task(std::shared_ptr<bool> stop) {
  sim::Engine& eng = engine();
  fabric::Substrate& fab = fabric();
  const pcie::Initiator cpu = fab.cpu(node_);

  for (;;) {
    co_await sim::delay(eng, cfg_.standby_poll_ns);
    if (*stop) co_return;

    // Follow the registration: a completed takeover (possibly by a peer
    // standby) moves the metadata segment.
    auto loc = service_.device_metadata(device_id_);
    if (loc && (loc->first != watched_node_ || loc->second != watched_seg_id_)) {
      auto remote = service_.cluster().connect(loc->first, loc->second);
      if (!remote) continue;
      auto map = sisci::Map::create(service_.cluster(), node_, *remote);
      if (!map) continue;
      watched_meta_map_ = std::move(*map);
      watched_node_ = loc->first;
      watched_seg_id_ = loc->second;
    }

    auto raw =
        co_await fab.read(cpu, watched_meta_map_.addr() + kLeaseOffset, sizeof(ManagerLease));
    if (*stop) co_return;
    if (!raw) continue;  // link down; retry next tick
    const auto lease = load_pod<ManagerLease>(*raw);
    if (lease.epoch == 0) continue;  // registration moved to a non-HA manager
    if (eng.now() < lease.expires_at_ns) continue;

    // Expired. Competing standbys resolve deterministically: wait our
    // stagger slot, re-read, and only claim if nobody else did.
    co_await sim::delay(eng, static_cast<sim::Duration>(node_) * cfg_.claim_stagger_ns);
    if (*stop) co_return;
    raw =
        co_await fab.read(cpu, watched_meta_map_.addr() + kLeaseOffset, sizeof(ManagerLease));
    if (*stop) co_return;
    if (!raw) continue;
    auto cur = load_pod<ManagerLease>(*raw);
    if (cur.epoch != lease.epoch || eng.now() < cur.expires_at_ns) continue;

    ManagerLease claim;
    claim.epoch = cur.epoch + 1;
    // Generous claim expiry: it must outlive the whole takeover sequence,
    // or a peer standby would start a second takeover against the same old
    // state mid-way through ours.
    claim.expires_at_ns = eng.now() + 4 * cfg_.lease_duration_ns;
    claim.manager_node = node_;
    claim.state = static_cast<std::uint32_t>(LeaseState::claiming);
    Bytes buf(sizeof(ManagerLease));
    store_pod(buf, claim);
    if (!fab.post_write(cpu, watched_meta_map_.addr() + kLeaseOffset, std::move(buf))) {
      continue;
    }
    // Let the posted write land, then confirm the claim stuck.
    co_await sim::delay(eng, cfg_.claim_stagger_ns);
    if (*stop) co_return;
    raw =
        co_await fab.read(cpu, watched_meta_map_.addr() + kLeaseOffset, sizeof(ManagerLease));
    if (*stop) co_return;
    if (!raw) continue;
    cur = load_pod<ManagerLease>(*raw);
    if (cur.epoch != claim.epoch || cur.manager_node != node_) continue;  // lost the race

    Status st = co_await takeover_await(claim);
    if (*stop) co_return;
    if (st) co_return;  // promoted: serving tasks run now, the watch ends
    NVS_LOG(error, "manager") << "standby on node " << node_
                              << " takeover failed: " << st.message() << "; resuming watch";
  }
}

sim::Future<Status> Manager::takeover_await(ManagerLease claim) {
  sim::Promise<Status> done(engine());
  takeover_task(claim, done);
  return done.future();
}

// Takeover: continue the old admin rings (AQA/ASQ/ACQ are latched — fresh
// rings would need a controller reset that kills every survivor's I/O
// queues), reconstruct grant state from the old owner table, roll back
// half-done grants, publish a fresh metadata segment on this host, fence
// the old epoch, and re-point the registration. Survivors never release
// their device references; their admin calls retry into the new mailbox.
sim::Task Manager::takeover_task(ManagerLease claim, sim::Promise<Status> done) {
  sim::Engine& eng = engine();
  fabric::Substrate& fab = fabric();
  sisci::Cluster& cluster = service_.cluster();
  const pcie::Initiator cpu = fab.cpu(node_);
  const sim::Time begin = eng.now();
  const std::uint64_t old_base = watched_meta_map_.addr();

  // 1. Scan the old segment: header, admin-ring journal, owner table.
  auto raw = co_await fab.read(cpu, old_base, sizeof(MetadataHeader));
  if (!raw) {
    done.set(raw.status());
    co_return;
  }
  header_ = load_pod<MetadataHeader>(*raw);
  if (header_.magic != kMetadataMagic || header_.version != kMetadataVersion) {
    done.set(Status(Errc::protocol_error, "old metadata segment unreadable"));
    co_return;
  }
  raw = co_await fab.read(cpu, old_base + kAdminJournalOffset, sizeof(AdminRingJournal));
  if (!raw) {
    done.set(raw.status());
    co_return;
  }
  const auto journal = load_pod<AdminRingJournal>(*raw);
  if (journal.entries == 0) {
    done.set(Status(Errc::protocol_error, "old manager never journaled its admin rings"));
    co_return;
  }
  std::vector<QpOwnerEntry> owners(kOwnerTableEntries);
  raw = co_await fab.read(cpu, old_base + kOwnerTableOffset,
                          kOwnerTableEntries * sizeof(QpOwnerEntry));
  if (!raw) {
    done.set(raw.status());
    co_return;
  }
  std::memcpy(owners.data(), raw->data(), owners.size() * sizeof(QpOwnerEntry));

  // 2. Adopt the admin rings: CPU views of the old ASQ/ACQ. Both survive in
  // the dead manager's DRAM (its process died, its host memory did not).
  auto asq_remote = cluster.connect(journal.asq_node, journal.asq_segment);
  auto acq_remote = cluster.connect(journal.acq_node, journal.acq_segment);
  if (!asq_remote || !acq_remote) {
    done.set(Status(Errc::unavailable, "old admin ring segments unreachable"));
    co_return;
  }
  auto asq_map = sisci::Map::create(cluster, node_, *asq_remote);
  auto acq_map = sisci::Map::create(cluster, node_, *acq_remote);
  if (!asq_map || !acq_map) {
    done.set(Status(Errc::resource_exhausted, "no NTB windows for adopted admin rings"));
    co_return;
  }
  adopt_asq_map_ = std::move(*asq_map);
  adopt_acq_map_ = std::move(*acq_map);

  nvme::QueuePair::Config qc;
  qc.qid = 0;
  qc.sq_size = journal.entries;
  qc.cq_size = journal.entries;
  qc.sq_write_addr = adopt_asq_map_.addr();
  qc.cq_poll_addr = adopt_acq_map_.addr();  // Fabric::peek resolves the NTB map
  qc.sq_doorbell_addr = bar_.addr() + nvme::sq_doorbell_offset(0);
  qc.cq_doorbell_addr = bar_.addr() + nvme::cq_doorbell_offset(0);
  qc.cpu = cpu;
  admin_qp_ = std::make_unique<nvme::QueuePair>(fab, qc);
  admin_qp_->restore({journal.sq_tail, journal.cq_head, journal.next_cid, journal.phase != 0});
  admin_lock_ = std::make_unique<sim::Semaphore>(eng, 1);
  adopted_ring_ = true;
  journal_ = journal;  // ring locations survive the epoch change

  // 3. Own scratch memory for admin data transfers (identify, scrub).
  auto data_seg = service_.create_segment_hinted(node_, cfg_.private_segment_base + 2, 4096,
                                                 device_id_, smartio::AccessHint::cq());
  if (!data_seg) {
    done.set(data_seg.status());
    co_return;
  }
  admin_data_seg_ = std::move(*data_seg);
  auto data_win = ref_.map_for_device(admin_data_seg_.descriptor());
  if (!data_win) {
    done.set(data_win.status());
    co_return;
  }
  admin_data_win_ = std::move(*data_win);

  // 4. Probe the adopted ring: one identify through the old ASQ/ACQ proves
  // the journaled cursors line up with the controller's. A completion the
  // dead manager pushed but never consumed drains through the (counted)
  // spurious-CQE path first.
  auto probe = co_await submit_admin(
      nvme::make_identify(0, nvme::IdentifyCns::controller, 0, admin_data_win_.device_addr()));
  if (*stop_) {
    done.set(Status(Errc::aborted, "stopped during takeover"));
    co_return;
  }
  if (!probe || !probe->ok()) {
    done.set(probe ? Status(Errc::io_error, "adopted admin ring probe failed")
                   : probe.status());
    co_return;
  }

  // 5. Reconstruct grant state; roll back write-ahead intents the old
  // manager died inside (their queues may or may not exist — delete both
  // and ignore refusals).
  const std::uint16_t granted = header_.granted_io_queues;
  qid_used_.assign(granted + 1u, false);
  qid_used_[0] = true;
  qid_owner_.assign(granted + 1u, 0);
  qid_created_at_.assign(granted + 1u, 0);
  qid_sq_addr_.assign(granted + 1u, 0);
  // Tenant shares are manager-local and do not survive the takeover;
  // clients re-request them (like they re-heartbeat) — MODEL.md §12.
  qid_shares_.assign(granted + 1u, {});
  qid_sq_size_.assign(granted + 1u, 0);
  for (std::uint16_t q = 1; q <= granted && q < kOwnerTableEntries; ++q) {
    const QpOwnerEntry& e = owners[q];
    if (e.state == static_cast<std::uint32_t>(QpOwnerState::pending)) {
      (void)co_await submit_admin(nvme::make_delete_io_sq(0, q));
      (void)co_await submit_admin(nvme::make_delete_io_cq(0, q));
      ++stats_.intent_rollbacks;
      owners[q] = QpOwnerEntry{};
      NVS_LOG(warn, "manager") << "rolled back half-created QP " << q << " of node "
                               << e.owner_node;
    } else if (e.state == static_cast<std::uint32_t>(QpOwnerState::active)) {
      qid_used_[q] = true;
      qid_owner_[q] = e.owner_node;
      qid_created_at_[q] = eng.now();  // reaper grace anchor: takeover time
      qid_sq_addr_[q] = e.sq_device_addr;
      qid_sq_size_[q] = e.sq_size;
      ++stats_.qps_adopted;
    }
  }
  if (*stop_) {
    done.set(Status(Errc::aborted, "stopped during takeover"));
    co_return;
  }

  // 6. Fresh metadata segment on this host: header and owner table carried
  // over, QoS policy from our own config, empty mailbox slots.
  const std::uint32_t nodes = header_.mailbox_slots;
  auto meta = cluster.create_segment_placed(node_, node_, /*cpu_access=*/true,
                                            /*device_access=*/false, cfg_.metadata_segment_id,
                                            metadata_segment_size(nodes));
  if (!meta) {
    done.set(meta.status());
    co_return;
  }
  metadata_seg_ = std::move(*meta);
  header_.manager_node = node_;
  (void)metadata_seg_.write(0, as_bytes_of(header_));
  (void)metadata_seg_.write(kQosPolicyOffset, as_bytes_of(cfg_.qos_policy));
  for (std::uint16_t q = 1; q < kOwnerTableEntries; ++q) {
    if (owners[q].state != static_cast<std::uint32_t>(QpOwnerState::active)) continue;
    QpOwnerEntry e = owners[q];
    e.created_at_ns = eng.now();
    (void)metadata_seg_.write(owner_entry_offset(q), as_bytes_of(e));
  }
  journal_ready_ = true;
  journal_admin_ring();
  // Carry the survivors' last heartbeats over so the reaper judges them
  // against real history instead of zero.
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const std::uint64_t beat_off = mbox_slot_offset(header_, n) + offsetof(MboxSlot, heartbeat_ns);
    auto beat = co_await fab.read(cpu, old_base + beat_off, sizeof(std::uint64_t));
    if (!beat) continue;
    (void)metadata_seg_.write(beat_off, *beat);
  }
  if (*stop_) {
    done.set(Status(Errc::aborted, "stopped during takeover"));
    co_return;
  }

  epoch_ = claim.epoch;
  publish_lease();  // into the NEW segment

  // 7. Fence the old epoch in the OLD segment: a predecessor still breathing
  // reads a foreign epoch at its next renewal and stops serving; peer
  // standbys still watching the old location see the same.
  ManagerLease fence_lease = claim;
  fence_lease.state = static_cast<std::uint32_t>(LeaseState::active);
  fence_lease.expires_at_ns = eng.now() + cfg_.lease_duration_ns;
  Bytes fence_buf(sizeof(ManagerLease));
  store_pod(fence_buf, fence_lease);
  (void)fab.post_write(cpu, old_base + kLeaseOffset, std::move(fence_buf));

  // 8. Re-point the registration — CAS against the owner we watched, so two
  // standbys racing the same claim cannot both win it.
  if (Status st = service_.reassign_device_metadata(device_id_, watched_node_,
                                                    metadata_seg_.node(),
                                                    cfg_.metadata_segment_id);
      !st) {
    done.set(st);
    co_return;
  }
  watched_node_ = node_;
  watched_seg_id_ = cfg_.metadata_segment_id;

  // 9. Serve: same task set as a fresh manager, plus the takeover grace that
  // keeps the reaper honest while survivors re-resolve.
  standby_ = false;
  serving_ = true;
  takeover_time_ = eng.now();
  serve_mailbox();
  lease_task(stop_);
  if (cfg_.client_heartbeat_timeout_ns > 0) reaper_task(stop_);
  if (cfg_.csts_poll_interval_ns > 0) watchdog_task(stop_);
  if (cfg_.scrub_interval_ns > 0) scrub_task(stop_);
  ++stats_.takeovers;
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    const std::uint64_t t = tracer.begin_trace(obs::Kind::other, begin);
    tracer.record(t, obs::Track::controller, obs::Phase::recovery, begin, eng.now(), 0);
    tracer.end_trace(t, eng.now());
  }
  NVS_LOG(info, "manager") << "node " << node_ << " took over device " << device_id_
                           << " at epoch " << epoch_ << " in " << (eng.now() - begin)
                           << " ns";
  done.set(Status::ok());
}

}  // namespace nvmeshare::driver
