#include "driver/manager.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>

#include "common/log.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace nvmeshare::driver {

using nvme::CompletionEntry;
using nvme::SubmissionEntry;

namespace {
// Standby bring-up: how long to keep retrying the shared device acquisition
// and the metadata lookup while the active manager is still initializing.
constexpr sim::Duration kStandbyRetryNs = 50'000;
constexpr int kStandbyRetryLimit = 200;

/// One recovery-phase span on the controller track.
void trace_recovery(sim::Time begin, sim::Time end) {
  obs::Tracer::global().record_recovery(obs::Track::controller, begin, end);
}

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
    : service_(service),
      node_(node),
      device_id_(device),
      cfg_(cfg),
      admin_(service.cluster().fabric(), cfg.costs) {
  admin_.on_advance([this] { journal_admin_ring(); });
}

Manager::~Manager() {
  shutdown();
  if (crash_faults_ != nullptr) crash_faults_->unregister_crash_handler(crash_token_);
}

sim::Engine& Manager::engine() { return service_.cluster().engine(); }
fabric::Substrate& Manager::fabric() { return service_.cluster().fabric(); }

std::uint16_t Manager::active_queue_pairs() const {
  if (grants_.empty()) return 0;
  // The admin pair plus every active I/O grant.
  return static_cast<std::uint16_t>(
      1 + std::count_if(grants_.begin() + 1, grants_.end(),
                        [](const Grant& g) { return g.active(); }));
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
  return sim::spawn(service.cluster().engine(),
                    start_steps(std::unique_ptr<Manager>(new Manager(service, node, device, cfg)),
                                &Manager::bring_up));
}

sim::Future<Result<std::unique_ptr<Manager>>> Manager::start_standby(smartio::Service& service,
                                                                     smartio::NodeId node,
                                                                     smartio::DeviceId device,
                                                                     Config cfg) {
  auto self = std::unique_ptr<Manager>(new Manager(service, node, device, cfg));
  self->standby_ = true;
  return sim::spawn(service.cluster().engine(), start_steps(std::move(self), &Manager::stand_by));
}

sim::Co<Result<std::unique_ptr<Manager>>> Manager::start_steps(
    std::unique_ptr<Manager> self, sim::Co<Status> (Manager::*steps)()) {
  if (Status st = co_await (self.get()->*steps)(); !st) co_return st;
  co_return std::move(self);
}

sim::Co<Status> Manager::bring_up() {
  // 1. Lock the device: only one process may reset/initialize it.
  auto ref = service_.acquire(device_id_, smartio::AcquireMode::exclusive);
  if (!ref) co_return ref.status();
  ref_ = std::move(*ref);

  // 2. Map device registers (BAR window, possibly across the NTB).
  auto bar = ref_.map_bar(node_, 0);
  if (!bar) co_return bar.status();
  bar_ = std::move(*bar);

  // 3. Admin rings and the identify buffer; then reset the controller,
  //    program the admin queue registers and enable.
  if (Status st = make_admin_rings(); !st) co_return st;
  if (Status st = make_admin_buffer(); !st) co_return st;
  const EnableResult up =
      co_await admin_.enable(cfg_.enable_wrr ? nvme::kCcAmsWrrBits : 0, /*strict=*/true);
  if (!up.status) co_return up.status;

  // 4. Identify controller and namespace, negotiate the I/O queue count.
  auto info = co_await admin_.identify(
      {0, admin_data_win_.device_addr(), admin_data_seg_.node(), admin_data_seg_.phys_addr(),
       admin_data_seg_.size()},
      cfg_.requested_io_queues);
  if (!info) co_return info.status();
  const std::uint16_t granted = info->granted_io_queues;

  // 4b. WRR mode: program the arbitration burst and class weights the
  // controller will spend per turn (Set Features / Arbitration).
  if (cfg_.enable_wrr) {
    auto arb = co_await set_arbitration();
    if (!arb) co_return arb.status();
  }

  // 5. Done with privileged init: let clients share the device.
  if (Status st = ref_.downgrade_to_shared(); !st) co_return st;

  // 6. Publish the metadata segment.
  const auto nodes = static_cast<std::uint32_t>(fabric().host_count());
  // Every client CPU reads this segment; the substrate places it where that
  // works (NTB: manager-local DRAM mapped via LUTs, CXL: the shared pool).
  auto meta = service_.cluster().create_segment_placed(node_, node_, /*cpu_access=*/true,
                                                       /*device_access=*/false,
                                                       cfg_.metadata_segment_id,
                                                       metadata_segment_size(nodes));
  if (!meta) co_return meta.status();
  metadata_seg_ = std::move(*meta);

  header_.manager_node = node_;
  header_.device_id = device_id_;
  header_.capacity_blocks = info->capacity_blocks;
  header_.block_size = info->block_size;
  header_.max_transfer_bytes = info->max_transfer_bytes;
  header_.max_queue_pairs = static_cast<std::uint16_t>(granted + 1);
  header_.granted_io_queues = granted;
  header_.mailbox_slots = nodes;
  header_.mailbox_offset = 4096;
  (void)metadata_seg_.write(0, as_bytes_of(header_));
  // v4: publish the QoS policy table so clients can see what a grant
  // request will be judged against.
  (void)metadata_seg_.write(kQosPolicyOffset, as_bytes_of(cfg_.qos_policy));

  grants_.assign(granted + 1u, {});

  // v5: persist the admin ring cursors (make_admin_rings() recorded where
  // the rings live) so a standby can continue them without a controller
  // reset (AQA/ASQ/ACQ are latched at enable — rebuilding them would kill
  // every client's I/O queues).
  journal_ready_ = true;
  journal_admin_ring();
  if (cfg_.lease_duration_ns > 0) {
    epoch_ = 1;
    publish_lease();
  }

  if (Status st = service_.set_device_metadata(device_id_, metadata_seg_.node(),
                                               cfg_.metadata_segment_id);
      !st) {
    co_return st;
  }

  start_serving();
  register_crash_handler();
  NVS_LOG(info, "manager") << "serving device " << device_id_ << " from node " << node_
                           << " with " << granted << " IO queue pairs";
  co_return Status::ok();
}

Status Manager::make_admin_rings() {
  // Placed by access-pattern hint (Figure 8): the SQ goes device-side so
  // command fetches never cross the NTB; the CQ stays local so polling never
  // stalls.
  auto asq_seg = service_.create_segment_hinted(node_, cfg_.private_segment_base + 0,
                                                kAdminEntries * 64ull, device_id_,
                                                smartio::AccessHint::sq());
  auto acq_seg = service_.create_segment_hinted(node_, cfg_.private_segment_base + 1,
                                                kAdminEntries * 16ull, device_id_,
                                                smartio::AccessHint::cq());
  if (!asq_seg || !acq_seg) return Status(Errc::resource_exhausted, "no memory for admin rings");
  // Device-visible addresses, and CPU views: the SQ may live device-side;
  // the CQ is direct for local DRAM, an HDM address when pooled.
  auto asq_win = ref_.map_for_device(asq_seg->descriptor());
  auto acq_win = ref_.map_for_device(acq_seg->descriptor());
  auto asq_map = sisci::Map::create(service_.cluster(), node_, asq_seg->descriptor());
  auto acq_map = sisci::Map::create(service_.cluster(), node_, acq_seg->descriptor());
  if (!asq_win || !acq_win || !asq_map || !acq_map) {
    return Status(Errc::resource_exhausted, "no fabric windows for admin rings");
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
  journal_.entries = kAdminEntries;
  auto ring = [](const sisci::Segment& seg, const smartio::DmaWindow& win,
                 const sisci::Map& cpu_view) {
    return AdminRing{cpu_view.addr(), win.device_addr(), seg.node(), seg.phys_addr(),
                     seg.size()};
  };
  admin_.place({fabric().cpu(node_), bar_.addr(), kAdminEntries,
                ring(asq_seg_, asq_win_, asq_cpu_map_), ring(acq_seg_, acq_win_, acq_cpu_map_)});
  return Status::ok();
}

Status Manager::make_admin_buffer() {
  auto seg = service_.create_segment_hinted(node_, cfg_.private_segment_base + 2, 4096,
                                            device_id_, smartio::AccessHint::cq());
  if (!seg) return seg.status();
  admin_data_seg_ = std::move(*seg);
  auto win = ref_.map_for_device(admin_data_seg_.descriptor());
  if (!win) return win.status();
  admin_data_win_ = std::move(*win);
  return Status::ok();
}

void Manager::start_serving() {
  serving_ = true;
  serve_mailbox();
  if (cfg_.lease_duration_ns > 0) lease_task(stop_);
  if (cfg_.client_heartbeat_timeout_ns > 0) reaper_task(stop_);
  if (cfg_.csts_poll_interval_ns > 0) watchdog_task(stop_);
  if (cfg_.scrub_interval_ns > 0) scrub_task(stop_);
}

void Manager::register_crash_handler() {
  crash_faults_ = fabric().faults();
  if (crash_faults_ == nullptr) return;
  crash_token_ = crash_faults_->register_crash_handler(node_, [this]() { crash(); });
}

sim::Future<Result<CompletionEntry>> Manager::submit_admin(SubmissionEntry entry) {
  return sim::spawn(engine(), admin_.submit(entry));
}

sim::Future<Result<CompletionEntry>> Manager::set_arbitration() {
  return sim::spawn(engine(), admin_.submit(nvme::make_set_arbitration(
                                  0, kArbBurstLog2, cfg_.wrr_low_weight, cfg_.wrr_medium_weight,
                                  cfg_.wrr_high_weight)));
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
      co_await sim::spawn(eng, handle_slot(i, slot, stop));
      if (*stop) co_return;
    }
    // Cheap insurance: the next scan after a handled request is real even
    // if the handler left its slot unchanged.
    if (worked) timer.notify();
    co_await sim::poll_tick(eng, timer, kMailboxPollNs);
    if (*stop) co_return;
  }
}

// The server loop awaits each handler it spawns, so one request fully
// completes before the next slot is scanned.
sim::Co<bool> Manager::handle_slot(std::uint32_t slot_index, MboxSlot slot,
                                   std::shared_ptr<bool> stop) {
  ++stats_.mailbox_requests;
  co_await sim::delay(engine(), kMailboxServiceNs);
  if (*stop) co_return false;

  Reply reply;
  // A slot speaks only for its own node: ownership checks, stale-grant
  // reclamation and the reaper's heartbeat all trust client_node.
  if (slot.client_node != slot_index) {
    reply.errc = Errc::permission_denied;
  } else {
    switch (static_cast<MboxOp>(slot.op)) {
      case MboxOp::ping:
        break;
      case MboxOp::create_qp:
        slot.qp_count = 1;
        [[fallthrough]];
      case MboxOp::create_qp_batch:
        reply = co_await create_pairs(slot, stop.get());
        break;
      case MboxOp::delete_qp:
        slot.qp_count = 1;
        slot.qids[0] = slot.qid_in;
        [[fallthrough]];
      case MboxOp::delete_qp_batch:
        reply = co_await delete_pairs(slot, stop.get());
        break;
      case MboxOp::create_share:
        reply = create_share(slot);
        break;
      case MboxOp::delete_share:
        reply = delete_share(slot);
        break;
      default:
        reply.errc = Errc::protocol_error;
        break;
    }
  }
  if (reply.stopped) co_return false;
  slot.status = static_cast<std::uint32_t>(reply.errc);
  slot.qid_out = reply.qid;
  slot.nvme_status = reply.nvme_status;
  slot.epoch = static_cast<std::uint32_t>(epoch_);  // v5: fenceable response
  slot.state = static_cast<std::uint32_t>(MboxState::done);
  (void)metadata_seg_.write(mbox_slot_offset(header_, slot_index), as_bytes_of(slot));
  if (reply.errc != Errc::ok) ++stats_.request_errors;
  co_return true;
}

bool Manager::valid_create(const MboxSlot& slot) {
  const std::uint16_t count = slot.qp_count;
  if (count == 0 || count > kMaxBatchQps || slot.sq_size < 2 || slot.cq_size < 2 ||
      slot.sq_device_addr == 0 || slot.cq_device_addr == 0) {
    return false;
  }
  const std::uint64_t sq_ring = slot.sq_size * 64ull;
  const std::uint64_t cq_ring = slot.cq_size * 16ull;
  if (count > 1 && (slot.sq_stride < sq_ring || slot.cq_stride < cq_ring)) return false;
  // The last ring must end at or below 2^64 (16 rings at 32-bit strides
  // span less than 2^36, so the span itself cannot overflow).
  auto fits = [count](std::uint64_t base, std::uint64_t stride, std::uint64_t ring) {
    const std::uint64_t span = (count - 1u) * stride + ring;
    return base - 1 <= std::numeric_limits<std::uint64_t>::max() - span;
  };
  return fits(slot.sq_device_addr, slot.sq_stride, sq_ring) &&
         fits(slot.cq_device_addr, slot.cq_stride, cq_ring);
}

// Grant one pair per channel, SQ/CQ bases advancing by the client's strides.
// All-or-nothing: a mid-batch failure deletes what this batch already
// created before responding.
sim::Co<Manager::Reply> Manager::create_pairs(MboxSlot& slot, const bool* stop) {
  if (!valid_create(slot)) co_return Reply{Errc::invalid_argument};
  // One QoS grant covers the whole batch: every channel shares the class.
  if (!grant_qos(slot)) co_return Reply{Errc::permission_denied};
  const std::uint16_t count = slot.qp_count;
  // Idempotent re-serve: a previous manager may have created this client's
  // queues and died before responding; the retry arrives with the same
  // (deterministic) queue addresses, so reclaim the overlap before granting
  // afresh.
  const std::uint64_t batch_hi =
      slot.sq_device_addr + static_cast<std::uint64_t>(count - 1) * slot.sq_stride + 1;
  if (has_stale_overlap(slot.client_node, slot.sq_device_addr, batch_hi)) {
    co_await sim::spawn(engine(),
                        reclaim_stale(slot.client_node, slot.sq_device_addr, batch_hi));
    if (*stop) co_return Reply{.stopped = true};
  }
  Reply reply;
  std::uint16_t created = 0;
  while (created < count) {
    const std::uint16_t qid = free_qid();
    if (qid == 0) {
      reply.errc = Errc::resource_exhausted;
      break;
    }
    const std::uint64_t sq_base =
        slot.sq_device_addr + static_cast<std::uint64_t>(created) * slot.sq_stride;
    const std::uint64_t cq_base =
        slot.cq_device_addr + static_cast<std::uint64_t>(created) * slot.cq_stride;
    // Write-ahead intent (v5): if we die between here and the active flip,
    // a takeover rolls the half-made grant back.
    grant(qid, make_owner_entry(slot, sq_base, cq_base, QpOwnerState::pending, engine().now()));
    const CreateResult made = co_await admin_.create_io_pair(
        {qid, sq_base, slot.sq_size, cq_base, slot.cq_size, std::nullopt, sq_priority(slot)},
        stop);
    if (made.stopped) co_return Reply{.stopped = true};
    if (!made.status) {
      forget(qid);
      reply = {made.status.code(), 0, made.nvme_status};
      break;
    }
    grant(qid, make_owner_entry(slot, sq_base, cq_base, QpOwnerState::active, engine().now()));
    ++stats_.qps_created;
    slot.qids[created++] = qid;
  }
  if (reply.errc != Errc::ok) {
    for (std::uint16_t c = 0; c < created; ++c) {
      (void)co_await admin_.delete_io_pair(slot.qids[c]);
      forget(slot.qids[c]);
      ++stats_.qps_deleted;
      slot.qids[c] = 0;
    }
    if (*stop) co_return Reply{.stopped = true};
    co_return reply;
  }
  NVS_LOG(info, "manager") << "created " << count << " QPs for node " << slot.client_node;
  reply.qid = slot.qids[0];
  co_return reply;
}

// Revoke the listed pairs. Best effort: every owned qid in the list is
// attempted so one stale entry cannot strand the rest; the first failure is
// reported.
sim::Co<Manager::Reply> Manager::delete_pairs(MboxSlot& slot, const bool* stop) {
  const std::uint16_t count = slot.qp_count;
  if (count == 0 || count > kMaxBatchQps) co_return Reply{Errc::invalid_argument};
  Reply reply;
  for (std::uint16_t c = 0; c < count; ++c) {
    const std::uint16_t qid = slot.qids[c];
    Errc errc = Errc::ok;
    if (!owns(slot.client_node, qid)) {
      errc = Errc::permission_denied;
    } else {
      const DeleteResult gone = co_await admin_.delete_io_pair(qid);
      if (*stop) co_return Reply{.stopped = true};
      if (gone.sq_ok && gone.cq_ok) {
        forget(qid);
        ++stats_.qps_deleted;
      } else {
        errc = Errc::io_error;
      }
    }
    if (reply.errc == Errc::ok) reply.errc = errc;
  }
  co_return reply;
}

// v6: subdivide an owned pair's CID space for a tenant. No admin command is
// involved — the controller never sees shares; they are pure manager
// bookkeeping the owning client enforces at push time.
Manager::Reply Manager::create_share(MboxSlot& slot) {
  const std::uint16_t qid = slot.qid_in;
  if (!owns(slot.client_node, qid)) return {Errc::permission_denied};
  const std::uint16_t sq_size = grants_[qid].entry.sq_size;
  if (slot.share_cid_count == 0 || slot.share_cid_floor >= sq_size) {
    return {Errc::invalid_argument};
  }
  // Per-share QoS rides the same policy table as whole-pair grants.
  if (!grant_qos(slot)) return {Errc::permission_denied};
  auto& shares = grants_[qid].shares;
  // Idempotent per tenant: a re-request (say, after the client lost a
  // response) releases the tenant's old range before placing afresh.
  for (auto it = shares.begin(); it != shares.end(); ++it) {
    if (it->tenant == slot.share_tenant) {
      shares.erase(it);
      ++stats_.shares_released;
      break;
    }
  }
  // First-fit gap scan above the owner's reserved floor. `shares` is sorted
  // by lo, so walking it advances the cursor past every taken range.
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
  if (!placed && lo + count > sq_size) return {Errc::resource_exhausted};
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
  NVS_LOG(info, "manager") << "granted tenant " << slot.share_tenant << " CIDs [" << entry.lo
                           << ", " << entry.hi << ") of QP " << qid;
  return {Errc::ok, qid};
}

Manager::Reply Manager::delete_share(MboxSlot& slot) {
  const std::uint16_t qid = slot.qid_in;
  if (!owns(slot.client_node, qid)) return {Errc::permission_denied};
  auto& shares = grants_[qid].shares;
  for (auto it = shares.begin(); it != shares.end(); ++it) {
    if (it->tenant == slot.share_tenant) {
      slot.share_cid_lo = it->lo;
      slot.share_cid_hi = it->hi;
      shares.erase(it);
      ++stats_.shares_released;
      return {Errc::ok, qid};
    }
  }
  return {Errc::not_found};
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

void Manager::grant(std::uint16_t qid, const QpOwnerEntry& e) {
  grants_[qid].entry = e;
  write_owner_entry(qid, e);
}

void Manager::forget(std::uint16_t qid) {
  Grant& g = grants_[qid];
  stats_.shares_released += g.shares.size();
  g.shares.clear();
  g.entry = QpOwnerEntry{};
  write_owner_entry(qid, g.entry);
}

std::uint16_t Manager::free_qid() const {
  for (std::uint16_t q = 1; q < grants_.size(); ++q) {
    if (!grants_[q].active()) return q;
  }
  return 0;
}

bool Manager::owns(std::uint32_t node, std::uint16_t qid) const {
  return qid != 0 && qid < grants_.size() && grants_[qid].active() &&
         grants_[qid].entry.owner_node == node;
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
    if (takeover_time_ != 0 && eng.now() < takeover_time_ + kTakeoverGraceNs) continue;
    for (std::uint16_t qid = 1; qid < grants_.size(); ++qid) {
      if (!grants_[qid].active()) continue;
      const std::uint32_t owner = grants_[qid].entry.owner_node;
      MboxSlot slot;
      if (owner >= header_.mailbox_slots ||
          !metadata_seg_.read(mbox_slot_offset(header_, owner), as_writable_bytes_of(slot))) {
        continue;
      }
      const sim::Time last = std::max(static_cast<sim::Time>(slot.heartbeat_ns),
                                      static_cast<sim::Time>(grants_[qid].entry.created_at_ns));
      if (eng.now() - last <= cfg_.client_heartbeat_timeout_ns) continue;
      NVS_LOG(warn, "manager") << "reaping orphaned QP " << qid << ": node " << owner
                               << " silent for " << (eng.now() - last) << " ns";
      const DeleteResult gone = co_await admin_.delete_io_pair(qid);
      if (*stop) co_return;
      if (gone.sq_ok || gone.cq_ok) {
        forget(qid);
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
  const fabric::Initiator cpu = fab.cpu(node_);
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
    co_await admin_.lock().acquire();

    if (adopted_ring_) {
      // A promoted standby still rides its predecessor's admin rings. The
      // reset below re-latches AQA/ASQ/ACQ anyway, so this is the moment to
      // switch to fresh local segments and own the rings from here on.
      if (Status st = make_admin_rings(); !st) {
        NVS_LOG(error, "manager") << "cannot re-home adopted admin rings (" << st.message()
                                  << "); retrying on next fatal";
        admin_.lock().release();
        continue;
      }
      adopted_ring_ = false;
    }

    // CC.EN=0 clears CFS and tears down every queue, then the enable
    // sequence re-runs on zeroed admin queue memory.
    const EnableResult up =
        co_await admin_.enable(cfg_.enable_wrr ? nvme::kCcAmsWrrBits : 0, /*strict=*/false);
    admin_.lock().release();

    if (*stop) co_return;
    if (!up.status) {
      NVS_LOG(error, "manager") << "controller reset did not complete (down=" << up.down
                                << " ready=" << up.ready << "); will retry on next fatal";
      continue;
    }

    // Every I/O queue died with the reset: forget them so clients can
    // re-create their pairs (their delete_qp for a stale qid is refused,
    // which they ignore).
    for (std::uint16_t q = 1; q < grants_.size(); ++q) forget(q);
    // Re-negotiate the I/O queue count (required before queue creation).
    auto granted = co_await admin_.negotiate_queues(cfg_.requested_io_queues);
    if (*stop) co_return;
    if (!granted) {
      NVS_LOG(error, "manager") << "set_num_queues after reset failed";
      continue;
    }
    // The reset also wiped the arbitration weights; re-program them before
    // clients re-create their prioritized queues.
    if (cfg_.enable_wrr) {
      (void)co_await set_arbitration();
      if (*stop) co_return;
    }
    trace_recovery(begin, eng.now());
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
    if (capacity == 0) continue;
    if (cursor >= capacity) cursor = 0;
    const auto span = static_cast<std::uint16_t>(
        std::min<std::uint64_t>(kScrubBlocksPerCmd, capacity - cursor));
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
      trace_recovery(begin, eng.now());
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
  const auto rs = admin_.ring_state();
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
  for (std::uint16_t q = 1; q < grants_.size(); ++q) {
    const QpOwnerEntry& e = grants_[q].entry;
    if (grants_[q].active() && e.owner_node == client_node && e.sq_device_addr >= lo &&
        e.sq_device_addr < hi) {
      return true;
    }
  }
  return false;
}

sim::Co<bool> Manager::reclaim_stale(std::uint32_t client_node, std::uint64_t lo,
                                     std::uint64_t hi) {
  for (std::uint16_t q = 1; q < grants_.size(); ++q) {
    const QpOwnerEntry& e = grants_[q].entry;
    if (!grants_[q].active() || e.owner_node != client_node) continue;
    if (e.sq_device_addr < lo || e.sq_device_addr >= hi) continue;
    NVS_LOG(warn, "manager") << "reclaiming stale QP " << q << " of node " << client_node
                             << " (overlaps a re-served grant request)";
    (void)co_await admin_.delete_io_pair(q);
    forget(q);
    ++stats_.qps_deleted;
  }
  co_return true;
}

sim::Co<Status> Manager::stand_by() {
  sim::Engine& eng = engine();
  const fabric::Initiator cpu = fabric().cpu(node_);
  if (cfg_.lease_duration_ns == 0) {
    co_return Status(Errc::invalid_argument,
                     "standby requires lease_duration_ns > 0 (it must publish its own "
                     "lease after takeover)");
  }

  // Shared claim only: the standby never resets or reconfigures the device
  // while someone else is the manager. Retries ride out the active
  // manager's exclusive-init window.
  for (int attempt = 0;; ++attempt) {
    auto ref = service_.acquire(device_id_, smartio::AcquireMode::shared);
    if (ref) {
      ref_ = std::move(*ref);
      break;
    }
    if (attempt >= kStandbyRetryLimit) co_return ref.status();
    co_await sim::delay(eng, kStandbyRetryNs);
  }

  auto bar = ref_.map_bar(node_, 0);
  if (!bar) co_return bar.status();
  bar_ = std::move(*bar);

  // Find and map the active manager's metadata segment.
  for (int attempt = 0;; ++attempt) {
    auto loc = service_.device_metadata(device_id_);
    if (loc) {
      if (Status st = watch(*loc); !st) co_return st;
      break;
    }
    if (attempt >= kStandbyRetryLimit) co_return loc.status();
    co_await sim::delay(eng, kStandbyRetryNs);
  }

  auto raw = co_await fabric().read(cpu, watched_meta_map_.addr(), sizeof(MetadataHeader));
  if (!raw) co_return raw.status();
  header_ = load_pod<MetadataHeader>(*raw);
  if (header_.magic != kMetadataMagic) {
    co_return Status(Errc::protocol_error, "metadata segment has no valid header");
  }
  if (header_.version != kMetadataVersion) {
    co_return Status(Errc::unsupported,
                     "manager speaks metadata v" + std::to_string(header_.version) +
                         ", standby requires v" + std::to_string(kMetadataVersion));
  }
  raw = co_await fabric().read(cpu, watched_meta_map_.addr() + kLeaseOffset,
                               sizeof(ManagerLease));
  if (!raw) co_return raw.status();
  if (load_pod<ManagerLease>(*raw).epoch == 0) {
    co_return Status(Errc::unsupported,
                     "active manager does not publish leases (lease_duration_ns = 0); "
                     "nothing to stand by for");
  }

  register_crash_handler();
  standby_watch_task(stop_);
  NVS_LOG(info, "manager") << "standby on node " << node_ << " watching device " << device_id_
                           << " (manager on node " << watched_node_ << ")";
  co_return Status::ok();
}

Status Manager::watch(std::pair<smartio::NodeId, sisci::SegmentId> loc) {
  auto remote = service_.cluster().connect(loc.first, loc.second);
  if (!remote) return remote.status();
  auto map = sisci::Map::create(service_.cluster(), node_, *remote);
  if (!map) return map.status();
  watched_meta_map_ = std::move(*map);
  watched_node_ = loc.first;
  watched_seg_id_ = loc.second;
  return Status::ok();
}

// Hot-standby lease watch. All reads are remote (the watched segment lives
// on the active manager's host) and timed through the fabric — a standby
// costs a few reads per poll interval and nothing on any hot path.
sim::Task Manager::standby_watch_task(std::shared_ptr<bool> stop) {
  sim::Engine& eng = engine();
  fabric::Substrate& fab = fabric();
  const fabric::Initiator cpu = fab.cpu(node_);

  for (;;) {
    co_await sim::delay(eng, kStandbyPollNs);
    if (*stop) co_return;

    // Follow the registration: a completed takeover (possibly by a peer
    // standby) moves the metadata segment.
    auto loc = service_.device_metadata(device_id_);
    if (loc && (loc->first != watched_node_ || loc->second != watched_seg_id_) &&
        !watch(*loc)) {
      continue;
    }

    auto raw =
        co_await fab.read(cpu, watched_meta_map_.addr() + kLeaseOffset, sizeof(ManagerLease));
    if (*stop) co_return;
    if (!raw) continue;  // link down; retry next tick
    const auto lease = load_pod<ManagerLease>(*raw);
    if (lease.epoch == 0) continue;  // registration moved to a non-HA manager
    if (!lease_lapsed(lease)) continue;

    // Expired. Competing standbys resolve deterministically: wait our
    // stagger slot, re-read, and only claim if nobody else did.
    co_await sim::delay(eng, static_cast<sim::Duration>(node_) * kClaimStaggerNs);
    if (*stop) co_return;
    raw =
        co_await fab.read(cpu, watched_meta_map_.addr() + kLeaseOffset, sizeof(ManagerLease));
    if (*stop) co_return;
    if (!raw) continue;
    auto cur = load_pod<ManagerLease>(*raw);
    if (cur.epoch != lease.epoch || !lease_lapsed(cur)) continue;

    ManagerLease claim;
    claim.epoch = cur.epoch + 1;
    // Generous claim expiry: it must outlive the whole takeover sequence,
    // or a peer standby would start a second takeover against the same old
    // state mid-way through ours.
    claim.expires_at_ns = eng.now() + kClaimLeases * cfg_.lease_duration_ns;
    claim.manager_node = node_;
    claim.state = static_cast<std::uint32_t>(LeaseState::claiming);
    Bytes buf(sizeof(ManagerLease));
    store_pod(buf, claim);
    if (!fab.post_write(cpu, watched_meta_map_.addr() + kLeaseOffset, std::move(buf))) {
      continue;
    }
    // Let the posted write land, then confirm the claim stuck.
    co_await sim::delay(eng, kClaimStaggerNs);
    if (*stop) co_return;
    raw =
        co_await fab.read(cpu, watched_meta_map_.addr() + kLeaseOffset, sizeof(ManagerLease));
    if (*stop) co_return;
    if (!raw) continue;
    cur = load_pod<ManagerLease>(*raw);
    if (cur.epoch != claim.epoch || cur.manager_node != node_) continue;  // lost the race

    Status st = co_await sim::spawn(eng, take_over(claim));
    if (*stop) co_return;
    if (st) co_return;  // promoted: serving tasks run now, the watch ends
    NVS_LOG(error, "manager") << "standby on node " << node_
                              << " takeover failed: " << st.message() << "; resuming watch";
  }
}

bool Manager::lease_lapsed(const ManagerLease& lease) {
  const auto now = static_cast<std::uint64_t>(engine().now());
  if (lease.expires_at_ns != seen_expiry_) {
    seen_expiry_ = lease.expires_at_ns;
    seen_expiry_at_ = now;
  }
  const std::uint64_t limit =
      seen_expiry_at_ + kClaimLeases * static_cast<std::uint64_t>(cfg_.lease_duration_ns);
  return now >= std::min(lease.expires_at_ns, limit);
}

// Takeover: continue the old admin rings (AQA/ASQ/ACQ are latched — fresh
// rings would need a controller reset that kills every survivor's I/O
// queues), reconstruct grant state from the old owner table, roll back
// half-done grants, publish a fresh metadata segment on this host, fence
// the old epoch, and re-point the registration. Survivors never release
// their device references; their admin calls retry into the new mailbox.
sim::Co<Status> Manager::take_over(ManagerLease claim) {
  sim::Engine& eng = engine();
  fabric::Substrate& fab = fabric();
  sisci::Cluster& cluster = service_.cluster();
  const fabric::Initiator cpu = fab.cpu(node_);
  const sim::Time begin = eng.now();
  const std::uint64_t old_base = watched_meta_map_.addr();
  const Status stopped(Errc::aborted, "stopped during takeover");

  // 1. Scan the old segment: header, admin-ring journal, owner table.
  auto raw = co_await fab.read(cpu, old_base, sizeof(MetadataHeader));
  if (!raw) co_return raw.status();
  header_ = load_pod<MetadataHeader>(*raw);
  if (header_.magic != kMetadataMagic || header_.version != kMetadataVersion) {
    co_return Status(Errc::protocol_error, "old metadata segment unreadable");
  }
  raw = co_await fab.read(cpu, old_base + kAdminJournalOffset, sizeof(AdminRingJournal));
  if (!raw) co_return raw.status();
  const auto journal = load_pod<AdminRingJournal>(*raw);
  if (journal.entries == 0) {
    co_return Status(Errc::protocol_error, "old manager never journaled its admin rings");
  }
  std::vector<QpOwnerEntry> owners(kOwnerTableEntries);
  raw = co_await fab.read(cpu, old_base + kOwnerTableOffset,
                          kOwnerTableEntries * sizeof(QpOwnerEntry));
  if (!raw) co_return raw.status();
  raw->copy_out(0, std::as_writable_bytes(std::span(owners)));

  // 2. Adopt the admin rings: CPU views of the old ASQ/ACQ. Both survive in
  // the dead manager's DRAM (its process died, its host memory did not).
  auto asq_remote = cluster.connect(journal.asq_node, journal.asq_segment);
  auto acq_remote = cluster.connect(journal.acq_node, journal.acq_segment);
  if (!asq_remote || !acq_remote) {
    co_return Status(Errc::unavailable, "old admin ring segments unreachable");
  }
  auto asq_map = sisci::Map::create(cluster, node_, *asq_remote);
  auto acq_map = sisci::Map::create(cluster, node_, *acq_remote);
  if (!asq_map || !acq_map) {
    co_return Status(Errc::resource_exhausted, "no NTB windows for adopted admin rings");
  }
  adopt_asq_map_ = std::move(*asq_map);
  adopt_acq_map_ = std::move(*acq_map);
  AdminLayout adopted;
  adopted.cpu = cpu;
  adopted.bar = bar_.addr();
  adopted.entries = journal.entries;
  adopted.sq.cpu_addr = adopt_asq_map_.addr();
  adopted.cq.cpu_addr = adopt_acq_map_.addr();  // Fabric::peek resolves the NTB map
  admin_.place(adopted);
  admin_.adopt({journal.sq_tail, journal.cq_head, journal.next_cid, journal.phase != 0});
  adopted_ring_ = true;
  journal_ = journal;  // ring locations survive the epoch change

  // 3. Own scratch memory for admin data transfers (identify, scrub).
  if (Status st = make_admin_buffer(); !st) co_return st;

  // 4. Probe the adopted ring: one identify through the old ASQ/ACQ proves
  // the journaled cursors line up with the controller's. A completion the
  // dead manager pushed but never consumed drains through the (counted)
  // spurious-CQE path first.
  auto probe = co_await submit_admin(
      nvme::make_identify(0, nvme::IdentifyCns::controller, 0, admin_data_win_.device_addr()));
  if (*stop_) co_return stopped;
  if (!probe || !probe->ok()) {
    co_return probe ? Status(Errc::io_error, "adopted admin ring probe failed") : probe.status();
  }

  // 5. Reconstruct grant state; roll back write-ahead intents the old
  // manager died inside (their queues may or may not exist — delete both
  // and ignore refusals).
  const std::uint16_t granted = header_.granted_io_queues;
  // Tenant shares are manager-local and do not survive the takeover;
  // clients re-request them (like they re-heartbeat) — MODEL.md §12.
  grants_.assign(granted + 1u, {});
  for (std::uint16_t q = 1; q <= granted && q < kOwnerTableEntries; ++q) {
    QpOwnerEntry e = owners[q];
    if (e.state == static_cast<std::uint32_t>(QpOwnerState::pending)) {
      (void)co_await admin_.delete_io_pair(q);
      ++stats_.intent_rollbacks;
      owners[q] = QpOwnerEntry{};
      NVS_LOG(warn, "manager") << "rolled back half-created QP " << q << " of node "
                               << e.owner_node;
    } else if (e.state == static_cast<std::uint32_t>(QpOwnerState::active)) {
      e.created_at_ns = eng.now();  // reaper grace anchor: takeover time
      grant(q, e);
      ++stats_.qps_adopted;
    }
  }
  if (*stop_) co_return stopped;

  // 6. Fresh metadata segment on this host: header and owner table carried
  // over, QoS policy from our own config, empty mailbox slots.
  const std::uint32_t nodes = header_.mailbox_slots;
  auto meta = cluster.create_segment_placed(node_, node_, /*cpu_access=*/true,
                                            /*device_access=*/false, cfg_.metadata_segment_id,
                                            metadata_segment_size(nodes));
  if (!meta) co_return meta.status();
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
    (void)metadata_seg_.write(beat_off, as_bytes_of(load_pod<std::uint64_t>(*beat)));
  }
  if (*stop_) co_return stopped;

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
    co_return st;
  }
  watched_node_ = node_;
  watched_seg_id_ = cfg_.metadata_segment_id;

  // 9. Serve: same task set as a fresh manager, plus the takeover grace that
  // keeps the reaper honest while survivors re-resolve.
  standby_ = false;
  takeover_time_ = eng.now();
  start_serving();
  ++stats_.takeovers;
  trace_recovery(begin, eng.now());
  NVS_LOG(info, "manager") << "node " << node_ << " took over device " << device_id_
                           << " at epoch " << epoch_ << " in " << (eng.now() - begin)
                           << " ns";
  co_return Status::ok();
}

}  // namespace nvmeshare::driver
