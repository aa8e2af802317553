#include "driver/client.hpp"

#include <algorithm>
#include <cstddef>

#include "common/log.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace nvmeshare::driver {

using nvme::CompletionEntry;
using nvme::SubmissionEntry;

Client::Stats::Stats()
    : RequestStats("nvmeshare.client"),
      bounce_copies("nvmeshare.client.bounce_copies"),
      bounce_copy_bytes("nvmeshare.client.bounce_copy_bytes"),
      iommu_maps("nvmeshare.client.iommu_maps"),
      poll_rounds("nvmeshare.client.poll_rounds"),
      cmd_timeouts("nvmeshare.client.cmd_timeouts"),
      cmd_retries("nvmeshare.client.cmd_retries"),
      qp_recoveries("nvmeshare.client.qp_recoveries"),
      late_completions("nvmeshare.client.late_completions"),
      heartbeats("nvmeshare.client.heartbeats"),
      mailbox_retries("nvmeshare.client.mailbox_retries"),
      manager_failovers("nvmeshare.client.manager_failovers") {}

namespace {
constexpr sim::Duration kAcquireRetryNs = 50'000;
/// Cadence of the mailbox state-word poll while a request is outstanding.
constexpr sim::Duration kMailboxPollNs = 3000;
constexpr int kAcquireRetryLimit = 200;

constexpr int kRecoverRetryLimit = 8;
/// Settle time between tearing the old queue pair down and zeroing its
/// memory, so a straggling CQE DMA cannot land in the rebuilt ring.
constexpr sim::Duration kRecoverDrainNs = 100'000;

/// Per-client, per-purpose segment ids: (node, purpose) must be unique even
/// when hinted allocation places several clients' segments on the same
/// (device) host.
constexpr sisci::SegmentId client_segment_id(std::uint32_t segment_namespace,
                                             smartio::NodeId node, std::uint32_t purpose) {
  return 0x43000000u | ((segment_namespace & 0xFF) << 16) |
         (static_cast<std::uint32_t>(node) << 8) | purpose;
}
}  // namespace

Client::Client(smartio::Service& service, smartio::NodeId node, smartio::DeviceId device,
               Config cfg)
    : service_(service),
      node_(node),
      device_id_(device),
      cfg_(cfg),
      rng_(cfg.seed ^ (0x9e37ull * node)) {}

Client::~Client() {
  halt();
  if (poller_kick_) poller_kick_->set();  // let an idle poller observe the stop and exit
  if (crash_faults_ != nullptr) crash_faults_->unregister_crash_handler(crash_token_);
}

sim::Engine& Client::engine() { return service_.cluster().engine(); }
fabric::Substrate& Client::fabric() { return service_.cluster().fabric(); }

Status Client::copy_to_bounce(std::uint64_t slot_off, std::uint64_t src, std::uint64_t len) {
  NVS_RETURN_IF_ERROR(bounce_seg_.check_access(slot_off, len));
  return fabric().host_dram(bounce_seg_.node())
      .copy_from(bounce_seg_.phys_addr() + slot_off, fabric().host_dram(node_), src, len);
}

Status Client::copy_from_bounce(std::uint64_t dst, std::uint64_t slot_off, std::uint64_t len) {
  NVS_RETURN_IF_ERROR(bounce_seg_.check_access(slot_off, len));
  return fabric().host_dram(node_).copy_from(
      dst, fabric().host_dram(bounce_seg_.node()), bounce_seg_.phys_addr() + slot_off, len);
}

// --- block::IoTransport -------------------------------------------------------------
//
// The queue-pair personality the shared engine drives: an issue is an SQE
// store into channel's SQ slice, a ring is the SQ tail doorbell, and a
// broken channel is rebuilt through the manager mailbox.

Result<std::uint16_t> Client::issue(std::uint32_t chan, const block::Command* cmd) {
  // An empty CID range (hi == 0) selects the default full-range scan, which
  // is byte-identical to the pre-share submission path.
  const SubmissionEntry& sqe = staged_[cmd->slot].sqe;
  if (cmd->range.hi == 0) return qps_[chan]->push(sqe);
  return qps_[chan]->push(sqe, cmd->range);
}

Status Client::ring(std::uint32_t chan) {
  // May fail during an outage; the engine's deadline watchdog covers it.
  return qps_[chan]->ring_sq_doorbell();
}

/// Transient controller statuses worth a retry; everything else (invalid
/// field, LBA out of range, ...) is deterministic and reported immediately.
/// End-to-end check errors are retryable: a mismatch on the DMA'd copy of
/// intact media (bit flip in flight) heals on resubmission.
bool Client::retryable(std::uint16_t status) const {
  return status == nvme::kScInternalError || status == nvme::kScDataTransferError ||
         status == nvme::kScGuardCheckError || status == nvme::kScAppTagCheckError ||
         status == nvme::kScRefTagCheckError;
}

void Client::start_recovery(std::uint32_t chan) { recover_task(chan, stop_); }

std::uint16_t Client::trace_qid(std::uint32_t chan) const { return qids_[chan]; }

void Client::on_armed(std::uint32_t chan) {
  (void)chan;
  poller_kick_->set();  // completions are coming: wake the idle poller
}

void Client::on_idle() { notify_poller(); }  // the next round parks the poller

void Client::halt() {
  *stop_ = true;
  notify_poller();
  poll_timer_ = nullptr;
  cq_watch_.reset();
}

std::unique_ptr<nvme::QueuePair> Client::make_queue_pair(std::uint32_t chan,
                                                         std::uint16_t qid) {
  nvme::QueuePair::Config qc;
  qc.qid = qid;
  qc.sq_size = cfg_.queue_entries;
  qc.cq_size = cfg_.queue_entries;
  qc.sq_write_addr = sq_cpu_map_.addr() + chan * sq_stride_bytes();
  qc.cq_poll_addr = cq_cpu_map_.addr() + chan * cq_stride_bytes();
  qc.sq_doorbell_addr = bar_.addr() + nvme::sq_doorbell_offset(qid);
  qc.cq_doorbell_addr = bar_.addr() + nvme::cq_doorbell_offset(qid);
  qc.cpu = fabric().cpu(node_);
  return std::make_unique<nvme::QueuePair>(fabric(), qc);
}

sim::Future<Result<std::unique_ptr<Client>>> Client::attach(smartio::Service& service,
                                                            smartio::NodeId node,
                                                            smartio::DeviceId device,
                                                            Config cfg) {
  return sim::spawn(service.cluster().engine(),
                    attach_steps(std::unique_ptr<Client>(new Client(service, node, device, cfg))));
}

sim::Co<Result<std::unique_ptr<Client>>> Client::attach_steps(std::unique_ptr<Client> self) {
  if (Status st = co_await self->connect(); !st) co_return st;
  co_return std::move(self);
}

sim::Co<Status> Client::connect() {
  sim::Engine& eng = engine();
  fabric::Substrate& fab = fabric();
  sisci::Cluster& cluster = service_.cluster();
  const fabric::Initiator cpu = fab.cpu(node_);

  // Config sanity. Queue geometry (depth < entries, channel count) is the
  // engine's attach-time rule, shared by every backend.
  block::IoEngine::Config ec;
  ec.backend = "client";
  ec.channels = cfg_.channels;
  ec.queue_depth = cfg_.queue_depth;
  ec.queue_entries = cfg_.queue_entries;
  ec.coalesce_doorbells = cfg_.coalesce_doorbells;
  ec.doorbell_ns = cfg_.costs.doorbell_ns;
  ec.cmd_timeout_ns = cfg_.cmd_timeout_ns;
  ec.cmd_retry_limit = cfg_.cmd_retry_limit;
  ec.retry_backoff_ns = cfg_.retry_backoff_ns;
  ec.trace_style = block::IoEngine::TraceStyle::nvme;
  ec.counters.requests = &stats_;
  ec.counters.read_latency = &read_latency_hist_;
  ec.counters.write_latency = &write_latency_hist_;
  ec.counters.timeouts = &stats_.cmd_timeouts;
  ec.counters.retries = &stats_.cmd_retries;
  ec.counters.recoveries = &stats_.qp_recoveries;
  ec.counters.late_completions = &stats_.late_completions;
  if (Status st = block::IoEngine::validate(ec); !st) co_return st;
  if (cfg_.queue_entries < 2 || cfg_.slot_bytes < nvme::kPageSize ||
      cfg_.slot_bytes % nvme::kPageSize != 0 || cfg_.slot_bytes > 32 * nvme::kPageSize) {
    co_return Status(Errc::invalid_argument, "bad client configuration");
  }
  const std::uint32_t total_depth = cfg_.queue_depth * cfg_.channels;

  // 1. Shared device reference; the manager may still hold it exclusively
  //    while initializing, so retry.
  for (int attempt = 0;; ++attempt) {
    auto ref = service_.acquire(device_id_, smartio::AcquireMode::shared);
    if (ref) {
      ref_ = std::move(*ref);
      break;
    }
    if (ref.error_code() != Errc::permission_denied || attempt >= kAcquireRetryLimit) {
      co_return ref.status();
    }
    co_await sim::delay(eng, kAcquireRetryNs);
  }

  // 2. Find the manager's metadata segment (SmartIO distributes this).
  std::pair<smartio::NodeId, sisci::SegmentId> meta_loc;
  for (int attempt = 0;; ++attempt) {
    auto loc = service_.device_metadata(device_id_);
    if (loc) {
      meta_loc = *loc;
      break;
    }
    if (attempt >= kAcquireRetryLimit) {
      co_return Status(Errc::unavailable, "device is not managed (no metadata segment)");
    }
    co_await sim::delay(eng, kAcquireRetryNs);
  }
  auto meta_remote = cluster.connect(meta_loc.first, meta_loc.second);
  if (!meta_remote) co_return meta_remote.status();
  auto meta_map = sisci::Map::create(cluster, node_, *meta_remote);
  if (!meta_map) co_return meta_map.status();
  meta_map_ = std::move(*meta_map);

  // Read the header across the NTB (a real, timed remote read).
  auto hdr = co_await fab.read(cpu, meta_map_.addr(), sizeof(MetadataHeader));
  if (!hdr) co_return hdr.status();
  header_ = load_pod<MetadataHeader>(*hdr);
  if (header_.magic != kMetadataMagic) {
    co_return Status(Errc::protocol_error, "bad metadata segment magic");
  }
  // Version negotiation: any mismatch (older manager, newer manager) is a
  // clean `unsupported` — never an attempt to parse a foreign slot layout.
  if (header_.version != kMetadataVersion) {
    co_return Status(Errc::unsupported,
                     "manager speaks metadata v" + std::to_string(header_.version) +
                         ", client requires v" + std::to_string(kMetadataVersion));
  }
  if (node_ >= header_.mailbox_slots) {
    co_return Status(Errc::out_of_range, "no mailbox slot for this node");
  }
  mbox_addr_ = meta_map_.addr() + mbox_slot_offset(header_, node_);
  meta_loc_ = meta_loc;
  if (cfg_.mailbox_retry_limit > 1) {
    // HA-aware client: remember the serving manager's epoch so a response
    // written by a fenced manager can be recognized as stale after a
    // takeover. Gated on the retry knob — the extra timed read would
    // otherwise perturb the fault-free seed instruction stream.
    auto lease =
        co_await fab.read(cpu, meta_map_.addr() + kLeaseOffset, sizeof(ManagerLease));
    if (lease) lease_epoch_ = load_pod<ManagerLease>(*lease).epoch;
  }

  // 3. Queue memory. CQ is polled by this CPU -> local. SQ placement is the
  //    Figure 8 policy knob. One segment per purpose holds every channel's
  //    ring contiguously (channel c's slice starts at c * ring_bytes), so
  //    one DMA window covers all channels.
  const std::uint64_t sq_ring_bytes = sq_stride_bytes();
  const std::uint64_t cq_ring_bytes = cq_stride_bytes();
  auto cq_seg = service_.create_segment_hinted(
      node_, client_segment_id(cfg_.segment_namespace, node_, 0), cq_ring_bytes * cfg_.channels,
      device_id_, smartio::AccessHint::cq());
  if (!cq_seg) co_return cq_seg.status();
  cq_seg_ = std::move(*cq_seg);
  if (!fab.cpu_pollable(node_, cq_seg_.node())) {
    co_return Status(Errc::internal, "CQ hint did not resolve to CPU-pollable memory");
  }

  const sisci::SegmentId sq_id = client_segment_id(cfg_.segment_namespace, node_, 1);
  Result<sisci::Segment> sq_seg =
      cfg_.sq_placement == SqPlacement::device_side
          ? service_.create_segment_hinted(node_, sq_id, sq_ring_bytes * cfg_.channels,
                                           device_id_, smartio::AccessHint::sq())
          : cluster.create_segment(node_, sq_id, sq_ring_bytes * cfg_.channels);
  if (!sq_seg) co_return sq_seg.status();
  sq_seg_ = std::move(*sq_seg);
  // Queue memory must start zeroed: a reused physical range may hold stale
  // completion entries whose phase bits would read as valid.
  (void)cq_seg_.write(0, Bytes(cq_seg_.size(), std::byte{0}));
  (void)sq_seg_.write(0, Bytes(sq_seg_.size(), std::byte{0}));

  // 4. Bounce buffer + prewritten PRP lists (bounce mode), or just the PRP
  //    list pages (IOMMU mode writes them per request).
  const std::uint64_t bounce_bytes =
      static_cast<std::uint64_t>(total_depth) * cfg_.slot_bytes;
  if (cfg_.data_path == DataPath::bounce_buffer) {
    // Both the CPU and the device touch the bounce buffer on every request;
    // the substrate places it (NTB: client-local DRAM, CXL: the pool).
    auto bounce = service_.create_segment_hinted(
        node_, client_segment_id(cfg_.segment_namespace, node_, 2), bounce_bytes,
        device_id_, smartio::AccessHint::data());
    if (!bounce) co_return bounce.status();
    bounce_seg_ = std::move(*bounce);
  }
  auto prp = service_.create_segment_hinted(
      node_, client_segment_id(cfg_.segment_namespace, node_, 3),
      static_cast<std::uint64_t>(total_depth) * nvme::kPageSize, device_id_,
      smartio::AccessHint::sq());
  if (!prp) co_return prp.status();
  prp_seg_ = std::move(*prp);

  // 5. DMA windows: device-visible addresses for everything the controller
  //    must reach. SmartIO hides whether each segment is local or remote to
  //    the device.
  auto sq_win = ref_.map_for_device(sq_seg_.descriptor());
  auto cq_win = ref_.map_for_device(cq_seg_.descriptor());
  auto prp_win = ref_.map_for_device(prp_seg_.descriptor());
  if (!sq_win || !cq_win || !prp_win) {
    co_return Status(Errc::resource_exhausted, "no NTB windows for queue segments");
  }
  sq_win_ = std::move(*sq_win);
  cq_win_ = std::move(*cq_win);
  prp_win_ = std::move(*prp_win);
  if (cfg_.data_path == DataPath::bounce_buffer) {
    auto bounce_win = ref_.map_for_device(bounce_seg_.descriptor());
    if (!bounce_win) co_return bounce_win.status();
    bounce_win_ = std::move(*bounce_win);

    // Prewrite one PRP list per slot: the bounce partition is constant, so
    // the DMA descriptors are "programmed once" (Section V). Entry j of
    // slot i covers page j+1 of the slot (page 0 rides in PRP1).
    Bytes list((cfg_.slot_bytes / nvme::kPageSize - 1) * 8);
    for (std::uint32_t slot = 0; slot < total_depth && !list.empty(); ++slot) {
      nvme::fill_prp_list(
          bounce_win_.device_addr() + static_cast<std::uint64_t>(slot) * cfg_.slot_bytes,
          cfg_.slot_bytes, list);
      (void)prp_seg_.write(static_cast<std::uint64_t>(slot) * nvme::kPageSize, list);
    }
  }

  // 6. Device registers: BAR window for the doorbells.
  auto bar = ref_.map_bar(node_, 0);
  if (!bar) co_return bar.status();
  bar_ = std::move(*bar);

  // 7. Ask the manager for the queue pairs over the shared-memory mailbox:
  //    one batch grant covering every channel (all-or-nothing, so a
  //    half-granted client never exists).
  mailbox_lock_ = std::make_unique<sim::Semaphore>(eng, 1);
  MboxSlot req;
  req.client_node = node_;
  req.sq_device_addr = sq_win_.device_addr();
  req.cq_device_addr = cq_win_.device_addr();
  req.sq_size = cfg_.queue_entries;
  req.cq_size = cfg_.queue_entries;
  req.qos_class = static_cast<std::uint8_t>(cfg_.qos_class);
  req.qos_iops = cfg_.qos_iops;
  req.qos_bytes_per_s = cfg_.qos_bytes_per_s;
  req.op = static_cast<std::uint32_t>(MboxOp::create_qp_batch);
  req.qp_count = static_cast<std::uint16_t>(cfg_.channels);
  req.sq_stride = static_cast<std::uint32_t>(sq_ring_bytes);
  req.cq_stride = static_cast<std::uint32_t>(cq_ring_bytes);
  auto resp = co_await sim::spawn(engine(), mailbox_call(req));
  if (!resp) co_return resp.status();
  if (resp->status != static_cast<std::uint32_t>(Errc::ok)) {
    co_return Status(static_cast<Errc>(resp->status), "manager rejected create_qp");
  }
  qids_.assign(resp->qids, resp->qids + cfg_.channels);
  // The granted budgets (possibly clamped below what we asked) arm the
  // engine's token-bucket pacer; an uncapped grant leaves both rates zero
  // and the pacer disarmed, preserving the seed instruction stream.
  ec.qos_iops_limit = resp->qos_granted_iops;
  ec.qos_bytes_per_s = resp->qos_granted_bytes_per_s;

  // 8. CPU views of the rings: the SQ map is an NTB window when the SQ
  //    lives device-side; the CQ map is direct for local DRAM and an HDM
  //    address for a pooled CQ.
  auto sq_map = sisci::Map::create(cluster, node_, sq_seg_.descriptor());
  if (!sq_map) co_return sq_map.status();
  sq_cpu_map_ = std::move(*sq_map);
  auto cq_map = sisci::Map::create(cluster, node_, cq_seg_.descriptor());
  if (!cq_map) co_return cq_map.status();
  cq_cpu_map_ = std::move(*cq_map);

  qps_.resize(cfg_.channels);
  for (std::uint32_t ch = 0; ch < cfg_.channels; ++ch) {
    qps_[ch] = make_queue_pair(ch, qids_[ch]);
  }

  max_transfer_ = header_.max_transfer_bytes;
  if (cfg_.data_path == DataPath::bounce_buffer) {
    max_transfer_ = std::min(max_transfer_, cfg_.slot_bytes);
  }
  poller_kick_ = std::make_unique<sim::Event>(eng);
  // The private-base conversion must happen here, where Client's bases are
  // accessible (make_unique's internals cannot see it).
  block::IoTransport& transport = *this;
  engine_io_ = std::make_unique<block::IoEngine>(eng, transport, stop_, ec);
  staged_.resize(total_depth);
  if (cfg_.pi_verify) {
    engine_io_->enable_pi(fab.host_dram(node_), header_.block_size);
  }
  name_ = "nvsh-n" + std::to_string(node_) + "-q" + std::to_string(qids_[0]);
  if (cfg_.channels > 1) name_ += "x" + std::to_string(cfg_.channels);
  attached_ = true;
  poller(stop_);
  auto cq_watch =
      fab.watch_writes(node_, cq_cpu_map_.addr(), cq_ring_bytes * cfg_.channels, *poll_timer_);
  if (!cq_watch) {
    halt();
    co_return cq_watch.status();
  }
  cq_watch_ = std::move(*cq_watch);
  if (cfg_.heartbeat_interval_ns > 0) heartbeat_task(stop_);
  crash_faults_ = fab.faults();
  if (crash_faults_ != nullptr) {
    crash_token_ = crash_faults_->register_crash_handler(node_, [this]() { crash(); });
  }

  NVS_LOG(info, "client") << name_ << " attached (sq "
                          << (cfg_.sq_placement == SqPlacement::device_side ? "device-side"
                                                                            : "host-side")
                          << ", "
                          << (cfg_.data_path == DataPath::bounce_buffer ? "bounce buffer"
                                                                        : "iommu")
                          << ")";
  co_return Status::ok();
}

// --- mailbox RPC ------------------------------------------------------------------

// One attempt posts the request, polls the state word until the manager
// flips it to done, reads the full slot back and frees it. With the retry
// knob off that is the whole story (the seed instruction stream); with it
// on, a timed-out or transport-failed attempt backs off exponentially,
// follows a possible manager takeover (the metadata registration moves to
// the standby's fresh segment) and re-posts. Duplicate grants from a
// re-post the old manager already served are safe: the manager reclaims a
// same-client grant whose SQ address overlaps before creating the new one.
sim::Co<Result<MboxSlot>> Client::mailbox_call(MboxSlot request) {
  sim::Engine& eng = engine();
  fabric::Substrate& fab = fabric();
  const fabric::Initiator cpu = fab.cpu(node_);
  co_await mailbox_lock_->acquire();

  const std::uint32_t attempts = std::max<std::uint32_t>(cfg_.mailbox_retry_limit, 1);
  Status last = Status(Errc::timed_out, "manager did not answer mailbox request");
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.mailbox_retries;
      co_await sim::delay(eng,
                          block::IoEngine::backoff_ns(cfg_.mailbox_retry_backoff_ns, attempt));
      if (*stop_ || crashed_) {
        last = Status(Errc::aborted, "client stopped during mailbox retry");
        break;
      }
      if (Status st = co_await sim::spawn(eng, follow_manager()); !st) {
        last = st;
        continue;  // registration gone or unreadable; back off and look again
      }
    }
    request.state = static_cast<std::uint32_t>(MboxState::request);
    request.client_node = node_;
    Bytes buf(sizeof(MboxSlot));
    store_pod(buf, request);
    if (auto arr = fab.post_write(cpu, mbox_addr_, std::move(buf)); !arr) {
      last = arr.status();
      if (attempts == 1) break;  // terminal on a single attempt (seed behavior)
      continue;
    }

    const sim::Time deadline = eng.now() + cfg_.mailbox_timeout_ns;
    bool done = false;
    bool fatal = false;
    for (;;) {
      co_await sim::delay(eng, kMailboxPollNs);
      // Poll the state word with a remote read through the NTB.
      auto state = co_await fab.read(cpu, mbox_addr_, 4);
      if (!state) {
        last = state.status();
        fatal = attempts == 1;  // a downed manager host is retryable with HA on
        break;
      }
      if (load_pod<std::uint32_t>(*state) == static_cast<std::uint32_t>(MboxState::done)) {
        done = true;
        break;
      }
      if (eng.now() >= deadline) {
        last = Status(Errc::timed_out, "manager did not answer mailbox request");
        break;
      }
    }
    if (fatal) break;
    if (!done) continue;

    auto full = co_await fab.read(cpu, mbox_addr_, sizeof(MboxSlot));
    if (!full) {
      last = full.status();
      if (attempts == 1) break;
      continue;
    }
    MboxSlot response = load_pod<MboxSlot>(*full);

    // Hand the slot back.
    Bytes free_word(4);
    store_pod(free_word, static_cast<std::uint32_t>(MboxState::free));
    (void)fab.post_write(cpu, mbox_addr_, std::move(free_word));

    // Epoch check (HA only): a fenced manager that answered after losing its
    // lease stamps the old epoch; drop the response and ask the new one.
    if (cfg_.mailbox_retry_limit > 1 && lease_epoch_ != 0 && response.epoch != 0) {
      if (response.epoch < lease_epoch_) {
        last = Status(Errc::unavailable, "mailbox response from a fenced manager epoch");
        continue;
      }
      lease_epoch_ = response.epoch;
    }
    mailbox_lock_->release();
    co_return response;
  }
  mailbox_lock_->release();
  co_return last;
}

// Follow a manager takeover: SmartIO's metadata registration is the source
// of truth for who serves the device. When it moved, connect and map the
// successor's segment, validate its header, re-learn the lease epoch, and
// recompute this node's mailbox slot address. Heartbeats and retried
// mailbox calls then land in the new manager's segment; nothing about the
// established queue pairs changes (the takeover adopted them).
sim::Co<Status> Client::follow_manager() {
  fabric::Substrate& fab = fabric();
  sisci::Cluster& cluster = service_.cluster();
  const fabric::Initiator cpu = fab.cpu(node_);

  auto loc = service_.device_metadata(device_id_);
  if (!loc) co_return Status(Errc::unavailable, "device has no manager metadata registered");
  if (*loc == meta_loc_) co_return Status::ok();  // nothing moved; the mapping stands
  auto remote = cluster.connect(loc->first, loc->second);
  if (!remote) co_return remote.status();
  auto map = sisci::Map::create(cluster, node_, *remote);
  if (!map) co_return map.status();
  auto hdr = co_await fab.read(cpu, map->addr(), sizeof(MetadataHeader));
  if (!hdr) co_return hdr.status();
  const MetadataHeader header = load_pod<MetadataHeader>(*hdr);
  if (header.magic != kMetadataMagic || header.version != kMetadataVersion) {
    co_return Status(Errc::protocol_error, "successor metadata segment is malformed");
  }
  if (node_ >= header.mailbox_slots) {
    co_return Status(Errc::out_of_range, "no mailbox slot for this node");
  }
  auto lease = co_await fab.read(cpu, map->addr() + kLeaseOffset, sizeof(ManagerLease));
  if (lease) lease_epoch_ = load_pod<ManagerLease>(*lease).epoch;
  meta_map_ = std::move(*map);
  header_ = header;
  meta_loc_ = *loc;
  mbox_addr_ = meta_map_.addr() + mbox_slot_offset(header_, node_);
  ++stats_.manager_failovers;
  NVS_LOG(info, "client") << name_ << " followed manager failover to node " << loc->first
                          << " (epoch " << lease_epoch_ << ")";
  co_return Status::ok();
}

// --- data path -----------------------------------------------------------------------
//
// IoEngine::serve runs each request; these hooks are what the distributed
// client adds: a bounce copy or an IOMMU mapping around the SQE.

sim::Future<block::Completion> Client::submit(const block::Request& request) {
  return engine_io_->serve(*this, request, own_range_);
}

sim::Duration Client::cpu_ns(obs::Phase phase) {
  return cfg_.costs.jittered(
      phase == obs::Phase::submit ? cfg_.costs.submit_ns : cfg_.costs.completion_ns, rng_);
}

block::Step Client::prepare(const block::Command& cmd, std::uint32_t step) {
  const block::Request& request = cmd.request;
  Staged& staged = staged_[cmd.slot];
  const std::uint64_t bytes = static_cast<std::uint64_t>(request.nblocks) * header_.block_size;
  const bool is_write = request.op == block::Op::write;
  const bool moves_data = is_write || request.op == block::Op::read;
  const bool bounce = cfg_.data_path == DataPath::bounce_buffer;
  // Offset of the slot's partition within the bounce segment, and of its
  // descriptor page (a PRP list or a discard range) within the PRP segment.
  const std::uint64_t slot_base = static_cast<std::uint64_t>(cmd.slot) * cfg_.slot_bytes;
  const std::uint64_t slot_page = static_cast<std::uint64_t>(cmd.slot) * nvme::kPageSize;
  const std::uint64_t map_base = align_down(request.buffer_addr, nvme::kPageSize);
  block::Step out;

  if (moves_data && !bounce && step == 0) {
    // IOMMU mode: map the request buffer dynamically; no copy. The device
    // view is set up once the mapping cost is charged (step 1).
    const std::uint64_t map_span =
        align_up(request.buffer_addr + bytes, nvme::kPageSize) - map_base;
    auto cost = iommu_.map(map_base, map_base, map_span);
    if (!cost) return cost.status();
    ++stats_.iommu_maps;
    staged.mapped = true;
    out.cost = *cost;
    out.again = true;
    return out;
  }

  nvme::StagedIo io;
  if (moves_data && bounce) {
    if (is_write) {
      // The extra copy on the submission path (Section V).
      if (Status st = copy_to_bounce(slot_base, request.buffer_addr, bytes); !st) return st;
      ++stats_.bounce_copies;
      stats_.bounce_copy_bytes += bytes;
      out.cost = cfg_.costs.memcpy_ns(bytes) + fabric().copy_cost_ns(bounce_seg_.node(), bytes);
      out.phase = obs::Phase::bounce_copy;
    }
    // The slot's PRP list was prewritten at attach.
    io.prp = nvme::make_prps(bounce_win_.device_addr() + slot_base, bytes,
                             prp_win_.device_addr() + slot_page);
  } else {
    std::uint64_t device_addr = request.buffer_addr;  // device == client host: direct
    if (moves_data) {
      if (auto dev = ref_.info(); dev && dev->host != node_) {
        // Viewed from the device's host: a device-side NTB window on the NTB
        // substrate; unsupported on the CXL pool (private DRAM is unreachable
        // — pooled bounce buffers are the supported data path there).
        const std::uint64_t map_span =
            align_up(request.buffer_addr + bytes, nvme::kPageSize) - map_base;
        auto mapping = fabric().map_window(fabric::MapIntent::dma, dev->host, node_, map_base,
                                           map_span);
        if (!mapping) {
          (void)iommu_.unmap(map_base);
          staged.mapped = false;
          return mapping.status();
        }
        staged.map = std::move(*mapping);
        device_addr = staged.map.addr() + (request.buffer_addr - map_base);
      }
    }
    // The slot's descriptor page takes this request's PRP list or discard
    // range. In bounce mode a discard range rides in the request's bounce
    // slot instead: the prewritten PRP lists must stay intact.
    const bool in_bounce = bounce && request.op == block::Op::discard;
    const std::uint64_t offset = in_bounce ? slot_base : slot_page;
    io = nvme::stage_io(block::nvme_opcode(request.op), request.lba, request.nblocks, device_addr,
                        bytes, (in_bounce ? bounce_win_ : prp_win_).device_addr() + offset);
    if (io.list_size > 0) (void)(in_bounce ? bounce_seg_ : prp_seg_).write(offset, io.list());
  }

  // The SQE issue() posts (a posted write into SQ memory: local store for
  // host-side placement, a store through the NTB for device-side).
  // pi_verify: PRACT has the controller seal what a write delivered
  // (arming later PRCHK reads and the scrubber); PRCHK has it verify stored
  // data against its tuples before a read's DMA, catching media-side
  // corruption at the source. Commands without data ignore PRINFO.
  std::uint32_t prinfo = 0;
  if (cfg_.pi_verify) {
    prinfo = is_write ? nvme::kPrinfoPract
                      : nvme::kPrinfoPrchkGuard | nvme::kPrinfoPrchkApp | nvme::kPrinfoPrchkRef;
  }
  staged.sqe = nvme::make_io(block::nvme_opcode(request.op), 1, request.lba,
                             static_cast<std::uint16_t>(request.nblocks), io.prp.prp1,
                             io.prp.prp2, prinfo);
  return out;
}

block::Step Client::settle(const block::Command& cmd, const block::CmdOutcome& outcome) {
  (void)outcome;
  if (cmd.request.op != block::Op::read || cfg_.data_path != DataPath::bounce_buffer) return {};
  // The extra copy on the completion path (Section V).
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(cmd.request.nblocks) * header_.block_size;
  block::Step out;
  out.status = copy_from_bounce(cmd.request.buffer_addr,
                                static_cast<std::uint64_t>(cmd.slot) * cfg_.slot_bytes, bytes);
  ++stats_.bounce_copies;
  stats_.bounce_copy_bytes += bytes;
  out.cost = cfg_.costs.memcpy_ns(bytes) + fabric().copy_cost_ns(bounce_seg_.node(), bytes);
  out.phase = obs::Phase::bounce_copy;
  return out;
}

block::Step Client::teardown(const block::Command& cmd, bool completed, std::uint32_t step) {
  Staged& staged = staged_[cmd.slot];
  if (!staged.mapped) return {};
  if (step == 0) {
    // The IOMMU teardown is charged only after a genuine completion; a
    // failed or aborted command drops its mapping without waiting.
    auto cost = iommu_.unmap(align_down(cmd.request.buffer_addr, nvme::kPageSize));
    block::Step out;
    if (cost && completed) out.cost = *cost;
    out.again = true;
    return out;
  }
  staged.map.release();
  staged.mapped = false;
  return {};
}

// --- tenant shares (docs/MODEL.md §12) ------------------------------------------------

mux::QpMultiplexer& Client::ensure_mux() {
  if (!mux_) {
    mux::QpMultiplexer::Config mc;
    mc.block_size = header_.block_size;
    // Dispatch runs the tenant's request down the normal engine path with
    // CID allocation pinned to the share window, so bounce slots, PRP
    // lists, retries and recovery all behave exactly as for own traffic.
    mux_ = std::make_unique<mux::QpMultiplexer>(
        engine(),
        [this](const block::Request& r, const nvme::CidRange& range) {
          return engine_io_->serve(*this, r, range);
        },
        stop_, mc);
  }
  return *mux_;
}

sim::Future<Result<mux::ShareGrant>> Client::create_share(const ShareRequest& request) {
  return sim::spawn(engine(), create_share_steps(request));
}

sim::Future<Status> Client::delete_share(std::uint32_t tenant) {
  return sim::spawn(engine(), delete_share_steps(tenant));
}

sim::Co<Result<mux::ShareGrant>> Client::create_share_steps(ShareRequest request) {
  if (!attached_) co_return Status(Errc::unavailable, "not attached");
  if (cfg_.channels != 1) {
    co_return Status(Errc::unsupported, "tenant shares need a single-channel client");
  }
  // Tenants live above the client's own window: [queue_depth, queue_entries).
  // depth < entries is an engine attach-time invariant, so the space is
  // never empty; with the defaults (32/64) a host has 32 tenant CIDs.
  const auto floor = static_cast<std::uint16_t>(cfg_.queue_depth);
  MboxSlot req;
  req.op = static_cast<std::uint32_t>(MboxOp::create_share);
  req.qid_in = qids_[0];
  req.share_tenant = request.tenant;
  req.share_cid_count = request.cid_count;
  req.share_cid_floor = floor;
  req.share_weight = request.weight == 0 ? std::uint16_t{1} : request.weight;
  req.qos_class = static_cast<std::uint8_t>(request.qos_class);
  req.qos_iops = request.qos_iops;
  req.qos_bytes_per_s = request.qos_bytes_per_s;
  auto resp = co_await sim::spawn(engine(), mailbox_call(req));
  if (!resp) co_return resp.status();
  if (resp->status != static_cast<std::uint32_t>(Errc::ok)) {
    co_return Status(static_cast<Errc>(resp->status), "manager rejected create_share");
  }
  mux::ShareGrant grant;
  grant.tenant = request.tenant;
  grant.qid = qids_[0];
  grant.range = nvme::CidRange{resp->share_cid_lo, resp->share_cid_hi};
  grant.weight = req.share_weight;
  grant.qos_iops = resp->qos_granted_iops;
  grant.qos_bytes_per_s = resp->qos_granted_bytes_per_s;
  mux::QpMultiplexer& m = ensure_mux();
  if (m.grant(request.tenant) != nullptr) {
    // The manager treats a repeat create_share as a re-grant; swap the
    // local attachment too (refused while the tenant has work in flight).
    if (Status st = m.detach_tenant(request.tenant); !st) co_return st;
  }
  if (Status st = m.attach_tenant(grant); !st) co_return st;
  // From here on the client's own submissions stay below the share floor,
  // so they can never collide with a tenant's window.
  own_range_ = nvme::CidRange{0, floor};
  co_return grant;
}

sim::Co<Status> Client::delete_share_steps(std::uint32_t tenant) {
  if (mux_ == nullptr || mux_->grant(tenant) == nullptr) {
    co_return Status(Errc::not_found, "no share for this tenant");
  }
  if (Status st = mux_->detach_tenant(tenant); !st) {
    co_return st;  // busy: staged or in-flight commands
  }
  MboxSlot req;
  req.op = static_cast<std::uint32_t>(MboxOp::delete_share);
  req.qid_in = qids_[0];
  req.share_tenant = tenant;
  auto resp = co_await sim::spawn(engine(), mailbox_call(req));
  if (!resp) co_return resp.status();
  if (resp->status != static_cast<std::uint32_t>(Errc::ok)) {
    co_return Status(static_cast<Errc>(resp->status), "manager rejected delete_share");
  }
  co_return Status::ok();
}

sim::Task Client::poller(std::shared_ptr<bool> stop) {
  sim::Engine& eng = engine();
  // A round that finds no CQE is skipped by the engine (sim::PollTimer);
  // skipped rounds still count. Notified by CQ writes (cq_watch_), the
  // engine going idle, queue-pair replacement and halt().
  sim::PollTimer timer(
      eng, [](void* rounds, std::uint64_t n) { *static_cast<obs::Counter*>(rounds) += n; },
      &stats_.poll_rounds);
  poll_timer_ = &timer;
  for (;;) {
    if (*stop) co_return;
    if (engine_io_->idle()) {
      // Nothing in flight: a real polling driver would spin, but the
      // latency effect is identical if we sleep until the next submission
      // (the poll cadence only matters while a completion is pending).
      poller_kick_->reset();
      co_await poller_kick_->wait();
      if (*stop) co_return;
      timer.clear();  // this round reads everything a notify stood for
      continue;
    }
    for (std::uint32_t chan = 0; chan < cfg_.channels; ++chan) {
      qps_[chan]->drain([&](const nvme::CompletionEntry& cqe) {
        if (!engine_io_->complete(chan, cqe.cid, cqe.status())) {
          // Expected under fault injection: the command timed out and was
          // retried, and this is the original submission completing late.
          NVS_LOG(warn, "client") << name_ << " completion for unknown cid " << cqe.cid;
        }
      });
    }
    ++stats_.poll_rounds;
    co_await sim::poll_tick(eng, timer, cfg_.costs.poll_interval_ns);
    if (*stop) co_return;
  }
}

// --- fault recovery -------------------------------------------------------------------

void Client::crash() {
  if (crashed_) return;
  crashed_ = true;
  attached_ = false;
  halt();
  if (poller_kick_) poller_kick_->set();
  if (mux_) mux_->kick();  // parked tenant scheduler drains its rings as aborted
  // Resolve every in-flight wait so callers observe the death (as an
  // `aborted` completion) instead of hanging the simulation. Nothing is
  // released: the queue pairs, NTB windows and segments stay allocated until
  // the manager's reaper collects them — that is the point of the fault.
  if (engine_io_) engine_io_->fail_all_pending();
  NVS_LOG(warn, "client") << name_ << " crashed (fault injection)";
}

// Channel recovery: fail out the channel's in-flight commands, tear the old
// pair down through the manager (best effort — after a controller reset the
// manager already forgot it, after a manager crash nobody answers), then
// build a fresh pair on the same ring slice and wake the waiting commands.
// Other channels keep flowing: the engine steers new work to survivors.
sim::Task Client::recover_task(std::uint32_t chan, std::shared_ptr<bool> stop) {
  sim::Engine& eng = engine();
  const sim::Time begin = eng.now();
  const std::uint16_t old_qid = qids_[chan];
  NVS_LOG(warn, "client") << name_ << " recovering queue pair q" << old_qid;

  engine_io_->fail_pending(chan);

  MboxSlot del;
  del.op = static_cast<std::uint32_t>(MboxOp::delete_qp_batch);
  del.qp_count = 1;
  del.qids[0] = old_qid;
  (void)co_await sim::spawn(engine(), mailbox_call(del));
  if (*stop || crashed_) {
    engine_io_->finish_recovery(chan);
    co_return;
  }

  // Let straggling CQE DMAs land before the rings are zeroed; a stale entry
  // written into the rebuilt ring could alias a valid phase bit. Only this
  // channel's ring slices are touched.
  co_await sim::delay(eng, kRecoverDrainNs);
  const std::uint64_t sq_ring_bytes = sq_stride_bytes();
  const std::uint64_t cq_ring_bytes = cq_stride_bytes();
  (void)cq_seg_.write(chan * cq_ring_bytes, Bytes(cq_ring_bytes, std::byte{0}));
  (void)sq_seg_.write(chan * sq_ring_bytes, Bytes(sq_ring_bytes, std::byte{0}));

  // Same segments, same DMA windows, fresh queue id. Retry with backoff:
  // right after a controller reset the manager may still be re-enabling.
  MboxSlot req;
  req.op = static_cast<std::uint32_t>(MboxOp::create_qp_batch);
  req.qp_count = 1;
  req.client_node = node_;
  req.sq_device_addr = sq_win_.device_addr() + chan * sq_ring_bytes;
  req.cq_device_addr = cq_win_.device_addr() + chan * cq_ring_bytes;
  req.sq_size = cfg_.queue_entries;
  req.cq_size = cfg_.queue_entries;
  // Re-request the original QoS grant: the replacement pair must come back
  // with the same class and budgets the client was admitted with.
  req.qos_class = static_cast<std::uint8_t>(cfg_.qos_class);
  req.qos_iops = cfg_.qos_iops;
  req.qos_bytes_per_s = cfg_.qos_bytes_per_s;
  bool created = false;
  for (int attempt = 0; attempt < kRecoverRetryLimit; ++attempt) {
    auto resp = co_await sim::spawn(engine(), mailbox_call(req));
    if (*stop || crashed_) break;
    if (resp && resp->status == static_cast<std::uint32_t>(Errc::ok)) {
      qids_[chan] = resp->qids[0];
      created = true;
      break;
    }
    co_await sim::delay(eng, block::IoEngine::backoff_ns(
                                 cfg_.retry_backoff_ns, static_cast<std::uint32_t>(attempt) + 1));
    if (*stop || crashed_) break;
  }
  if (created) {
    qps_[chan] = make_queue_pair(chan, qids_[chan]);
    notify_poller();
    if (cfg_.channels == 1) {
      name_ = "nvsh-n" + std::to_string(node_) + "-q" + std::to_string(qids_[0]);
    }
    NVS_LOG(info, "client") << name_ << " recovered queue pair (q" << old_qid << " -> q"
                            << qids_[chan] << ") in " << (eng.now() - begin) << " ns";
  } else {
    NVS_LOG(error, "client") << name_ << " queue-pair recovery failed; pending commands "
                             << "will exhaust their deadlines";
  }

  obs::Tracer::global().record_recovery(obs::Track::client, begin, eng.now(), qids_[chan]);
  engine_io_->finish_recovery(chan);
}

// Liveness heartbeat (docs/faults.md): a posted write of the local sim
// clock into this node's mailbox slot. Lost beats (downed link) are fine —
// the manager's reaper tolerates staleness up to its timeout.
sim::Task Client::heartbeat_task(std::shared_ptr<bool> stop) {
  sim::Engine& eng = engine();
  fabric::Substrate& fab = fabric();
  const fabric::Initiator cpu = fab.cpu(node_);
  for (;;) {
    co_await sim::delay(eng, cfg_.heartbeat_interval_ns);
    if (*stop) co_return;
    if (cfg_.mailbox_retry_limit > 1) {
      // HA-aware survivor: if the metadata registration moved (takeover),
      // re-home so beats land in the new manager's segment — its reaper
      // watches the new slots, and a survivor that kept beating into the
      // dead segment would look orphaned once the grace window closes.
      auto loc = service_.device_metadata(device_id_);
      if (loc && *loc != meta_loc_) {
        (void)co_await sim::spawn(eng, follow_manager());
        if (*stop) co_return;
      }
    }
    Bytes beat(8);
    store_pod(beat, static_cast<std::uint64_t>(eng.now()));
    (void)fab.post_write(cpu, mbox_addr_ + offsetof(MboxSlot, heartbeat_ns), std::move(beat));
    ++stats_.heartbeats;
  }
}

// --- detach ---------------------------------------------------------------------------

sim::Future<Status> Client::detach() { return sim::spawn(engine(), detach_steps()); }

sim::Co<Status> Client::detach_steps() {
  if (!attached_) co_return Status(Errc::unavailable, "not attached");
  attached_ = false;
  MboxSlot req;
  req.op = static_cast<std::uint32_t>(MboxOp::delete_qp_batch);
  req.qp_count = static_cast<std::uint16_t>(cfg_.channels);
  std::copy(qids_.begin(), qids_.end(), req.qids);
  auto resp = co_await sim::spawn(engine(), mailbox_call(req));
  halt();  // stop poller after the RPC (it uses the fabric, not the QP)
  if (mux_) mux_->kick();  // parked tenant scheduler drains its rings as aborted
  if (!resp) co_return resp.status();
  if (resp->status != static_cast<std::uint32_t>(Errc::ok)) {
    co_return Status(static_cast<Errc>(resp->status), "manager rejected delete_qp");
  }
  // The queue pair is gone; release DMA windows (device-side NTB entries)
  // and then the segments so another client can reuse the resources.
  sq_win_ = smartio::DmaWindow{};
  cq_win_ = smartio::DmaWindow{};
  bounce_win_ = smartio::DmaWindow{};
  prp_win_ = smartio::DmaWindow{};
  sq_cpu_map_ = sisci::Map{};
  sq_seg_.release();
  cq_seg_.release();
  bounce_seg_.release();
  prp_seg_.release();
  co_return Status::ok();
}

}  // namespace nvmeshare::driver
