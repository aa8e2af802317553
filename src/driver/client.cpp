#include "driver/client.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

#include "common/log.hpp"
#include "fault/fault.hpp"
#include "integrity/integrity.hpp"
#include "obs/trace.hpp"

namespace nvmeshare::driver {

using nvme::CompletionEntry;
using nvme::SubmissionEntry;

Client::Stats::Stats()
    : reads("nvmeshare.client.reads"),
      writes("nvmeshare.client.writes"),
      flushes("nvmeshare.client.flushes"),
      errors("nvmeshare.client.errors"),
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
obs::Kind trace_kind(block::Op op) {
  switch (op) {
    case block::Op::read: return obs::Kind::read;
    case block::Op::write: return obs::Kind::write;
    case block::Op::flush: return obs::Kind::flush;
    case block::Op::write_zeroes: return obs::Kind::write_zeroes;
    case block::Op::discard: return obs::Kind::discard;
  }
  return obs::Kind::other;
}
}  // namespace

namespace {
/// What io_task hands the engine as its opaque submission cookie: the SQE
/// plus the CID window it must allocate from. An empty range (hi == 0)
/// selects the default full-range scan, which is byte-identical to the
/// pre-share submission path.
struct IssueCtx {
  SubmissionEntry sqe;
  nvme::CidRange range;
};

constexpr sim::Duration kAcquireRetryNs = 50'000;
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
      rng_(cfg.seed ^ (0x9e37ull * node)),
      iommu_(cfg.iommu) {}

Client::~Client() {
  halt();
  if (poller_kick_) poller_kick_->set();  // let an idle poller observe the stop and exit
  if (crash_token_ != 0) fault::Injector::global().unregister_crash_handler(crash_token_);
}

sim::Engine& Client::engine() { return service_.cluster().engine(); }
fabric::Substrate& Client::fabric() { return service_.cluster().fabric(); }

Status Client::copy_to_bounce(std::uint64_t slot_off, std::uint64_t src, std::uint64_t len) {
  Bytes tmp(len);
  NVS_RETURN_IF_ERROR(fabric().host_dram(node_).read(src, tmp));
  return bounce_seg_.write(slot_off, tmp);
}

Status Client::copy_from_bounce(std::uint64_t dst, std::uint64_t slot_off, std::uint64_t len) {
  Bytes tmp(len);
  NVS_RETURN_IF_ERROR(bounce_seg_.read(slot_off, tmp));
  return fabric().host_dram(node_).write(dst, tmp);
}

// --- block::IoTransport -------------------------------------------------------------
//
// The queue-pair personality the shared engine drives: an issue is an SQE
// store into channel's SQ slice, a ring is the SQ tail doorbell, and a
// broken channel is rebuilt through the manager mailbox.

Result<std::uint16_t> Client::issue(std::uint32_t chan, void* cookie) {
  const auto* ctx = static_cast<const IssueCtx*>(cookie);
  if (ctx->range.hi == 0) return qps_[chan]->push(ctx->sqe);
  return qps_[chan]->push(ctx->sqe, ctx->range);
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

std::uint64_t Client::sq_stride_bytes() const noexcept {
  const std::uint64_t ring = cfg_.queue_entries * 64ull;
  return cfg_.channels == 1 ? ring : div_ceil(ring, nvme::kPageSize) * nvme::kPageSize;
}

std::uint64_t Client::cq_stride_bytes() const noexcept {
  const std::uint64_t ring = cfg_.queue_entries * 16ull;
  return cfg_.channels == 1 ? ring : div_ceil(ring, nvme::kPageSize) * nvme::kPageSize;
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
  sim::Promise<Result<std::unique_ptr<Client>>> promise(service.cluster().engine());
  auto self = std::unique_ptr<Client>(new Client(service, node, device, cfg));
  init_task(std::move(self), promise);
  return promise.future();
}

sim::Task Client::init_task(std::unique_ptr<Client> self,
                            sim::Promise<Result<std::unique_ptr<Client>>> promise) {
  Client& c = *self;
  sim::Engine& engine = c.engine();
  fabric::Substrate& fabric = c.fabric();
  sisci::Cluster& cluster = c.service_.cluster();
  const pcie::Initiator cpu = fabric.cpu(c.node_);

  // Config sanity. Queue geometry (depth < entries, channel count) is the
  // engine's attach-time rule, shared by every backend.
  block::IoEngine::Config ec;
  ec.backend = "client";
  ec.channels = c.cfg_.channels;
  ec.queue_depth = c.cfg_.queue_depth;
  ec.queue_entries = c.cfg_.queue_entries;
  ec.scheduler = c.cfg_.scheduler;
  ec.coalesce_doorbells = c.cfg_.coalesce_doorbells;
  ec.doorbell_ns = c.cfg_.costs.doorbell_ns;
  ec.cmd_timeout_ns = c.cfg_.cmd_timeout_ns;
  ec.cmd_retry_limit = c.cfg_.cmd_retry_limit;
  ec.retry_backoff_ns = c.cfg_.retry_backoff_ns;
  ec.retry_backoff_max_ns = c.cfg_.retry_backoff_max_ns;
  ec.trace_style = block::IoEngine::TraceStyle::nvme;
  ec.counters.timeouts = &c.stats_.cmd_timeouts;
  ec.counters.retries = &c.stats_.cmd_retries;
  ec.counters.recoveries = &c.stats_.qp_recoveries;
  ec.counters.late_completions = &c.stats_.late_completions;
  if (Status st = block::IoEngine::validate(ec); !st) {
    promise.set(st);
    co_return;
  }
  if (c.cfg_.queue_entries < 2 || c.cfg_.slot_bytes < nvme::kPageSize ||
      c.cfg_.slot_bytes % nvme::kPageSize != 0 || c.cfg_.slot_bytes > 32 * nvme::kPageSize) {
    promise.set(Status(Errc::invalid_argument, "bad client configuration"));
    co_return;
  }
  const std::uint32_t total_depth = c.cfg_.queue_depth * c.cfg_.channels;

  // 1. Shared device reference; the manager may still hold it exclusively
  //    while initializing, so retry.
  for (int attempt = 0;; ++attempt) {
    auto ref = c.service_.acquire(c.device_id_, smartio::AcquireMode::shared);
    if (ref) {
      c.ref_ = std::move(*ref);
      break;
    }
    if (ref.error_code() != Errc::permission_denied || attempt >= kAcquireRetryLimit) {
      promise.set(ref.status());
      co_return;
    }
    co_await sim::delay(engine, kAcquireRetryNs);
  }

  // 2. Find the manager's metadata segment (SmartIO distributes this).
  std::pair<smartio::NodeId, sisci::SegmentId> meta_loc;
  for (int attempt = 0;; ++attempt) {
    auto loc = c.service_.device_metadata(c.device_id_);
    if (loc) {
      meta_loc = *loc;
      break;
    }
    if (attempt >= kAcquireRetryLimit) {
      promise.set(Status(Errc::unavailable, "device is not managed (no metadata segment)"));
      co_return;
    }
    co_await sim::delay(engine, kAcquireRetryNs);
  }
  auto meta_remote = cluster.connect(meta_loc.first, meta_loc.second);
  if (!meta_remote) {
    promise.set(meta_remote.status());
    co_return;
  }
  auto meta_map = sisci::Map::create(cluster, c.node_, *meta_remote);
  if (!meta_map) {
    promise.set(meta_map.status());
    co_return;
  }
  c.meta_map_ = std::move(*meta_map);

  // Read the header across the NTB (a real, timed remote read).
  auto hdr = co_await fabric.read(cpu, c.meta_map_.addr(), sizeof(MetadataHeader));
  if (!hdr) {
    promise.set(hdr.status());
    co_return;
  }
  c.header_ = load_pod<MetadataHeader>(*hdr);
  if (c.header_.magic != kMetadataMagic) {
    promise.set(Status(Errc::protocol_error, "bad metadata segment magic"));
    co_return;
  }
  // Version negotiation: any mismatch (older manager, newer manager) is a
  // clean `unsupported` — never an attempt to parse a foreign slot layout.
  if (c.header_.version != kMetadataVersion) {
    promise.set(Status(Errc::unsupported,
                       "manager speaks metadata v" + std::to_string(c.header_.version) +
                           ", client requires v" + std::to_string(kMetadataVersion)));
    co_return;
  }
  if (c.node_ >= c.header_.mailbox_slots) {
    promise.set(Status(Errc::out_of_range, "no mailbox slot for this node"));
    co_return;
  }
  c.mbox_addr_ = c.meta_map_.addr() + mbox_slot_offset(c.header_, c.node_);
  c.meta_loc_ = meta_loc;
  if (c.cfg_.mailbox_retry_limit > 1) {
    // HA-aware client: remember the serving manager's epoch so a response
    // written by a fenced manager can be recognized as stale after a
    // takeover. Gated on the retry knob — the extra timed read would
    // otherwise perturb the fault-free seed instruction stream.
    auto lease =
        co_await fabric.read(cpu, c.meta_map_.addr() + kLeaseOffset, sizeof(ManagerLease));
    if (lease) c.lease_epoch_ = load_pod<ManagerLease>(*lease).epoch;
  }

  // 3. Queue memory. CQ is polled by this CPU -> local. SQ placement is the
  //    Figure 8 policy knob. One segment per purpose holds every channel's
  //    ring contiguously (channel c's slice starts at c * ring_bytes), so
  //    one DMA window covers all channels.
  const std::uint64_t sq_ring_bytes = c.sq_stride_bytes();
  const std::uint64_t cq_ring_bytes = c.cq_stride_bytes();
  auto cq_seg = c.service_.create_segment_hinted(
      c.node_, client_segment_id(c.cfg_.segment_namespace, c.node_, 0),
      cq_ring_bytes * c.cfg_.channels, c.device_id_,
      smartio::AccessHint::cq());
  if (!cq_seg) {
    promise.set(cq_seg.status());
    co_return;
  }
  c.cq_seg_ = std::move(*cq_seg);
  if (!fabric.cpu_pollable(c.node_, c.cq_seg_.node())) {
    promise.set(Status(Errc::internal, "CQ hint did not resolve to CPU-pollable memory"));
    co_return;
  }

  Result<sisci::Segment> sq_seg =
      c.cfg_.sq_placement == SqPlacement::device_side
          ? c.service_.create_segment_hinted(c.node_, client_segment_id(c.cfg_.segment_namespace, c.node_, 1),
                                             sq_ring_bytes * c.cfg_.channels, c.device_id_,
                                             smartio::AccessHint::sq())
          : cluster.create_segment(c.node_, client_segment_id(c.cfg_.segment_namespace, c.node_, 1),
                                   sq_ring_bytes * c.cfg_.channels);
  if (!sq_seg) {
    promise.set(sq_seg.status());
    co_return;
  }
  c.sq_seg_ = std::move(*sq_seg);
  // Queue memory must start zeroed: a reused physical range may hold stale
  // completion entries whose phase bits would read as valid.
  (void)c.cq_seg_.write(0, Bytes(c.cq_seg_.size(), std::byte{0}));
  (void)c.sq_seg_.write(0, Bytes(c.sq_seg_.size(), std::byte{0}));

  // 4. Bounce buffer + prewritten PRP lists (bounce mode), or just the PRP
  //    list pages (IOMMU mode writes them per request).
  const std::uint64_t bounce_bytes =
      static_cast<std::uint64_t>(total_depth) * c.cfg_.slot_bytes;
  if (c.cfg_.data_path == DataPath::bounce_buffer) {
    // Both the CPU and the device touch the bounce buffer on every request;
    // the substrate places it (NTB: client-local DRAM, CXL: the pool).
    auto bounce = c.service_.create_segment_hinted(
        c.node_, client_segment_id(c.cfg_.segment_namespace, c.node_, 2), bounce_bytes,
        c.device_id_, smartio::AccessHint::data());
    if (!bounce) {
      promise.set(bounce.status());
      co_return;
    }
    c.bounce_seg_ = std::move(*bounce);
  }
  auto prp = c.service_.create_segment_hinted(
      c.node_, client_segment_id(c.cfg_.segment_namespace, c.node_, 3),
      static_cast<std::uint64_t>(total_depth) * nvme::kPageSize, c.device_id_,
      smartio::AccessHint::sq());
  if (!prp) {
    promise.set(prp.status());
    co_return;
  }
  c.prp_seg_ = std::move(*prp);

  // 5. DMA windows: device-visible addresses for everything the controller
  //    must reach. SmartIO hides whether each segment is local or remote to
  //    the device.
  auto sq_win = c.ref_.map_for_device(c.sq_seg_.descriptor());
  auto cq_win = c.ref_.map_for_device(c.cq_seg_.descriptor());
  auto prp_win = c.ref_.map_for_device(c.prp_seg_.descriptor());
  if (!sq_win || !cq_win || !prp_win) {
    promise.set(Status(Errc::resource_exhausted, "no NTB windows for queue segments"));
    co_return;
  }
  c.sq_win_ = std::move(*sq_win);
  c.cq_win_ = std::move(*cq_win);
  c.prp_win_ = std::move(*prp_win);
  if (c.cfg_.data_path == DataPath::bounce_buffer) {
    auto bounce_win = c.ref_.map_for_device(c.bounce_seg_.descriptor());
    if (!bounce_win) {
      promise.set(bounce_win.status());
      co_return;
    }
    c.bounce_win_ = std::move(*bounce_win);

    // Prewrite one PRP list per slot: the bounce partition is constant, so
    // the DMA descriptors are "programmed once" (Section V). Entry j of
    // slot i covers page j+1 of the slot (page 0 rides in PRP1).
    Bytes list((c.cfg_.slot_bytes / nvme::kPageSize - 1) * 8);
    for (std::uint32_t slot = 0; slot < total_depth && !list.empty(); ++slot) {
      nvme::fill_prp_list(
          c.bounce_win_.device_addr() + static_cast<std::uint64_t>(slot) * c.cfg_.slot_bytes,
          c.cfg_.slot_bytes, list);
      (void)c.prp_seg_.write(static_cast<std::uint64_t>(slot) * nvme::kPageSize, list);
    }
  }

  // 6. Device registers: BAR window for the doorbells.
  auto bar = c.ref_.map_bar(c.node_, 0);
  if (!bar) {
    promise.set(bar.status());
    co_return;
  }
  c.bar_ = std::move(*bar);

  // 7. Ask the manager for the queue pairs over the shared-memory mailbox:
  //    one create_qp for the single-channel layout, one batch grant
  //    otherwise (all-or-nothing, so a half-granted client never exists).
  c.mailbox_lock_ = std::make_unique<sim::Semaphore>(engine, 1);
  MboxSlot req;
  req.client_node = c.node_;
  req.sq_device_addr = c.sq_win_.device_addr();
  req.cq_device_addr = c.cq_win_.device_addr();
  req.sq_size = c.cfg_.queue_entries;
  req.cq_size = c.cfg_.queue_entries;
  req.qos_class = static_cast<std::uint8_t>(c.cfg_.qos_class);
  req.qos_iops = c.cfg_.qos_iops;
  req.qos_bytes_per_s = c.cfg_.qos_bytes_per_s;
  if (c.cfg_.channels == 1) {
    req.op = static_cast<std::uint32_t>(MboxOp::create_qp);
  } else {
    req.op = static_cast<std::uint32_t>(MboxOp::create_qp_batch);
    req.qp_count = static_cast<std::uint16_t>(c.cfg_.channels);
    req.sq_stride = static_cast<std::uint32_t>(sq_ring_bytes);
    req.cq_stride = static_cast<std::uint32_t>(cq_ring_bytes);
  }
  auto resp = co_await c.mailbox_call(req);
  if (!resp) {
    promise.set(resp.status());
    co_return;
  }
  if (resp->status != static_cast<std::uint32_t>(Errc::ok)) {
    promise.set(Status(static_cast<Errc>(resp->status), "manager rejected create_qp"));
    co_return;
  }
  c.qids_.resize(c.cfg_.channels);
  if (c.cfg_.channels == 1) {
    c.qids_[0] = resp->qid_out;
  } else {
    for (std::uint32_t ch = 0; ch < c.cfg_.channels; ++ch) c.qids_[ch] = resp->qids[ch];
  }
  // The granted budgets (possibly clamped below what we asked) arm the
  // engine's token-bucket pacer; an uncapped grant leaves both rates zero
  // and the pacer disarmed, preserving the seed instruction stream.
  ec.qos_iops_limit = resp->qos_granted_iops;
  ec.qos_bytes_per_s = resp->qos_granted_bytes_per_s;

  // 8. CPU views of the rings: the SQ map is an NTB window when the SQ
  //    lives device-side; the CQ map is direct for local DRAM and an HDM
  //    address for a pooled CQ.
  auto sq_map = sisci::Map::create(cluster, c.node_, c.sq_seg_.descriptor());
  if (!sq_map) {
    promise.set(sq_map.status());
    co_return;
  }
  c.sq_cpu_map_ = std::move(*sq_map);
  auto cq_map = sisci::Map::create(cluster, c.node_, c.cq_seg_.descriptor());
  if (!cq_map) {
    promise.set(cq_map.status());
    co_return;
  }
  c.cq_cpu_map_ = std::move(*cq_map);

  c.qps_.resize(c.cfg_.channels);
  for (std::uint32_t ch = 0; ch < c.cfg_.channels; ++ch) {
    c.qps_[ch] = c.make_queue_pair(ch, c.qids_[ch]);
  }

  c.max_transfer_ = c.header_.max_transfer_bytes;
  if (c.cfg_.data_path == DataPath::bounce_buffer) {
    c.max_transfer_ = std::min(c.max_transfer_, c.cfg_.slot_bytes);
  }
  c.poller_kick_ = std::make_unique<sim::Event>(engine);
  // The private-base conversion must happen here, where Client's bases are
  // accessible (make_unique's internals cannot see it).
  block::IoTransport& transport = c;
  c.engine_io_ = std::make_unique<block::IoEngine>(engine, transport, c.stop_, ec);
  if (c.cfg_.pi_verify) {
    c.engine_io_->enable_pi(fabric.host_dram(c.node_), c.header_.block_size);
  }
  c.name_ = "nvsh-n" + std::to_string(c.node_) + "-q" + std::to_string(c.qids_[0]);
  if (c.cfg_.channels > 1) c.name_ += "x" + std::to_string(c.cfg_.channels);
  c.attached_ = true;
  c.poller(c.stop_);
  auto cq_watch = fabric.watch_writes(c.node_, c.cq_cpu_map_.addr(),
                                      cq_ring_bytes * c.cfg_.channels, *c.poll_timer_);
  if (!cq_watch) {
    c.halt();
    promise.set(cq_watch.status());
    co_return;
  }
  c.cq_watch_ = std::move(*cq_watch);
  if (c.cfg_.heartbeat_interval_ns > 0) c.heartbeat_task(c.stop_);
  if (fault::enabled()) {
    Client* raw = self.get();
    c.crash_token_ = fault::Injector::global().register_crash_handler(
        c.node_, [raw]() { raw->crash(); });
  }

  NVS_LOG(info, "client") << c.name_ << " attached (sq "
                          << (c.cfg_.sq_placement == SqPlacement::device_side ? "device-side"
                                                                              : "host-side")
                          << ", " << (c.cfg_.data_path == DataPath::bounce_buffer
                                          ? "bounce buffer"
                                          : "iommu")
                          << ")";
  promise.set(std::move(self));
}

// --- mailbox RPC ------------------------------------------------------------------

sim::Future<Result<MboxSlot>> Client::mailbox_call(MboxSlot request) {
  sim::Promise<Result<MboxSlot>> promise(engine());
  mailbox_call_task(request, promise);
  return promise.future();
}

// One attempt posts the request, polls the state word until the manager
// flips it to done, reads the full slot back and frees it. With the retry
// knob off that is the whole story (the seed instruction stream); with it
// on, a timed-out or transport-failed attempt backs off exponentially,
// follows a possible manager takeover (the metadata registration moves to
// the standby's fresh segment) and re-posts. Duplicate grants from a
// re-post the old manager already served are safe: the manager reclaims a
// same-client grant whose SQ address overlaps before creating the new one.
sim::Task Client::mailbox_call_task(MboxSlot request, sim::Promise<Result<MboxSlot>> promise) {
  sim::Engine& eng = engine();
  fabric::Substrate& fab = fabric();
  const pcie::Initiator cpu = fab.cpu(node_);
  co_await mailbox_lock_->acquire();

  const std::uint32_t attempts = std::max<std::uint32_t>(cfg_.mailbox_retry_limit, 1);
  Status last = Status(Errc::timed_out, "manager did not answer mailbox request");
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.mailbox_retries;
      co_await sim::delay(eng, block::IoEngine::backoff_ns(cfg_.mailbox_retry_backoff_ns,
                                                           attempt, cfg_.retry_backoff_max_ns));
      if (*stop_ || crashed_) {
        last = Status(Errc::aborted, "client stopped during mailbox retry");
        break;
      }
      if (Status st = co_await refresh_manager(); !st) {
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
      co_await sim::delay(eng, cfg_.mailbox_poll_ns);
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
    promise.set(response);
    co_return;
  }
  mailbox_lock_->release();
  promise.set(last);
}

sim::Future<Status> Client::refresh_manager() {
  sim::Promise<Status> promise(engine());
  refresh_manager_task(promise);
  return promise.future();
}

// Follow a manager takeover: SmartIO's metadata registration is the source
// of truth for who serves the device. When it moved, connect and map the
// successor's segment, validate its header, re-learn the lease epoch, and
// recompute this node's mailbox slot address. Heartbeats and retried
// mailbox calls then land in the new manager's segment; nothing about the
// established queue pairs changes (the takeover adopted them).
sim::Task Client::refresh_manager_task(sim::Promise<Status> promise) {
  fabric::Substrate& fab = fabric();
  sisci::Cluster& cluster = service_.cluster();
  const pcie::Initiator cpu = fab.cpu(node_);

  auto loc = service_.device_metadata(device_id_);
  if (!loc) {
    promise.set(Status(Errc::unavailable, "device has no manager metadata registered"));
    co_return;
  }
  if (*loc == meta_loc_) {
    promise.set(Status::ok());  // nothing moved; the current mapping stands
    co_return;
  }
  auto remote = cluster.connect(loc->first, loc->second);
  if (!remote) {
    promise.set(remote.status());
    co_return;
  }
  auto map = sisci::Map::create(cluster, node_, *remote);
  if (!map) {
    promise.set(map.status());
    co_return;
  }
  auto hdr = co_await fab.read(cpu, map->addr(), sizeof(MetadataHeader));
  if (!hdr) {
    promise.set(hdr.status());
    co_return;
  }
  const MetadataHeader header = load_pod<MetadataHeader>(*hdr);
  if (header.magic != kMetadataMagic || header.version != kMetadataVersion) {
    promise.set(Status(Errc::protocol_error, "successor metadata segment is malformed"));
    co_return;
  }
  if (node_ >= header.mailbox_slots) {
    promise.set(Status(Errc::out_of_range, "no mailbox slot for this node"));
    co_return;
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
  promise.set(Status::ok());
}

// --- data path -----------------------------------------------------------------------

sim::Future<block::Completion> Client::submit(const block::Request& request) {
  sim::Promise<block::Completion> promise(engine());
  io_task(request, promise, own_range_);
  return promise.future();
}

sim::Task Client::io_task(block::Request request, sim::Promise<block::Completion> promise,
                          nvme::CidRange range) {
  auto stop = stop_;
  sim::Engine& eng = engine();
  const sim::Time start = eng.now();
  obs::Tracer& tracer = obs::Tracer::global();
  const std::uint64_t trace =
      tracer.enabled() ? tracer.begin_trace(trace_kind(request.op), start) : 0;
  obs::PhaseMarker ph(tracer, trace, obs::Track::client, start);
  std::uint16_t span_qid = 0;  // the granted channel's qid, once known
  auto finish = [&](Status st) {
    if (!st) ++stats_.errors;
    const sim::Duration latency = eng.now() - start;
    if (st) {
      if (request.op == block::Op::read) {
        read_latency_hist_.record(static_cast<std::uint64_t>(latency));
      } else if (request.op == block::Op::write) {
        write_latency_hist_.record(static_cast<std::uint64_t>(latency));
      }
    }
    if (trace != 0) {
      // Tile any residual (IOMMU teardown, early error exit) so client-track
      // phase durations always sum to the end-to-end latency.
      if (eng.now() > ph.last()) ph.mark(obs::Phase::completion, eng.now(), span_qid);
      tracer.end_trace(trace, eng.now());
    }
    promise.set(block::Completion{std::move(st), latency});
  };

  if (Status st = block::validate_command_request(*this, request); !st) {
    finish(st);
    co_return;
  }
  // Bounce mode: the slot is the hard ceiling for any data-moving request —
  // an oversized payload would overrun the neighbouring partition and the
  // prewritten PRP list would hand the controller another request's pages.
  // The max_transfer clamp normally keeps such requests out; enforce the
  // invariant directly so it fails fast here even if the clamp is bypassed.
  if (cfg_.data_path == DataPath::bounce_buffer &&
      (request.op == block::Op::read || request.op == block::Op::write) &&
      static_cast<std::uint64_t>(request.nblocks) * header_.block_size > cfg_.slot_bytes) {
    finish(Status(Errc::invalid_argument, "request exceeds bounce slot size"));
    co_return;
  }
  const block::IoEngine::Grant grant = co_await engine_io_->acquire();
  if (*stop) {
    engine_io_->release(grant);
    finish(Status(Errc::aborted, "client detached"));
    co_return;
  }
  span_qid = qids_[grant.chan];
  const std::uint32_t slot = grant.slot;
  auto release_slot = [&]() { engine_io_->release(grant); };

  const std::uint64_t bytes =
      static_cast<std::uint64_t>(request.nblocks) * header_.block_size;
  const bool is_write = request.op == block::Op::write;

  // Driver submission-path software cost.
  co_await sim::delay(eng, cfg_.costs.jittered(cfg_.costs.submit_ns, rng_));
  ph.mark(obs::Phase::submit, eng.now(), span_qid);
  if (*stop) {
    release_slot();
    finish(Status(Errc::aborted, "client detached"));
    co_return;
  }

  // pi_verify bookkeeping: generate shadow tuples for a write's user buffer
  // before any copy (everything downstream is covered), drop them on
  // deallocation. No-op unless the engine's PI table is armed.
  engine_io_->pi_note_submit(request);

  nvme::PrpPair prp;
  fabric::Window dynamic_map;  // IOMMU mode: torn down after completion
  bool iommu_mapped = false;
  const std::uint64_t slot_base =
      static_cast<std::uint64_t>(slot) * cfg_.slot_bytes;  // offset within bounce segment
  // This slot's descriptor page: a PRP list or a discard range.
  const std::uint64_t slot_page = static_cast<std::uint64_t>(slot) * nvme::kPageSize;

  if (request.op == block::Op::flush || request.op == block::Op::write_zeroes) {
    // no data pointer
  } else if (request.op == block::Op::discard) {
    // The range descriptor is the command's payload. In bounce mode it
    // rides in the request's bounce slot (the prewritten PRP lists must
    // stay intact); in IOMMU mode it uses the slot's descriptor page,
    // which is rewritten per request anyway.
    nvme::DsmRange range;
    range.nlb = request.nblocks;
    range.slba = request.lba;
    if (cfg_.data_path == DataPath::bounce_buffer) {
      (void)bounce_seg_.write(slot_base, as_bytes_of(range));
      prp.prp1 = bounce_win_.device_addr() + slot_base;
    } else {
      (void)prp_seg_.write(slot_page, as_bytes_of(range));
      prp.prp1 = prp_win_.device_addr() + slot_page;
    }
  } else if (cfg_.data_path == DataPath::bounce_buffer) {
    if (is_write) {
      // The extra copy on the submission path (Section V).
      if (Status st = copy_to_bounce(slot_base, request.buffer_addr, bytes); !st) {
        release_slot();
        finish(st);
        co_return;
      }
      ++stats_.bounce_copies;
      stats_.bounce_copy_bytes += bytes;
      co_await sim::delay(eng, cfg_.costs.memcpy_ns(bytes) +
                                   fabric().copy_cost_ns(bounce_seg_.node(), bytes));
      ph.mark(obs::Phase::bounce_copy, eng.now(), span_qid);
    }
    // The slot's PRP list was prewritten at attach.
    prp = nvme::make_prps(bounce_win_.device_addr() + slot_base, bytes,
                          prp_win_.device_addr() + slot_page);
  } else {
    // IOMMU mode: map the request buffer dynamically; no copy.
    const std::uint64_t map_base = align_down(request.buffer_addr, nvme::kPageSize);
    const std::uint64_t map_span =
        align_up(request.buffer_addr + bytes, nvme::kPageSize) - map_base;
    auto cost = iommu_.map(map_base, map_base, map_span);
    if (!cost) {
      release_slot();
      finish(cost.status());
      co_return;
    }
    ++stats_.iommu_maps;
    co_await sim::delay(eng, *cost);

    std::uint64_t mapped_base = map_base;  // device == client host: direct
    auto dev = ref_.info();
    if (dev && dev->host != node_) {
      // Viewed from the device's host: a device-side NTB window on the NTB
      // substrate; unsupported on the CXL pool (private DRAM is unreachable
      // — pooled bounce buffers are the supported data path there).
      auto mapping = fabric().map_window(fabric::MapIntent::dma, dev->host, node_,
                                         map_base, map_span);
      if (!mapping) {
        (void)iommu_.unmap(map_base);
        release_slot();
        finish(mapping.status());
        co_return;
      }
      dynamic_map = std::move(*mapping);
      mapped_base = dynamic_map.addr();
    }
    iommu_mapped = true;
    const std::uint64_t device_addr = mapped_base + (request.buffer_addr - map_base);
    prp = nvme::make_prps(device_addr, bytes, prp_win_.device_addr() + slot_page);
    if (const std::uint64_t n = nvme::prp_list_bytes(device_addr, bytes); n > 0) {
      // Write this request's PRP list into the slot's descriptor page.
      Bytes list(n);
      nvme::fill_prp_list(device_addr, bytes, list);
      (void)prp_seg_.write(slot_page, list);
    }
  }

  // Build and post the SQE (a posted write into SQ memory: local store for
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
  const SubmissionEntry sqe =
      nvme::make_io(block::nvme_opcode(request.op), 1, request.lba,
                    static_cast<std::uint16_t>(request.nblocks), prp.prp1, prp.prp2, prinfo);
  if (request.op == block::Op::read) {
    ++stats_.reads;
  } else if (request.op == block::Op::flush) {
    ++stats_.flushes;
  } else {
    ++stats_.writes;
  }
  // Submission and completion wait: the engine runs the command to a final
  // outcome (per-attempt deadline watchdog, bounded exponential-backoff
  // retries, one queue-pair recovery cycle before giving up), ringing this
  // channel's doorbell once per submission burst when coalescing is on.
  IssueCtx issue_ctx{sqe, range};
  block::IoEngine::RunArgs run_args;
  run_args.grant = grant;
  run_args.cookie = &issue_ctx;
  run_args.ph = &ph;
  run_args.trace = trace;
  run_args.bytes = bytes;
  std::uint32_t verify_attempts = 0;
  Status status = Status::ok();
  bool completed = false;
  for (;;) {
    const block::CmdOutcome outcome = co_await engine_io_->run(run_args);
    span_qid = qids_[grant.chan];  // recovery may have re-granted the qid
    status = block::outcome_status(outcome, "client detached");
    completed = outcome.completed();
    if (!completed) break;

    // Completion-path software cost.
    co_await sim::delay(eng, cfg_.costs.jittered(cfg_.costs.completion_ns, rng_));
    ph.mark(obs::Phase::completion, eng.now(), span_qid, outcome.token);

    if (status.ok() && request.op == block::Op::read &&
        cfg_.data_path == DataPath::bounce_buffer) {
      // The extra copy on the completion path (Section V).
      status = copy_from_bounce(request.buffer_addr, slot_base, bytes);
      ++stats_.bounce_copies;
      stats_.bounce_copy_bytes += bytes;
      co_await sim::delay(eng, cfg_.costs.memcpy_ns(bytes) +
                                   fabric().copy_cost_ns(bounce_seg_.node(), bytes));
      ph.mark(obs::Phase::bounce_copy, eng.now(), span_qid, outcome.token);
    }

    // End-to-end check: verify the data that actually reached the user
    // buffer against the shadow tuples. Corruption anywhere on the return
    // path (DMA bit flip, torn delivery, stale read) lands here; a
    // resubmission re-reads intact media, so it gets the same bounded retry
    // as a check-error status.
    if (status.ok() && outcome.ok() && request.op == block::Op::read && cfg_.pi_verify &&
        !engine_io_->pi_check_read(request)) {
      ++integrity::stats().client_verify_failures;
      if (cfg_.cmd_timeout_ns > 0 && verify_attempts < cfg_.cmd_retry_limit) {
        ++verify_attempts;
        ++stats_.cmd_retries;
        co_await sim::delay(
            eng, block::IoEngine::backoff_ns(cfg_.retry_backoff_ns, verify_attempts,
                                             cfg_.retry_backoff_max_ns));
        ph.mark(obs::Phase::recovery, eng.now(), span_qid);
        continue;  // resubmit with a fresh retry budget
      }
      status = Status(Errc::io_error, "read data failed protection-information verify");
    }
    break;
  }

  // The one exit path once the command was issued. The IOMMU teardown is
  // charged only after a genuine completion; a failed or aborted command
  // drops its mapping without waiting.
  if (iommu_mapped) {
    auto cost = iommu_.unmap(align_down(request.buffer_addr, nvme::kPageSize));
    if (cost && completed) co_await sim::delay(eng, *cost);
    dynamic_map.release();
  }
  release_slot();
  finish(std::move(status));
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
          sim::Promise<block::Completion> p(engine());
          io_task(r, p, range);
          return p.future();
        },
        stop_, mc);
  }
  return *mux_;
}

sim::Future<Result<mux::ShareGrant>> Client::create_share(const ShareRequest& request) {
  sim::Promise<Result<mux::ShareGrant>> promise(engine());
  create_share_task(request, promise);
  return promise.future();
}

sim::Future<Status> Client::delete_share(std::uint32_t tenant) {
  sim::Promise<Status> promise(engine());
  delete_share_task(tenant, promise);
  return promise.future();
}

sim::Task Client::create_share_task(ShareRequest request,
                                    sim::Promise<Result<mux::ShareGrant>> promise) {
  if (!attached_) {
    promise.set(Status(Errc::unavailable, "not attached"));
    co_return;
  }
  if (cfg_.channels != 1) {
    promise.set(Status(Errc::unsupported, "tenant shares need a single-channel client"));
    co_return;
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
  auto resp = co_await mailbox_call(req);
  if (!resp) {
    promise.set(resp.status());
    co_return;
  }
  if (resp->status != static_cast<std::uint32_t>(Errc::ok)) {
    promise.set(Status(static_cast<Errc>(resp->status), "manager rejected create_share"));
    co_return;
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
    if (Status st = m.detach_tenant(request.tenant); !st) {
      promise.set(st);
      co_return;
    }
  }
  if (Status st = m.attach_tenant(grant); !st) {
    promise.set(st);
    co_return;
  }
  // From here on the client's own submissions stay below the share floor,
  // so they can never collide with a tenant's window.
  own_range_ = nvme::CidRange{0, floor};
  promise.set(grant);
}

sim::Task Client::delete_share_task(std::uint32_t tenant, sim::Promise<Status> promise) {
  if (mux_ == nullptr || mux_->grant(tenant) == nullptr) {
    promise.set(Status(Errc::not_found, "no share for this tenant"));
    co_return;
  }
  if (Status st = mux_->detach_tenant(tenant); !st) {
    promise.set(st);  // busy: staged or in-flight commands
    co_return;
  }
  MboxSlot req;
  req.op = static_cast<std::uint32_t>(MboxOp::delete_share);
  req.qid_in = qids_[0];
  req.share_tenant = tenant;
  auto resp = co_await mailbox_call(req);
  if (!resp) {
    promise.set(resp.status());
    co_return;
  }
  if (resp->status != static_cast<std::uint32_t>(Errc::ok)) {
    promise.set(Status(static_cast<Errc>(resp->status), "manager rejected delete_share"));
    co_return;
  }
  promise.set(Status::ok());
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
    std::array<nvme::CompletionEntry, 32> cqes;
    for (std::uint32_t chan = 0; chan < cfg_.channels; ++chan) {
      bool delivered = false;
      for (;;) {
        const std::size_t n = qps_[chan]->reap(cqes);
        for (std::size_t i = 0; i < n; ++i) {
          if (!engine_io_->complete(chan, cqes[i].cid, cqes[i].status())) {
            // Expected under fault injection: the command timed out and was
            // retried, and this is the original submission completing late.
            NVS_LOG(warn, "client") << name_ << " completion for unknown cid " << cqes[i].cid;
          }
        }
        if (n > 0) delivered = true;
        if (n < cqes.size()) break;
      }
      if (delivered) (void)qps_[chan]->ring_cq_doorbell();
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
  del.op = static_cast<std::uint32_t>(MboxOp::delete_qp);
  del.qid_in = old_qid;
  (void)co_await mailbox_call(del);
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
  req.op = static_cast<std::uint32_t>(MboxOp::create_qp);
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
    auto resp = co_await mailbox_call(req);
    if (*stop || crashed_) break;
    if (resp && resp->status == static_cast<std::uint32_t>(Errc::ok)) {
      qids_[chan] = resp->qid_out;
      created = true;
      break;
    }
    co_await sim::delay(eng, block::IoEngine::backoff_ns(cfg_.retry_backoff_ns,
                                                         static_cast<std::uint32_t>(attempt) + 1,
                                                         cfg_.retry_backoff_max_ns));
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

  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    const std::uint64_t t = tracer.begin_trace(obs::Kind::other, begin);
    tracer.record(t, obs::Track::client, obs::Phase::recovery, begin, eng.now(), qids_[chan]);
    tracer.end_trace(t, eng.now());
  }
  engine_io_->finish_recovery(chan);
}

// Liveness heartbeat (docs/faults.md): a posted write of the local sim
// clock into this node's mailbox slot. Lost beats (downed link) are fine —
// the manager's reaper tolerates staleness up to its timeout.
sim::Task Client::heartbeat_task(std::shared_ptr<bool> stop) {
  sim::Engine& eng = engine();
  fabric::Substrate& fab = fabric();
  const pcie::Initiator cpu = fab.cpu(node_);
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
        (void)co_await refresh_manager();
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

sim::Future<Status> Client::detach() {
  sim::Promise<Status> promise(engine());
  detach_task(promise);
  return promise.future();
}

sim::Task Client::detach_task(sim::Promise<Status> promise) {
  if (!attached_) {
    promise.set(Status(Errc::unavailable, "not attached"));
    co_return;
  }
  attached_ = false;
  MboxSlot req;
  if (cfg_.channels == 1) {
    req.op = static_cast<std::uint32_t>(MboxOp::delete_qp);
    req.qid_in = qids_[0];
  } else {
    req.op = static_cast<std::uint32_t>(MboxOp::delete_qp_batch);
    req.qp_count = static_cast<std::uint16_t>(cfg_.channels);
    for (std::uint32_t ch = 0; ch < cfg_.channels; ++ch) req.qids[ch] = qids_[ch];
  }
  auto resp = co_await mailbox_call(req);
  halt();  // stop poller after the RPC (it uses the fabric, not the QP)
  if (mux_) mux_->kick();  // parked tenant scheduler drains its rings as aborted
  if (!resp) {
    promise.set(resp.status());
    co_return;
  }
  if (resp->status != static_cast<std::uint32_t>(Errc::ok)) {
    promise.set(Status(static_cast<Errc>(resp->status), "manager rejected delete_qp"));
    co_return;
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
  promise.set(Status::ok());
}

}  // namespace nvmeshare::driver
