// Wire format of the manager's metadata segment (Section V): a header that
// tells clients the device is managed and how to contact the manager, plus
// one mailbox slot per cluster node for queue-pair RPC.
//
// The protocol is deliberately primitive — plain shared memory, no doorbell
// hardware: the client fills its slot and flips `state` to `request` with a
// posted write over the NTB; the manager polls its local memory, performs
// the privileged admin commands, writes the response, and flips `state` to
// `done`; the client polls `state` with (timed) remote reads.
#pragma once

#include <cstdint>

namespace nvmeshare::driver {

inline constexpr std::uint64_t kMetadataMagic = 0x31415445'4d53564eULL;  // "NVSMETA1"
// v2: MboxSlot grew the heartbeat_ns liveness field (carved from padding,
// so the layout of everything v1 defined is unchanged).
// v3: batch queue-pair grants (create_qp_batch / delete_qp_batch) for
// multi-channel clients: qp_count, per-channel base-address strides, and a
// qid list, all carved from padding — single-QP ops are layout-unchanged.
// v4: QoS grants. create_qp[_batch] carries a requested priority class and
// IOPS / bandwidth budget; the manager validates them against the policy
// table published in the metadata segment (kQosPolicyOffset) and echoes the
// granted values back. All fields are carved from pad2, so v1-v3 layouts
// are unchanged — but the semantics of a grant differ, hence the bump.
// v5: manager high availability. The reserved header area gains a
// ManagerLease (epoch + lease expiry, renewed by the active manager and
// watched by hot standbys), an AdminRingJournal (where the admin rings live
// and how far they have advanced, so a standby can adopt them without a
// controller reset), and a per-qid owner table written ahead of every grant
// (so a standby can reconstruct grant/QoS state and roll back half-done
// creates). MboxSlot carves `epoch` from pad6 so responses are fenceable.
// v6: tenant shares. create_share / delete_share let a client subdivide a
// queue pair it owns into per-tenant CID sub-ranges the manager allocates
// (first-fit above the owner's reserved floor) and tracks, with per-share
// QoS judged by the same policy table as whole-pair grants. The share
// fields are carved from pad0/pad1/pad3/pad4/pad5, so v1-v5 layouts are
// unchanged.
inline constexpr std::uint32_t kMetadataVersion = 6;

/// Most queue pairs one batch request can grant or revoke (the qid list
/// must fit the fixed 128-byte slot).
inline constexpr std::uint32_t kMaxBatchQps = 16;

/// Fixed header at offset 0 of the metadata segment.
struct MetadataHeader {
  std::uint64_t magic = kMetadataMagic;
  std::uint32_t version = kMetadataVersion;
  std::uint32_t manager_node = 0;
  std::uint64_t device_id = 0;
  std::uint64_t capacity_blocks = 0;
  std::uint32_t block_size = 0;
  std::uint32_t max_transfer_bytes = 0;
  std::uint16_t max_queue_pairs = 0;     ///< controller ceiling, incl. admin
  std::uint16_t granted_io_queues = 0;   ///< Set Features result
  std::uint32_t mailbox_slots = 0;
  std::uint32_t mailbox_offset = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(MetadataHeader) == 56);

enum class MboxState : std::uint32_t {
  free = 0,
  request = 1,  ///< written by the client after the payload
  done = 2,     ///< written by the manager after the response payload
};

enum class MboxOp : std::uint32_t {
  none = 0,
  /// create_qp_batch with qp_count = 1 (kept for v1 requesters).
  create_qp = 1,
  /// delete_qp_batch of the one qid in qid_in (kept for v1 requesters).
  delete_qp = 2,
  ping = 3,
  /// Grant qp_count queue pairs in one request: channel c's SQ lives at
  /// sq_device_addr + c * sq_stride (CQ likewise); the granted ids come
  /// back in qids[] (not necessarily contiguous — other clients' grants
  /// interleave). All-or-nothing: a mid-batch failure rolls back.
  create_qp_batch = 4,
  /// Revoke the qp_count queue pairs listed in qids[] (best effort: every
  /// owned qid is attempted, the first failure is reported).
  delete_qp_batch = 5,
  /// Grant a tenant share of qid_in (v6): a disjoint CID sub-range of
  /// share_cid_count identifiers placed first-fit in
  /// [share_cid_floor, sq_size), plus a QoS grant judged like create_qp's.
  /// The range comes back in share_cid_lo/hi. Idempotent per tenant: a
  /// re-request for an already-shared tenant releases the old range first.
  create_share = 6,
  /// Release tenant share_tenant's share of qid_in (v6).
  delete_share = 7,
};

/// One mailbox slot (one per cluster node, indexed by the client's NodeId,
/// so no two clients ever contend for a slot). The manager refuses a
/// request whose client_node is not the slot's index.
struct MboxSlot {
  std::uint32_t state = 0;  ///< MboxState
  std::uint32_t op = 0;     ///< MboxOp
  std::uint32_t client_node = 0;
  /// in (v6): tenant id the share belongs to (create_share / delete_share).
  /// Was pad0.
  std::uint32_t share_tenant = 0;

  // create_qp request payload: device-visible queue memory addresses (the
  // client resolves these through SmartIO DMA windows before asking).
  std::uint64_t sq_device_addr = 0;
  std::uint64_t cq_device_addr = 0;
  std::uint16_t sq_size = 0;
  std::uint16_t cq_size = 0;
  // delete_qp request payload (create_share / delete_share also name their
  // queue pair here).
  std::uint16_t qid_in = 0;
  /// in (v6): CIDs requested for the share (create_share). Was pad1.
  std::uint16_t share_cid_count = 0;

  // Response payload.
  std::uint32_t status = 0;  ///< 0 = ok, else an Errc value
  std::uint16_t qid_out = 0;
  std::uint16_t nvme_status = 0;  ///< raw NVMe status field when status != 0

  /// Liveness: the client posts its sim-clock here every heartbeat
  /// interval; the manager's reaper treats a stale value as a dead client
  /// and deletes its orphaned queue pair. 0 = client never heartbeated.
  std::uint64_t heartbeat_ns = 0;

  // Batch payload (create_qp_batch / delete_qp_batch), v3.
  std::uint16_t qp_count = 0;   ///< in: channels requested (1..kMaxBatchQps)
  /// in (v6): lowest CID a share may occupy — the owner keeps [0, floor)
  /// for its own traffic (create_share). Was pad3.
  std::uint16_t share_cid_floor = 0;
  std::uint32_t sq_stride = 0;  ///< in: bytes between consecutive SQ bases
  std::uint32_t cq_stride = 0;  ///< in: bytes between consecutive CQ bases
  /// out (v6): granted CID sub-range [lo, hi) (create_share). Was pad4.
  std::uint16_t share_cid_lo = 0;
  std::uint16_t share_cid_hi = 0;
  std::uint16_t qids[kMaxBatchQps] = {};  ///< out (create) / in (delete)

  // QoS grant payload (create_qp / create_qp_batch), v4. The request names
  // a priority class (nvme::SqPriority value) and rate budgets (0 = ask for
  // the class default); the response echoes what the policy table actually
  // granted — classes may be demoted and budgets clamped.
  std::uint8_t qos_class = 0;          ///< in: requested SqPriority
  std::uint8_t qos_granted_class = 0;  ///< out: class the manager granted
  /// in (v6): DRR weight the tenant's share carries (create_share; 0 is
  /// treated as 1). Was pad5.
  std::uint16_t share_weight = 0;
  std::uint32_t qos_iops = 0;             ///< in: requested IOPS budget
  std::uint32_t qos_bytes_per_s = 0;      ///< in: requested bytes/s budget
  std::uint32_t qos_granted_iops = 0;     ///< out: granted IOPS (0 = unpaced)
  std::uint32_t qos_granted_bytes_per_s = 0;  ///< out: granted bytes/s

  /// out (v5): epoch of the manager that served this response. A client with
  /// retries enabled rejects responses from an epoch older than the lease it
  /// last read — a fenced manager cannot confirm grants. Keeps the slot a
  /// cache-line multiple (was pad6).
  std::uint32_t epoch = 0;
};
static_assert(sizeof(MboxSlot) == 128);

/// Cluster-wide QoS policy for one priority class, published by the manager
/// so clients can see what a grant request will be judged against.
struct QosPolicyEntry {
  std::uint8_t allowed = 1;  ///< 0: requests for this class are rejected
  std::uint8_t pad[3] = {};
  std::uint32_t max_iops = 0;        ///< per-client IOPS cap; 0 = unlimited
  std::uint32_t max_bytes_per_s = 0; ///< per-client bytes/s cap; 0 = unlimited
  std::uint32_t reserved = 0;
};
static_assert(sizeof(QosPolicyEntry) == 16);

/// The policy table, one entry per SqPriority class (urgent..low), written
/// at kQosPolicyOffset in the metadata segment (v4).
struct QosPolicyTable {
  QosPolicyEntry classes[4] = {};
};
static_assert(sizeof(QosPolicyTable) == 64);

/// Byte offset of the QoS policy table: right after the fixed header,
/// inside the 4096-byte reserved area that precedes the mailbox slots.
inline constexpr std::uint64_t kQosPolicyOffset = 64;

/// ManagerLease::state values.
enum class LeaseState : std::uint32_t {
  none = 0,      ///< manager does not publish leases (lease_duration_ns = 0)
  active = 1,    ///< epoch holder is serving and renewing
  claiming = 2,  ///< a standby has claimed the next epoch and is taking over
};

/// Manager liveness lease (v5), at kLeaseOffset. The active manager renews
/// `expires_at_ns` every lease_duration/4; a standby that reads a lease past
/// its expiry claims `epoch + 1` by writing this slot (node-staggered, so
/// concurrent standbys resolve deterministically). epoch 0 means the device
/// was brought up without HA — standbys refuse to watch it.
struct ManagerLease {
  std::uint64_t epoch = 0;
  std::uint64_t expires_at_ns = 0;  ///< sim time the lease lapses
  std::uint32_t manager_node = 0;   ///< current (or claiming) epoch holder
  std::uint32_t state = 0;          ///< LeaseState
};
static_assert(sizeof(ManagerLease) == 24);

inline constexpr std::uint64_t kLeaseOffset = 128;

/// Where the admin rings live and how far they have advanced (v5), at
/// kAdminJournalOffset. AQA/ASQ/ACQ are latched at CC.EN — rebuilding them
/// would require a controller reset that kills every I/O queue — so a
/// standby must *continue* the old rings. The active manager journals the
/// ring cursors right after pushing an SQE (before the doorbell) and after
/// consuming each completion; the journal is local memory, so the writes
/// cost nothing on the admin path.
struct AdminRingJournal {
  std::uint32_t asq_node = 0;     ///< host whose DRAM holds the ASQ
  std::uint32_t asq_segment = 0;  ///< sisci segment id of the ASQ
  std::uint32_t acq_node = 0;
  std::uint32_t acq_segment = 0;
  std::uint16_t entries = 0;  ///< ring size (AQA programs both rings alike)
  std::uint16_t sq_tail = 0;
  std::uint16_t cq_head = 0;
  std::uint16_t next_cid = 0;
  std::uint32_t phase = 1;  ///< expected CQ phase tag (0/1)
  std::uint32_t pad = 0;
};
static_assert(sizeof(AdminRingJournal) == 32);

inline constexpr std::uint64_t kAdminJournalOffset = 160;

/// QpOwnerEntry::state values. `pending` is a write-ahead intent: it is
/// written before the admin create commands are issued and flipped to
/// `active` only after both succeed, so a takeover can roll back grants the
/// old manager died in the middle of.
enum class QpOwnerState : std::uint32_t {
  free = 0,
  pending = 1,
  active = 2,
};

/// One per-qid grant record (v5), at kOwnerTableOffset + qid * sizeof. The
/// manager mirrors its private grant bookkeeping here on every transition;
/// a standby reconstructs qid ownership, QoS grants, and reaper state by
/// scanning this table — no new source of truth, just the existing one made
/// crash-readable.
struct QpOwnerEntry {
  std::uint32_t state = 0;  ///< QpOwnerState
  std::uint32_t owner_node = 0;
  std::uint64_t sq_device_addr = 0;
  std::uint64_t cq_device_addr = 0;
  std::uint64_t created_at_ns = 0;  ///< grant time (reaper grace anchor)
  std::uint16_t sq_size = 0;
  std::uint16_t cq_size = 0;
  std::uint8_t qos_class = 0;  ///< granted SqPriority
  std::uint8_t pad0 = 0;
  std::uint16_t pad1 = 0;
  std::uint32_t granted_iops = 0;
  std::uint32_t granted_bytes_per_s = 0;
};
static_assert(sizeof(QpOwnerEntry) == 48);

/// Owner-table capacity: the controller ceiling on queue pairs (31 I/O
/// queues + admin), rounded to a power of two.
inline constexpr std::uint32_t kOwnerTableEntries = 32;

inline constexpr std::uint64_t kOwnerTableOffset = 256;
static_assert(kOwnerTableOffset + kOwnerTableEntries * sizeof(QpOwnerEntry) <= 4096,
              "owner table must fit the reserved header area");

/// Byte offset of qid `q`'s owner entry within the metadata segment.
constexpr std::uint64_t owner_entry_offset(std::uint16_t q) {
  return kOwnerTableOffset + static_cast<std::uint64_t>(q) * sizeof(QpOwnerEntry);
}

/// Byte offset of node `n`'s slot within the metadata segment.
constexpr std::uint64_t mbox_slot_offset(const MetadataHeader& h, std::uint32_t node) {
  return h.mailbox_offset + static_cast<std::uint64_t>(node) * sizeof(MboxSlot);
}

/// Total metadata segment size for an `n`-node cluster.
constexpr std::uint64_t metadata_segment_size(std::uint32_t nodes) {
  return 4096 + static_cast<std::uint64_t>(nodes) * sizeof(MboxSlot);
}

}  // namespace nvmeshare::driver
