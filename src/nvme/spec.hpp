// NVMe 1.3/1.4 wire-format structures and constants (the subset the paper's
// stack exercises): submission/completion entries, admin and I/O opcodes,
// status codes, controller registers, and identify data layouts.
//
// All multi-byte fields are little-endian; the simulator runs on
// little-endian hosts only (static_asserted in spec.cpp).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace nvmeshare::nvme {

// --- queue entries ---------------------------------------------------------

/// 64-byte Submission Queue Entry (common command format).
struct SubmissionEntry {
  std::uint8_t opcode = 0;   // CDW0[7:0]
  std::uint8_t flags = 0;    // CDW0[15:8]: FUSE, PSDT
  std::uint16_t cid = 0;     // CDW0[31:16] command identifier
  std::uint32_t nsid = 0;    // CDW1
  std::uint32_t cdw2 = 0;
  std::uint32_t cdw3 = 0;
  std::uint64_t mptr = 0;    // metadata pointer
  std::uint64_t prp1 = 0;    // data pointer
  std::uint64_t prp2 = 0;
  std::uint32_t cdw10 = 0;
  std::uint32_t cdw11 = 0;
  std::uint32_t cdw12 = 0;
  std::uint32_t cdw13 = 0;
  std::uint32_t cdw14 = 0;
  std::uint32_t cdw15 = 0;
};
static_assert(sizeof(SubmissionEntry) == 64);

/// 16-byte Completion Queue Entry.
struct CompletionEntry {
  std::uint32_t dw0 = 0;          // command specific
  std::uint32_t dw1 = 0;          // reserved
  std::uint16_t sq_head = 0;      // DW2[15:0]
  std::uint16_t sqid = 0;         // DW2[31:16]
  std::uint16_t cid = 0;          // DW3[15:0]
  std::uint16_t status_phase = 0; // DW3[16] = phase tag, DW3[31:17] = status

  [[nodiscard]] bool phase() const noexcept { return (status_phase & 1u) != 0; }
  void set_phase(bool p) noexcept {
    status_phase = static_cast<std::uint16_t>((status_phase & ~1u) | (p ? 1u : 0u));
  }
  /// 15-bit status field (0 = success).
  [[nodiscard]] std::uint16_t status() const noexcept {
    return static_cast<std::uint16_t>(status_phase >> 1);
  }
  [[nodiscard]] bool ok() const noexcept { return status() == 0; }
};
static_assert(sizeof(CompletionEntry) == 16);

// --- status codes ------------------------------------------------------------

/// Status Code Type (SCT) values.
enum class Sct : std::uint16_t {
  generic = 0x0,
  command_specific = 0x1,
  media_error = 0x2,
};

/// Build the 15-bit status field from SCT and SC.
constexpr std::uint16_t make_status(Sct sct, std::uint8_t sc) {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(sct) << 8) | sc);
}

// Generic status codes (SCT 0).
inline constexpr std::uint16_t kScSuccess = make_status(Sct::generic, 0x00);
inline constexpr std::uint16_t kScInvalidOpcode = make_status(Sct::generic, 0x01);
inline constexpr std::uint16_t kScInvalidField = make_status(Sct::generic, 0x02);
inline constexpr std::uint16_t kScDataTransferError = make_status(Sct::generic, 0x04);
inline constexpr std::uint16_t kScInternalError = make_status(Sct::generic, 0x06);
inline constexpr std::uint16_t kScAbortRequested = make_status(Sct::generic, 0x07);
inline constexpr std::uint16_t kScInvalidNamespace = make_status(Sct::generic, 0x0B);
inline constexpr std::uint16_t kScLbaOutOfRange = make_status(Sct::generic, 0x80);
// Media and data integrity status codes (SCT 2).
inline constexpr std::uint16_t kScGuardCheckError = make_status(Sct::media_error, 0x82);
inline constexpr std::uint16_t kScAppTagCheckError = make_status(Sct::media_error, 0x83);
inline constexpr std::uint16_t kScRefTagCheckError = make_status(Sct::media_error, 0x84);
// Command-specific status codes (SCT 1).
inline constexpr std::uint16_t kScInvalidQueueId = make_status(Sct::command_specific, 0x01);
inline constexpr std::uint16_t kScInvalidQueueSize = make_status(Sct::command_specific, 0x02);
inline constexpr std::uint16_t kScInvalidInterruptVector =
    make_status(Sct::command_specific, 0x08);
inline constexpr std::uint16_t kScInvalidQueueDeletion =
    make_status(Sct::command_specific, 0x0C);
inline constexpr std::uint16_t kScFeatureNotSaveable = make_status(Sct::command_specific, 0x0D);

/// Human-readable status-field description for diagnostics.
const char* status_name(std::uint16_t status);

// --- opcodes -------------------------------------------------------------------

enum class AdminOpcode : std::uint8_t {
  delete_io_sq = 0x00,
  create_io_sq = 0x01,
  get_log_page = 0x02,
  delete_io_cq = 0x04,
  create_io_cq = 0x05,
  identify = 0x06,
  abort = 0x08,
  set_features = 0x09,
  get_features = 0x0A,
  async_event_request = 0x0C,
};

enum class IoOpcode : std::uint8_t {
  flush = 0x00,
  write = 0x01,
  read = 0x02,
  write_zeroes = 0x08,
  dataset_management = 0x09,
  /// Vendor-specific: verify stored protection info over an LBA range
  /// (CDW10/11 = SLBA, CDW12 = NLB0). Completes with the first check
  /// error found, reporting the mismatch count in DW0. Issued by the
  /// manager's background scrubber.
  vendor_scrub = 0xC0,
};

// --- end-to-end data protection (PRINFO, CDW12 bits 29:26) --------------------

/// PRACT: the controller generates PI on write / strips-checks on read.
inline constexpr std::uint32_t kPrinfoPract = 1u << 29;
/// PRCHK bits: which tuple fields the controller verifies.
inline constexpr std::uint32_t kPrinfoPrchkGuard = 1u << 28;
inline constexpr std::uint32_t kPrinfoPrchkApp = 1u << 27;
inline constexpr std::uint32_t kPrinfoPrchkRef = 1u << 26;
inline constexpr std::uint32_t kPrinfoMask =
    kPrinfoPract | kPrinfoPrchkGuard | kPrinfoPrchkApp | kPrinfoPrchkRef;

/// One Dataset Management range descriptor (the command's data payload is
/// an array of these).
struct DsmRange {
  std::uint32_t context_attributes = 0;
  std::uint32_t nlb = 0;  ///< number of blocks (1-based, unlike NLB in CDW12)
  std::uint64_t slba = 0;
};
static_assert(sizeof(DsmRange) == 16);

/// CDW11 attribute: ranges should be deallocated (TRIM).
inline constexpr std::uint32_t kDsmDeallocate = 1u << 2;

/// Identify CNS values.
enum class IdentifyCns : std::uint8_t {
  ns = 0x00,
  controller = 0x01,
  active_ns_list = 0x02,
};

/// Feature identifiers.
enum class FeatureId : std::uint8_t {
  arbitration = 0x01,
  power_management = 0x02,
  number_of_queues = 0x07,
  interrupt_coalescing = 0x08,
};

/// Log page identifiers.
enum class LogPageId : std::uint8_t {
  error_information = 0x01,
  smart_health = 0x02,
  firmware_slot = 0x03,
};

/// Fields of the SMART / Health Information log page (LID 02h) this model
/// populates, parsed back out for driver consumers.
struct SmartLog {
  std::uint8_t critical_warning = 0;
  std::uint16_t composite_temperature_k = 0;
  std::uint8_t available_spare_pct = 0;
  std::uint8_t percentage_used = 0;
  std::uint64_t data_units_read = 0;     ///< 1000 x 512-byte units
  std::uint64_t data_units_written = 0;
  std::uint64_t host_read_commands = 0;
  std::uint64_t host_write_commands = 0;
  std::uint64_t power_on_hours = 0;
};

/// Parse the 512-byte SMART log payload.
SmartLog parse_smart_log(ConstByteSpan data);
/// Build a Get Log Page command for `lid` reading `bytes` into prp1.
SubmissionEntry make_get_log_page(std::uint16_t cid, LogPageId lid, std::uint32_t bytes,
                                  std::uint64_t prp1);

// --- controller registers ----------------------------------------------------------

namespace reg {
inline constexpr std::uint64_t kCap = 0x00;    // 8 bytes
inline constexpr std::uint64_t kVs = 0x08;     // 4
inline constexpr std::uint64_t kIntms = 0x0C;  // 4
inline constexpr std::uint64_t kIntmc = 0x10;  // 4
inline constexpr std::uint64_t kCc = 0x14;     // 4
inline constexpr std::uint64_t kCsts = 0x1C;   // 4
inline constexpr std::uint64_t kAqa = 0x24;    // 4
inline constexpr std::uint64_t kAsq = 0x28;    // 8
inline constexpr std::uint64_t kAcq = 0x30;    // 8
inline constexpr std::uint64_t kDoorbellBase = 0x1000;
/// MSI-X table (vendor-fixed location in BAR0 for this model).
inline constexpr std::uint64_t kMsixTable = 0x2000;
inline constexpr std::uint64_t kMsixEntrySize = 16;  // addr u64, data u32, mask u32
}  // namespace reg

// CC fields.
inline constexpr std::uint32_t kCcEnable = 1u << 0;
constexpr std::uint32_t cc_iosqes(std::uint32_t cc) { return (cc >> 16) & 0xF; }
constexpr std::uint32_t cc_iocqes(std::uint32_t cc) { return (cc >> 20) & 0xF; }
constexpr std::uint32_t cc_shn(std::uint32_t cc) { return (cc >> 14) & 0x3; }
/// CC.AMS (bits 13:11): arbitration mechanism selected at enable time.
constexpr std::uint32_t cc_ams(std::uint32_t cc) { return (cc >> 11) & 0x7; }
inline constexpr std::uint32_t kCcAmsRoundRobin = 0;
inline constexpr std::uint32_t kCcAmsWrr = 1;  ///< weighted round robin w/ urgent
/// CC value selecting WRR arbitration (OR with kCcEnable).
inline constexpr std::uint32_t kCcAmsWrrBits = kCcAmsWrr << 11;

/// I/O SQ priority classes (Create I/O SQ CDW11 QPRIO, bits 2:1). Only
/// meaningful when the controller was enabled with CC.AMS = WRR.
enum class SqPriority : std::uint8_t {
  urgent = 0,  ///< strict priority above the weighted classes
  high = 1,
  medium = 2,
  low = 3,
};
// CSTS fields.
inline constexpr std::uint32_t kCstsReady = 1u << 0;
inline constexpr std::uint32_t kCstsFatal = 1u << 1;
inline constexpr std::uint32_t kCstsShutdownComplete = 2u << 2;

/// Doorbell stride is 4 bytes (CAP.DSTRD = 0) throughout.
inline constexpr std::uint64_t kDoorbellStride = 4;

constexpr std::uint64_t sq_doorbell_offset(std::uint16_t qid) {
  return reg::kDoorbellBase + (2ull * qid) * kDoorbellStride;
}
constexpr std::uint64_t cq_doorbell_offset(std::uint16_t qid) {
  return reg::kDoorbellBase + (2ull * qid + 1) * kDoorbellStride;
}

// --- identify payload builders -------------------------------------------------------

struct ControllerInfo {
  std::uint16_t vid = 0x8086;
  char serial[21] = "NVSHARE0000000000001";
  char model[41] = "Simulated Optane P4800X (nvmeshare)";
  char firmware[9] = "E2010435";
  std::uint8_t mdts_pages_log2 = 5;  ///< max transfer = 2^5 * 4 KiB = 128 KiB
  std::uint32_t num_namespaces = 1;
  std::uint16_t max_queue_pairs = 32;  ///< including the admin pair
};

struct NamespaceInfo {
  std::uint64_t size_blocks = 0;
  std::uint32_t block_size = 512;
  /// Namespace formatted with Type 1 protection information (DPC/DPS).
  bool pi_enabled = false;
};

/// Serialize a 4096-byte Identify Controller data structure.
Bytes build_identify_controller(const ControllerInfo& info);
/// Serialize a 4096-byte Identify Namespace data structure.
Bytes build_identify_namespace(const NamespaceInfo& info);

/// Parse the fields the drivers need back out of identify payloads.
struct ParsedControllerIdentify {
  std::uint16_t vid = 0;
  std::uint8_t mdts_pages_log2 = 0;
  std::uint32_t num_namespaces = 0;
  char model[41] = {};
};
ParsedControllerIdentify parse_identify_controller(ConstByteSpan data);

struct ParsedNamespaceIdentify {
  std::uint64_t size_blocks = 0;
  std::uint32_t block_size = 0;
  bool pi_enabled = false;
};
ParsedNamespaceIdentify parse_identify_namespace(ConstByteSpan data);

// --- command builders (host side) ------------------------------------------------------

/// The memory page size used throughout (CC.MPS = 0 -> 4 KiB).
inline constexpr std::uint64_t kPageSize = 4096;

/// The data pointer of one transfer (0 = unused).
struct PrpPair {
  std::uint64_t prp1 = 0;
  std::uint64_t prp2 = 0;
};

/// Pages the transfer [addr, addr + bytes) touches.
constexpr std::uint64_t prp_pages(std::uint64_t addr, std::uint64_t bytes) {
  return (addr % kPageSize + bytes + kPageSize - 1) / kPageSize;
}

/// Bytes of PRP list the transfer needs: 8 per page after the first, or 0
/// when PRP2 can point at the data itself.
constexpr std::uint64_t prp_list_bytes(std::uint64_t addr, std::uint64_t bytes) {
  return prp_pages(addr, bytes) > 2 ? (prp_pages(addr, bytes) - 1) * 8 : 0;
}

/// PRPs for `bytes` at the physically contiguous device address `addr`:
/// PRP2 is 0 when the transfer stays in its first page, the second page
/// when it ends there, and otherwise `list_addr`, the PRP list that
/// fill_prp_list() produces.
PrpPair make_prps(std::uint64_t addr, std::uint64_t bytes, std::uint64_t list_addr);

/// PRP-list bytes of the largest transfer: MDTS (128 KiB) from an unaligned
/// start spans 33 pages, so 32 entries. A host stages one command's list in
/// this much stack.
inline constexpr std::size_t kMaxPrpListBytes = 32 * 8;

/// Write the PRP list for `bytes` at `addr` into `list`: one entry per page
/// after the first, prp_list_bytes() in all. Entries that do not fit in
/// `list` are left out.
void fill_prp_list(std::uint64_t addr, std::uint64_t bytes, ByteSpan list);

/// One I/O command's PRPs and the bytes of the list page it reads (a DSM
/// range or a PRP list; empty when it reads none), staged on the host's stack.
struct StagedIo {
  PrpPair prp;
  std::array<std::byte, kMaxPrpListBytes> list_bytes;
  std::size_t list_size = 0;
  [[nodiscard]] ConstByteSpan list() const { return ConstByteSpan(list_bytes).first(list_size); }
};

/// Stage command `op` whose list page is at device address `list_addr`:
/// dataset_management deallocates `nblocks` at `slba`; read and write move
/// `bytes` at device address `addr` (make_prps(), fill_prp_list()).
StagedIo stage_io(IoOpcode op, std::uint64_t slba, std::uint32_t nblocks, std::uint64_t addr,
                  std::uint64_t bytes, std::uint64_t list_addr);

SubmissionEntry make_identify(std::uint16_t cid, IdentifyCns cns, std::uint32_t nsid,
                              std::uint64_t prp1);
SubmissionEntry make_create_io_cq(std::uint16_t cid, std::uint16_t qid, std::uint16_t qsize,
                                  std::uint64_t base, bool irq_enable, std::uint16_t irq_vector);
/// `prio` goes into CDW11 QPRIO (ignored by the controller unless CC.AMS =
/// WRR); the default encodes as 0 so round-robin callers stay byte-identical.
SubmissionEntry make_create_io_sq(std::uint16_t cid, std::uint16_t qid, std::uint16_t qsize,
                                  std::uint64_t base, std::uint16_t cqid,
                                  SqPriority prio = SqPriority::urgent);
SubmissionEntry make_delete_io_sq(std::uint16_t cid, std::uint16_t qid);
SubmissionEntry make_delete_io_cq(std::uint16_t cid, std::uint16_t qid);
SubmissionEntry make_set_num_queues(std::uint16_t cid, std::uint16_t nsq, std::uint16_t ncq);
/// Set Features 0x01 (Arbitration): AB = log2 burst (7 = unlimited),
/// LPW/MPW/HPW = 0-based low/medium/high priority weights.
SubmissionEntry make_set_arbitration(std::uint16_t cid, std::uint8_t ab, std::uint8_t lpw,
                                     std::uint8_t mpw, std::uint8_t hpw);
/// `prinfo` is OR'd into CDW12 (kPrinfoPract / kPrinfoPrchk*); 0 = no PI.
SubmissionEntry make_io_rw(bool write, std::uint16_t cid, std::uint32_t nsid,
                           std::uint64_t slba, std::uint16_t nblocks, std::uint64_t prp1,
                           std::uint64_t prp2, std::uint32_t prinfo = 0);
/// Vendor scrub command covering [slba, slba + nblocks).
SubmissionEntry make_vendor_scrub(std::uint16_t cid, std::uint32_t nsid, std::uint64_t slba,
                                  std::uint16_t nblocks);
SubmissionEntry make_flush(std::uint16_t cid, std::uint32_t nsid);
SubmissionEntry make_write_zeroes(std::uint16_t cid, std::uint32_t nsid, std::uint64_t slba,
                                  std::uint16_t nblocks);
/// Dataset Management with `nr` ranges whose descriptors are at prp1.
SubmissionEntry make_dsm_deallocate(std::uint16_t cid, std::uint32_t nsid, std::uint8_t nr,
                                    std::uint64_t prp1);

/// The I/O command every data path submits (cid 0; the queue pair assigns
/// it): read and write carry both PRPs and `prinfo`, dataset_management
/// deallocates the one range descriptor at prp1, flush carries nothing.
SubmissionEntry make_io(IoOpcode op, std::uint32_t nsid, std::uint64_t slba,
                        std::uint16_t nblocks, std::uint64_t prp1, std::uint64_t prp2,
                        std::uint32_t prinfo = 0);

}  // namespace nvmeshare::nvme
