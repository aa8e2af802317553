#include "nvme/spec.hpp"

#include <bit>
#include <cstring>

#include "common/units.hpp"

namespace nvmeshare::nvme {

static_assert(std::endian::native == std::endian::little,
              "wire-format structs assume a little-endian host");

const char* status_name(std::uint16_t status) {
  switch (status) {
    case kScSuccess: return "success";
    case kScInvalidOpcode: return "invalid opcode";
    case kScInvalidField: return "invalid field";
    case kScDataTransferError: return "data transfer error";
    case kScInternalError: return "internal error";
    case kScAbortRequested: return "abort requested";
    case kScInvalidNamespace: return "invalid namespace";
    case kScLbaOutOfRange: return "LBA out of range";
    case kScGuardCheckError: return "end-to-end guard check error";
    case kScAppTagCheckError: return "end-to-end application tag check error";
    case kScRefTagCheckError: return "end-to-end reference tag check error";
    case kScInvalidQueueId: return "invalid queue id";
    case kScInvalidQueueSize: return "invalid queue size";
    case kScInvalidInterruptVector: return "invalid interrupt vector";
    case kScInvalidQueueDeletion: return "invalid queue deletion";
    case kScFeatureNotSaveable: return "feature identifier not saveable";
    default: return "unknown status";
  }
}

namespace {
void put_u16(Bytes& b, std::size_t off, std::uint16_t v) { std::memcpy(b.data() + off, &v, 2); }
void put_u32(Bytes& b, std::size_t off, std::uint32_t v) { std::memcpy(b.data() + off, &v, 4); }
void put_u64(Bytes& b, std::size_t off, std::uint64_t v) { std::memcpy(b.data() + off, &v, 8); }
void put_str(Bytes& b, std::size_t off, const char* s, std::size_t len) {
  // Identify string fields are space-padded ASCII.
  std::size_t n = std::strlen(s);
  for (std::size_t i = 0; i < len; ++i) {
    b[off + i] = std::byte{static_cast<unsigned char>(i < n ? s[i] : ' ')};
  }
}
template <typename T>
T get_pod(ConstByteSpan b, std::size_t off) {
  T v{};
  std::memcpy(&v, b.data() + off, sizeof(T));
  return v;
}
}  // namespace

Bytes build_identify_controller(const ControllerInfo& info) {
  Bytes out(4096, std::byte{0});
  put_u16(out, 0, info.vid);                          // VID
  put_u16(out, 2, info.vid);                          // SSVID
  put_str(out, 4, info.serial, 20);                   // SN
  put_str(out, 24, info.model, 40);                   // MN
  put_str(out, 64, info.firmware, 8);                 // FR
  out[77] = std::byte{info.mdts_pages_log2};          // MDTS
  put_u16(out, 78, 0x0001);                           // CNTLID
  put_u32(out, 80, 0x00010400);                       // VER 1.4
  out[512] = std::byte{0x66};                         // SQES: max 64B, required 64B
  out[513] = std::byte{0x44};                         // CQES: max 16B, required 16B
  put_u16(out, 514, 1024);                            // MAXCMD
  put_u32(out, 516, info.num_namespaces);             // NN
  // Vendor-specific: communicate queue-pair ceiling (used by tests only;
  // drivers discover it properly via Set Features / Number of Queues).
  put_u16(out, 4088, info.max_queue_pairs);
  return out;
}

Bytes build_identify_namespace(const NamespaceInfo& info) {
  Bytes out(4096, std::byte{0});
  put_u64(out, 0, info.size_blocks);   // NSZE
  put_u64(out, 8, info.size_blocks);   // NCAP
  put_u64(out, 16, info.size_blocks);  // NUSE
  out[25] = std::byte{0};              // NLBAF: 1 format
  out[26] = std::byte{0};              // FLBAS: format 0
  // DPC @28: Type 1 protection supported; DPS @29: Type 1 enabled, PI
  // stored out-of-band (this model keeps PI beside each block, not
  // interleaved, so MS in LBAF0 stays 0).
  out[28] = std::byte{0x01};
  out[29] = std::byte{info.pi_enabled ? 0x01 : 0x00};
  // LBAF0 @128: MS[15:0]=0, LBADS[23:16]=log2(block size)
  std::uint32_t lbads = 0;
  for (std::uint32_t bs = info.block_size; bs > 1; bs >>= 1) ++lbads;
  put_u32(out, 128, lbads << 16);
  return out;
}

ParsedControllerIdentify parse_identify_controller(ConstByteSpan data) {
  ParsedControllerIdentify out;
  out.vid = get_pod<std::uint16_t>(data, 0);
  out.mdts_pages_log2 = static_cast<std::uint8_t>(data[77]);
  out.num_namespaces = get_pod<std::uint32_t>(data, 516);
  std::memcpy(out.model, data.data() + 24, 40);
  out.model[40] = '\0';
  return out;
}

ParsedNamespaceIdentify parse_identify_namespace(ConstByteSpan data) {
  ParsedNamespaceIdentify out;
  out.size_blocks = get_pod<std::uint64_t>(data, 0);
  out.pi_enabled = (static_cast<std::uint8_t>(data[29]) & 0x7) != 0;  // DPS type
  const std::uint32_t lbaf0 = get_pod<std::uint32_t>(data, 128);
  out.block_size = 1u << ((lbaf0 >> 16) & 0xFF);
  return out;
}

SubmissionEntry make_identify(std::uint16_t cid, IdentifyCns cns, std::uint32_t nsid,
                              std::uint64_t prp1) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(AdminOpcode::identify);
  e.cid = cid;
  e.nsid = nsid;
  e.prp1 = prp1;
  e.cdw10 = static_cast<std::uint32_t>(cns);
  return e;
}

SubmissionEntry make_create_io_cq(std::uint16_t cid, std::uint16_t qid, std::uint16_t qsize,
                                  std::uint64_t base, bool irq_enable,
                                  std::uint16_t irq_vector) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(AdminOpcode::create_io_cq);
  e.cid = cid;
  e.prp1 = base;
  e.cdw10 = static_cast<std::uint32_t>(qid) |
            (static_cast<std::uint32_t>(qsize - 1) << 16);  // QSIZE is 0-based
  e.cdw11 = 1u /* PC */ | (irq_enable ? 2u : 0u) | (static_cast<std::uint32_t>(irq_vector) << 16);
  return e;
}

SubmissionEntry make_create_io_sq(std::uint16_t cid, std::uint16_t qid, std::uint16_t qsize,
                                  std::uint64_t base, std::uint16_t cqid, SqPriority prio) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(AdminOpcode::create_io_sq);
  e.cid = cid;
  e.prp1 = base;
  e.cdw10 = static_cast<std::uint32_t>(qid) | (static_cast<std::uint32_t>(qsize - 1) << 16);
  e.cdw11 = 1u /* PC */ | (static_cast<std::uint32_t>(prio) << 1) /* QPRIO */ |
            (static_cast<std::uint32_t>(cqid) << 16);
  return e;
}

SubmissionEntry make_delete_io_sq(std::uint16_t cid, std::uint16_t qid) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(AdminOpcode::delete_io_sq);
  e.cid = cid;
  e.cdw10 = qid;
  return e;
}

SubmissionEntry make_delete_io_cq(std::uint16_t cid, std::uint16_t qid) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(AdminOpcode::delete_io_cq);
  e.cid = cid;
  e.cdw10 = qid;
  return e;
}

SubmissionEntry make_set_num_queues(std::uint16_t cid, std::uint16_t nsq, std::uint16_t ncq) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(AdminOpcode::set_features);
  e.cid = cid;
  e.cdw10 = static_cast<std::uint32_t>(FeatureId::number_of_queues);
  // 0-based counts.
  e.cdw11 = static_cast<std::uint32_t>(nsq - 1) | (static_cast<std::uint32_t>(ncq - 1) << 16);
  return e;
}

SubmissionEntry make_set_arbitration(std::uint16_t cid, std::uint8_t ab, std::uint8_t lpw,
                                     std::uint8_t mpw, std::uint8_t hpw) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(AdminOpcode::set_features);
  e.cid = cid;
  e.cdw10 = static_cast<std::uint32_t>(FeatureId::arbitration);
  e.cdw11 = static_cast<std::uint32_t>(ab & 0x7) | (static_cast<std::uint32_t>(lpw) << 8) |
            (static_cast<std::uint32_t>(mpw) << 16) | (static_cast<std::uint32_t>(hpw) << 24);
  return e;
}

SubmissionEntry make_io_rw(bool write, std::uint16_t cid, std::uint32_t nsid,
                           std::uint64_t slba, std::uint16_t nblocks, std::uint64_t prp1,
                           std::uint64_t prp2, std::uint32_t prinfo) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(write ? IoOpcode::write : IoOpcode::read);
  e.cid = cid;
  e.nsid = nsid;
  e.prp1 = prp1;
  e.prp2 = prp2;
  e.cdw10 = static_cast<std::uint32_t>(slba & 0xFFFFFFFFu);
  e.cdw11 = static_cast<std::uint32_t>(slba >> 32);
  e.cdw12 = static_cast<std::uint32_t>(nblocks - 1)  // NLB is 0-based
            | (prinfo & kPrinfoMask);
  return e;
}

SubmissionEntry make_vendor_scrub(std::uint16_t cid, std::uint32_t nsid, std::uint64_t slba,
                                  std::uint16_t nblocks) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(IoOpcode::vendor_scrub);
  e.cid = cid;
  e.nsid = nsid;
  e.cdw10 = static_cast<std::uint32_t>(slba & 0xFFFFFFFFu);
  e.cdw11 = static_cast<std::uint32_t>(slba >> 32);
  e.cdw12 = static_cast<std::uint32_t>(nblocks - 1);
  return e;
}

SubmissionEntry make_flush(std::uint16_t cid, std::uint32_t nsid) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(IoOpcode::flush);
  e.cid = cid;
  e.nsid = nsid;
  return e;
}

SmartLog parse_smart_log(ConstByteSpan data) {
  SmartLog out;
  out.critical_warning = static_cast<std::uint8_t>(data[0]);
  out.composite_temperature_k = get_pod<std::uint16_t>(data, 1);
  out.available_spare_pct = static_cast<std::uint8_t>(data[3]);
  out.percentage_used = static_cast<std::uint8_t>(data[5]);
  // The spec stores these as 16-byte little-endian integers; the model only
  // ever populates the low 8 bytes.
  out.data_units_read = get_pod<std::uint64_t>(data, 32);
  out.data_units_written = get_pod<std::uint64_t>(data, 48);
  out.host_read_commands = get_pod<std::uint64_t>(data, 64);
  out.host_write_commands = get_pod<std::uint64_t>(data, 80);
  out.power_on_hours = get_pod<std::uint64_t>(data, 144);
  return out;
}

SubmissionEntry make_get_log_page(std::uint16_t cid, LogPageId lid, std::uint32_t bytes,
                                  std::uint64_t prp1) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(AdminOpcode::get_log_page);
  e.cid = cid;
  e.prp1 = prp1;
  const std::uint32_t numd = bytes / 4 - 1;  // 0-based dword count
  e.cdw10 = static_cast<std::uint32_t>(lid) | ((numd & 0xFFF) << 16);
  return e;
}

SubmissionEntry make_write_zeroes(std::uint16_t cid, std::uint32_t nsid, std::uint64_t slba,
                                  std::uint16_t nblocks) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(IoOpcode::write_zeroes);
  e.cid = cid;
  e.nsid = nsid;
  e.cdw10 = static_cast<std::uint32_t>(slba & 0xFFFFFFFFu);
  e.cdw11 = static_cast<std::uint32_t>(slba >> 32);
  e.cdw12 = static_cast<std::uint32_t>(nblocks - 1);
  return e;
}

SubmissionEntry make_dsm_deallocate(std::uint16_t cid, std::uint32_t nsid, std::uint8_t nr,
                                    std::uint64_t prp1) {
  SubmissionEntry e;
  e.opcode = static_cast<std::uint8_t>(IoOpcode::dataset_management);
  e.cid = cid;
  e.nsid = nsid;
  e.prp1 = prp1;
  e.cdw10 = static_cast<std::uint32_t>(nr - 1);  // 0-based range count
  e.cdw11 = kDsmDeallocate;
  return e;
}

SubmissionEntry make_io(IoOpcode op, std::uint32_t nsid, std::uint64_t slba,
                        std::uint16_t nblocks, std::uint64_t prp1, std::uint64_t prp2,
                        std::uint32_t prinfo) {
  switch (op) {
    case IoOpcode::read:
    case IoOpcode::write:
      return make_io_rw(op == IoOpcode::write, 0, nsid, slba, nblocks, prp1, prp2, prinfo);
    case IoOpcode::write_zeroes:
      return make_write_zeroes(0, nsid, slba, nblocks);
    case IoOpcode::dataset_management:
      return make_dsm_deallocate(0, nsid, 1, prp1);
    case IoOpcode::vendor_scrub:
      return make_vendor_scrub(0, nsid, slba, nblocks);
    case IoOpcode::flush:
      break;
  }
  return make_flush(0, nsid);
}

PrpPair make_prps(std::uint64_t addr, std::uint64_t bytes, std::uint64_t list_addr) {
  const std::uint64_t pages = prp_pages(addr, bytes);
  if (pages <= 1) return {addr, 0};
  if (pages == 2) return {addr, align_down(addr, kPageSize) + kPageSize};
  return {addr, list_addr};
}

void fill_prp_list(std::uint64_t addr, std::uint64_t bytes, ByteSpan list) {
  const std::uint64_t first = align_down(addr, kPageSize);
  for (std::uint64_t j = 1; j < prp_pages(addr, bytes); ++j) {
    store_pod(list, first + j * kPageSize, (j - 1) * 8);
  }
}

}  // namespace nvmeshare::nvme
