#include "sisci/sisci.hpp"

#include <utility>

#include "common/log.hpp"
#include "common/units.hpp"

namespace nvmeshare::sisci {

// --- Segment ----------------------------------------------------------------------

Segment::Segment(Segment&& other) noexcept { *this = std::move(other); }

Segment& Segment::operator=(Segment&& other) noexcept {
  if (this != &other) {
    release();
    cluster_ = std::exchange(other.cluster_, nullptr);
    node_ = other.node_;
    id_ = other.id_;
    phys_ = other.phys_;
    size_ = other.size_;
  }
  return *this;
}

Segment::~Segment() { release(); }

void Segment::release() {
  if (cluster_ == nullptr) return;
  cluster_->unexport(node_, id_, phys_);
  cluster_ = nullptr;
}

Status Segment::check_access(std::uint64_t offset, std::uint64_t len) const {
  if (!valid()) return Status(Errc::unavailable, "segment released");
  if (offset + len > size_) return Status(Errc::out_of_range, "segment access OOB");
  return Status::ok();
}

Status Segment::write(std::uint64_t offset, ConstByteSpan data) {
  NVS_RETURN_IF_ERROR(check_access(offset, data.size()));
  return cluster_->fabric().host_dram(node_).write(phys_ + offset, data);
}

Status Segment::read(std::uint64_t offset, ByteSpan out) const {
  NVS_RETURN_IF_ERROR(check_access(offset, out.size()));
  return cluster_->fabric().host_dram(node_).read(phys_ + offset, out);
}

RemoteSegment Segment::descriptor() const noexcept {
  return RemoteSegment{node_, id_, phys_, size_};
}

// --- Map ----------------------------------------------------------------------------

Result<Map> Map::create(Cluster& cluster, NodeId local_node, const RemoteSegment& remote) {
  Map out;
  out.size_ = remote.size;
  auto window = cluster.fabric().map_window(fabric::MapIntent::cpu, local_node, remote.owner,
                                            remote.phys_addr, remote.size);
  if (!window) return window.status();
  out.window_ = std::move(*window);
  out.valid_ = true;
  return out;
}

// --- Cluster -----------------------------------------------------------------------

Cluster::Cluster(fabric::Substrate& fabric, std::uint64_t reserved_low) : fabric_(fabric) {
  dram_.reserve(fabric.space_count());
  for (fabric::HostId h = 0; h < fabric.space_count(); ++h) {
    const std::uint64_t size = fabric.host_dram(h).size();
    dram_.push_back(std::make_unique<mem::RangeAllocator>(
        reserved_low, size > reserved_low ? size - reserved_low : 0));
  }
}

Result<Segment> Cluster::create_segment(NodeId node, SegmentId id, std::uint64_t size) {
  if (node >= dram_.size()) return Status(Errc::invalid_argument, "bad node id");
  if (size == 0) return Status(Errc::invalid_argument, "empty segment");
  const auto key = std::make_pair(node, id);
  if (exports_.contains(key)) {
    return Status(Errc::already_exists, "segment id already exported by node");
  }
  auto addr = dram_[node]->alloc(align_up(size, 4096), 4096);
  if (!addr) return addr.status();

  Segment seg;
  seg.cluster_ = this;
  seg.node_ = node;
  seg.id_ = id;
  seg.phys_ = *addr;
  seg.size_ = size;
  exports_.emplace(key, RemoteSegment{node, id, *addr, size});
  NVS_LOG(debug, "sisci") << "exported segment (" << node << "," << id << ") size " << size;
  return seg;
}

Result<Segment> Cluster::create_segment_placed(NodeId requester, NodeId device_host,
                                               bool cpu_access, bool device_access,
                                               SegmentId id, std::uint64_t size) {
  const NodeId node = fabric_.place_segment(requester, device_host, cpu_access, device_access);
  return create_segment(node, id, size);
}

Result<RemoteSegment> Cluster::connect(NodeId owner, SegmentId id) const {
  auto it = exports_.find(std::make_pair(owner, id));
  if (it == exports_.end()) {
    return Status(Errc::not_found, "no such exported segment");
  }
  return it->second;
}

Result<std::uint64_t> Cluster::alloc_dram(NodeId node, std::uint64_t size,
                                          std::uint64_t align) {
  if (node >= dram_.size()) return Status(Errc::invalid_argument, "bad node id");
  return dram_[node]->alloc(size, align);
}

Status Cluster::free_dram(NodeId node, std::uint64_t addr) {
  if (node >= dram_.size()) return Status(Errc::invalid_argument, "bad node id");
  return dram_[node]->free(addr);
}

void Cluster::unexport(NodeId node, SegmentId id, std::uint64_t phys) {
  exports_.erase(std::make_pair(node, id));
  (void)dram_[node]->free(phys);
}

}  // namespace nvmeshare::sisci
