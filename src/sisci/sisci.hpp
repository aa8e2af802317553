// SISCI-style shared-memory API over the cluster interconnect.
//
// Mirrors the concepts of Dolphin's Software Infrastructure Shared-Memory
// Cluster Interconnect API as the paper uses them, with RAII instead of C
// handles:
//  * Segment       — a linear, physically contiguous region of one memory
//                    space (a host's DRAM, or the CXL pool), exported under
//                    a (node, segment id) name.
//  * RemoteSegment — a connection to an exported segment by name.
//  * Map           — a CPU mapping of a remote segment through whatever the
//                    substrate provides (NTB LUT window, CXL HDM range).
//
// Control-plane calls (create/connect/map) model configuration-time work
// and cost no simulated time; only data-path transactions through the
// resulting mappings are timed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "fabric/substrate.hpp"
#include "mem/allocator.hpp"

namespace nvmeshare::sisci {

using NodeId = fabric::HostId;
using SegmentId = std::uint32_t;

class Cluster;
struct RemoteSegment;

/// A contiguous region of one host's physical memory, exported cluster-wide
/// under (node, id).
class Segment {
 public:
  Segment() = default;
  Segment(Segment&& other) noexcept;
  Segment& operator=(Segment&& other) noexcept;
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;
  ~Segment();

  [[nodiscard]] bool valid() const noexcept { return cluster_ != nullptr; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] SegmentId id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t phys_addr() const noexcept { return phys_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Zero-latency CPU access for the owning host (local DRAM).
  Status write(std::uint64_t offset, ConstByteSpan data);
  Status read(std::uint64_t offset, ByteSpan out) const;
  /// The checks read() and write() make before touching memory: the
  /// segment is live and [offset, offset+len) lies inside it.
  [[nodiscard]] Status check_access(std::uint64_t offset, std::uint64_t len) const;

  /// Descriptor usable with Map::create / DeviceRef::map_for_device.
  [[nodiscard]] RemoteSegment descriptor() const noexcept;

  void release();

 private:
  friend class Cluster;
  Cluster* cluster_ = nullptr;
  NodeId node_ = 0;
  SegmentId id_ = 0;
  std::uint64_t phys_ = 0;
  std::uint64_t size_ = 0;
};

/// A connection to a segment exported by some (possibly remote) node.
struct RemoteSegment {
  NodeId owner = 0;
  SegmentId id = 0;
  std::uint64_t phys_addr = 0;
  std::uint64_t size = 0;
};

/// CPU mapping of a remote segment: after mapping, loads/stores from
/// `local_node` to addr() reach the segment. Backed by whatever window
/// primitive the substrate provides (NTB LUT run, direct HDM addressing).
class Map {
 public:
  Map() = default;

  static Result<Map> create(Cluster& cluster, NodeId local_node, const RemoteSegment& remote);

  [[nodiscard]] bool valid() const noexcept { return valid_; }
  /// Address to use from the mapping node's CPU.
  [[nodiscard]] std::uint64_t addr() const noexcept { return window_.addr(); }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

 private:
  fabric::Window window_;
  bool valid_ = false;
  std::uint64_t size_ = 0;
};

/// The cluster-wide SISCI state: per-space segment allocators and the export
/// name table. Spaces are the substrate's segment-owning memories: every
/// host's DRAM, plus the pool on pooled-memory substrates.
class Cluster {
 public:
  /// `reserved_low` bytes of each space are left to other users
  /// (request buffers, queue test fixtures, ...).
  explicit Cluster(fabric::Substrate& fabric, std::uint64_t reserved_low = 16 * MiB);

  [[nodiscard]] fabric::Substrate& fabric() noexcept { return fabric_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return fabric_.engine(); }

  /// Allocate and export a segment of `size` bytes in space `node`.
  Result<Segment> create_segment(NodeId node, SegmentId id, std::uint64_t size);

  /// Allocate and export a segment, letting the substrate's placement
  /// policy pick the backing space from the expected access pattern
  /// (NTB: reader-local DRAM; CXL: the shared pool).
  Result<Segment> create_segment_placed(NodeId requester, NodeId device_host, bool cpu_access,
                                        bool device_access, SegmentId id, std::uint64_t size);

  /// Connect to a segment exported as (owner, id).
  Result<RemoteSegment> connect(NodeId owner, SegmentId id) const;

  /// Raw DRAM allocation on a host (for request buffers etc.).
  Result<std::uint64_t> alloc_dram(NodeId node, std::uint64_t size,
                                   std::uint64_t align = 4096);
  Status free_dram(NodeId node, std::uint64_t addr);

  [[nodiscard]] std::size_t exported_count() const noexcept { return exports_.size(); }

 private:
  friend class Segment;
  void unexport(NodeId node, SegmentId id, std::uint64_t phys);

  fabric::Substrate& fabric_;
  std::vector<std::unique_ptr<mem::RangeAllocator>> dram_;
  std::map<std::pair<NodeId, SegmentId>, RemoteSegment> exports_;
};

}  // namespace nvmeshare::sisci
