// Fabric graph: chips and links. Computes, per pair of chips, the one-way
// traversal cost (sum of per-chip forwarding latencies along the shortest
// path) used by the transaction latency model.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "pcie/types.hpp"

namespace nvmeshare::pcie {

class Topology {
 public:
  struct Chip {
    std::string name;
    ChipKind kind;
    HostId host;  // kNoHost for shared chips (cluster switch)
    sim::Duration forward_ns;
  };

  /// Add a chip; `forward_ns` is its one-direction traversal latency.
  ChipId add_chip(std::string name, ChipKind kind, HostId host, sim::Duration forward_ns);

  /// Connect two chips with a bidirectional link.
  Status link(ChipId a, ChipId b);

  /// Administratively disable / re-enable a link (cable pull). Paths
  /// through it become unreachable until restored.
  Status set_link_state(ChipId a, ChipId b, bool up);
  [[nodiscard]] bool link_up(ChipId a, ChipId b) const;

  [[nodiscard]] std::size_t chip_count() const noexcept { return chips_.size(); }
  [[nodiscard]] const Chip& chip(ChipId id) const { return chips_.at(id); }
  /// Chips directly linked to `id` (regardless of administrative state).
  [[nodiscard]] const std::vector<ChipId>& neighbors(ChipId id) const { return adj_.at(id); }

  struct PathCost {
    sim::Duration cost_ns = 0;  ///< sum of forward_ns over all chips on the path
    int hops = 0;               ///< number of chips on the path (inclusive)
    bool reachable = false;
  };

  /// One-way traversal cost from chip `a` to chip `b` (shortest path by
  /// chip count, ties going to the first path breadth-first search finds
  /// in link order; every chip on the path, inclusive of both ends,
  /// contributes its forward latency once). An O(1) lookup in a table
  /// filled for every pair on first query; mutating the topology
  /// invalidates the table.
  [[nodiscard]] PathCost path_cost(ChipId a, ChipId b) const;

 private:
  void ensure_cache() const;

  std::vector<Chip> chips_;
  std::vector<std::vector<ChipId>> adj_;
  std::set<std::pair<ChipId, ChipId>> down_links_;  // normalized (min,max)
  // costs_[a * chip_count() + b] = path_cost(a, b), one BFS per source.
  mutable std::vector<PathCost> costs_;
  mutable bool cache_valid_ = false;
};

}  // namespace nvmeshare::pcie
