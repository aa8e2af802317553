#include "pcie/topology.hpp"

#include <algorithm>

namespace nvmeshare::pcie {

ChipId Topology::add_chip(std::string name, ChipKind kind, HostId host,
                          sim::Duration forward_ns) {
  chips_.push_back(Chip{std::move(name), kind, host, forward_ns});
  adj_.emplace_back();
  cache_valid_ = false;
  return static_cast<ChipId>(chips_.size() - 1);
}

Status Topology::link(ChipId a, ChipId b) {
  if (a >= chips_.size() || b >= chips_.size() || a == b) {
    return Status(Errc::invalid_argument, "bad chip ids in link()");
  }
  if (std::find(adj_[a].begin(), adj_[a].end(), b) != adj_[a].end()) {
    return Status(Errc::already_exists, "link already present");
  }
  adj_[a].push_back(b);
  adj_[b].push_back(a);
  cache_valid_ = false;
  return Status::ok();
}

Status Topology::set_link_state(ChipId a, ChipId b, bool up) {
  if (a >= chips_.size() || b >= chips_.size()) {
    return Status(Errc::invalid_argument, "bad chip ids");
  }
  if (std::find(adj_[a].begin(), adj_[a].end(), b) == adj_[a].end()) {
    return Status(Errc::not_found, "no such link");
  }
  const auto key = std::minmax(a, b);
  if (up) {
    down_links_.erase(key);
  } else {
    down_links_.insert(key);
  }
  cache_valid_ = false;
  return Status::ok();
}

bool Topology::link_up(ChipId a, ChipId b) const {
  return !down_links_.contains(std::minmax(a, b));
}

void Topology::ensure_cache() const {
  if (cache_valid_) return;
  const std::size_t n = chips_.size();
  costs_.assign(n * n, PathCost{});
  std::vector<ChipId> queue;
  queue.reserve(n);
  for (ChipId src = 0; src < n; ++src) {
    // A chip's cost extends its BFS predecessor's by its own forward
    // latency: the same integer sum as walking the path chip by chip.
    PathCost* row = &costs_[static_cast<std::size_t>(src) * n];
    row[src] = PathCost{chips_[src].forward_ns, 1, true};
    queue.assign(1, src);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const ChipId cur = queue[head];
      for (ChipId nxt : adj_[cur]) {
        if (!row[nxt].reachable && link_up(cur, nxt)) {
          row[nxt] = PathCost{row[cur].cost_ns + chips_[nxt].forward_ns, row[cur].hops + 1, true};
          queue.push_back(nxt);
        }
      }
    }
  }
  cache_valid_ = true;
}

Topology::PathCost Topology::path_cost(ChipId a, ChipId b) const {
  const std::size_t n = chips_.size();
  if (a >= n || b >= n) return {};
  ensure_cache();
  return costs_[static_cast<std::size_t>(a) * n + b];
}

}  // namespace nvmeshare::pcie
