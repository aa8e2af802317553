// Page-granular IOMMU model.
//
// The paper's driver uses a static bounce buffer because programming NTB
// mappings per request is too slow; its stated future work is to use the
// IOMMU to map each request's buffer dynamically. We implement that
// extension so the bounce-vs-IOMMU ablation (bench/bounce_vs_iommu) can
// quantify the trade-off: an IOMMU map/unmap costs time on the submission
// path but removes the bounce copy.
#pragma once

#include <cstdint>
#include <map>

#include "common/status.hpp"
#include "common/units.hpp"

namespace nvmeshare::mem {

class Iommu {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  struct Config {
    /// Fixed cost of a map operation (descriptor setup + fence).
    sim::Duration map_fixed_ns = 150;
    /// Cost of each page-table entry store.
    sim::Duration map_per_page_ns = 12;
    /// Fixed cost of an unmap (one IOTLB range invalidation + wait).
    sim::Duration unmap_fixed_ns = 600;
    /// Per-page teardown cost.
    sim::Duration unmap_per_page_ns = 8;
  };

  explicit Iommu(Config cfg) : cfg_(cfg) {}
  Iommu() : Iommu(Config{}) {}

  /// Map [iova, iova+len) -> [phys, phys+len). Both must be page-aligned.
  /// Returns the simulated time the mapping operation costs.
  Result<sim::Duration> map(std::uint64_t iova, std::uint64_t phys, std::uint64_t len);

  /// Remove a mapping previously installed at `iova`.
  Result<sim::Duration> unmap(std::uint64_t iova);

  /// Translate a device-visible address; fails if not mapped. Translation
  /// itself is folded into chip latency (IOTLB hit) and costs no extra time.
  [[nodiscard]] Result<std::uint64_t> translate(std::uint64_t iova) const;

 private:
  struct Mapping {
    std::uint64_t phys;
    std::uint64_t len;
  };

  Config cfg_;
  std::map<std::uint64_t, Mapping> maps_;  // iova -> mapping
};

}  // namespace nvmeshare::mem
