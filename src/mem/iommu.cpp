#include "mem/iommu.hpp"

#include "common/units.hpp"

namespace nvmeshare::mem {

Result<sim::Duration> Iommu::map(std::uint64_t iova, std::uint64_t phys, std::uint64_t len) {
  if (len == 0 || iova % kPageSize != 0 || phys % kPageSize != 0) {
    return Status(Errc::invalid_argument, "IOMMU map must be page-aligned and non-empty");
  }
  len = align_up(len, kPageSize);
  // Reject overlap with an existing mapping.
  auto next = maps_.lower_bound(iova);
  if (next != maps_.end() && next->first < iova + len) {
    return Status(Errc::already_exists, "IOVA range overlaps existing mapping");
  }
  if (next != maps_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second.len > iova) {
      return Status(Errc::already_exists, "IOVA range overlaps existing mapping");
    }
  }
  maps_.emplace(iova, Mapping{phys, len});
  return cfg_.map_fixed_ns +
         static_cast<sim::Duration>(cfg_.map_per_page_ns * (len / kPageSize));
}

Result<sim::Duration> Iommu::unmap(std::uint64_t iova) {
  auto it = maps_.find(iova);
  if (it == maps_.end()) return Status(Errc::not_found, "no IOMMU mapping at IOVA");
  const std::uint64_t pages = it->second.len / kPageSize;
  maps_.erase(it);
  return cfg_.unmap_fixed_ns + static_cast<sim::Duration>(cfg_.unmap_per_page_ns * pages);
}

Result<std::uint64_t> Iommu::translate(std::uint64_t iova) const {
  auto it = maps_.upper_bound(iova);
  if (it == maps_.begin()) return Status(Errc::unmapped_address, "IOVA not mapped");
  --it;
  if (iova >= it->first + it->second.len) {
    return Status(Errc::unmapped_address, "IOVA not mapped");
  }
  return it->second.phys + (iova - it->first);
}

}  // namespace nvmeshare::mem
