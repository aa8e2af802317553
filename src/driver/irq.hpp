// Per-host interrupt controller endpoint: the landing pad for MSI-X
// messages. A device posts a 4-byte write to a vector's address; the
// controller invokes the handler registered for that vector at arrival
// time. Used by the interrupt-driven baselines (stock local driver, RDMA
// NIC completions); the paper's own driver polls instead.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fabric/endpoint.hpp"

namespace nvmeshare::driver {

class IrqController final : public fabric::Endpoint {
 public:
  static constexpr std::uint32_t kVectors = 256;

  using Handler = std::function<void(std::uint32_t data)>;

  [[nodiscard]] std::string_view name() const override { return "irqctl"; }
  [[nodiscard]] int bar_count() const override { return 1; }
  [[nodiscard]] std::uint64_t bar_size(int bar) const override {
    return bar == 0 ? kVectors * 4 : 0;
  }
  Result<Bytes> bar_read(int bar, std::uint64_t offset, std::size_t len) override;
  Status bar_write(int bar, std::uint64_t offset, ConstByteSpan data) override;

  /// Claim a free vector and attach a handler. Returns the vector index.
  Result<std::uint32_t> allocate_vector(Handler handler);
  void release_vector(std::uint32_t vector);

  /// Address a device must write to raise `vector` (in this host's space).
  [[nodiscard]] Result<std::uint64_t> vector_address(std::uint32_t vector) const;

  [[nodiscard]] std::uint64_t interrupts_delivered() const noexcept { return delivered_; }

 private:
  std::vector<Handler> handlers_ = std::vector<Handler>(kVectors);
  std::uint64_t delivered_ = 0;
};

}  // namespace nvmeshare::driver
