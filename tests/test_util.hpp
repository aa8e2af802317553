// Shared helpers for the test suite: small testbed configurations (tiny
// namespace, fast enable), bring-up shortcuts for the distributed driver
// stack, and golden documents.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "driver/client.hpp"
#include "driver/local_driver.hpp"
#include "driver/manager.hpp"
#include "workload/fio.hpp"
#include "workload/testbed.hpp"

namespace nvmeshare::testutil {

using workload::Testbed;
using workload::TestbedConfig;

inline nvme::Controller::Config small_nvme(std::uint64_t seed = 7) {
  nvme::Controller::Config c;
  c.capacity_blocks = 1ull << 20;  // 512 MiB at 512 B blocks
  c.seed = seed;
  return c;
}

inline TestbedConfig small_testbed(std::uint32_t hosts) {
  TestbedConfig cfg;
  cfg.hosts = hosts;
  cfg.dram_per_host = 1 * GiB;
  cfg.nvme = small_nvme();
  return cfg;
}

/// `cfg` with the fault plan `text` (docs/faults.md). The testbed installs
/// it before bring-up; the test arms it with `substrate().arm_faults()`.
inline TestbedConfig with_faults(TestbedConfig cfg, std::string_view text) {
  auto plan = fault::parse_plan(text);
  EXPECT_TRUE(plan.has_value()) << plan.status().to_string();
  if (plan) cfg.faults = std::move(*plan);
  return cfg;
}

struct Stack {
  std::unique_ptr<driver::Manager> manager;
  std::unique_ptr<driver::Client> client;
};

/// Start a manager on `manager_node` and attach a client from `client_node`.
inline Result<Stack> bring_up(Testbed& tb, smartio::NodeId manager_node,
                              smartio::NodeId client_node,
                              driver::Client::Config client_cfg = {},
                              driver::Manager::Config manager_cfg = {}) {
  auto manager = tb.wait(driver::Manager::start(tb.service(), manager_node, tb.device_id(),
                                                manager_cfg));
  if (!manager) return manager.status();
  auto client =
      tb.wait(driver::Client::attach(tb.service(), client_node, tb.device_id(), client_cfg));
  if (!client) return client.status();
  return Stack{std::move(*manager), std::move(*client)};
}

/// Submit one block request and run the engine until it completes.
inline Result<block::Completion> do_io(Testbed& tb, block::BlockDevice& dev,
                                       const block::Request& request) {
  return tb.wait_plain(dev.submit(request), 30_s);
}

/// Allocate a DRAM buffer on `node` and fill it with `seed`'s pattern.
inline std::uint64_t alloc_pattern_buffer(Testbed& tb, sisci::NodeId node, std::size_t bytes,
                                          std::uint64_t seed) {
  auto addr = tb.cluster().alloc_dram(node, align_up(bytes, 4096), 4096);
  EXPECT_TRUE(addr.has_value());
  Bytes data = make_pattern(bytes, seed);
  EXPECT_TRUE(tb.substrate().host_dram(node).write(*addr, data).is_ok());
  return *addr;
}

inline bool buffer_matches(Testbed& tb, sisci::NodeId node, std::uint64_t addr,
                           std::size_t bytes, std::uint64_t seed) {
  Bytes data(bytes);
  if (!tb.substrate().host_dram(node).read(addr, data)) return false;
  return check_pattern(data, seed);
}

/// Round-trip one write+read of `bytes` through `dev` and verify contents.
inline void write_read_verify(Testbed& tb, block::BlockDevice& dev, sisci::NodeId node,
                              std::uint64_t lba, std::size_t bytes, std::uint64_t seed) {
  const auto nblocks = static_cast<std::uint32_t>(bytes / dev.block_size());
  const std::uint64_t wbuf = alloc_pattern_buffer(tb, node, bytes, seed);
  auto wr = do_io(tb, dev, {block::Op::write, lba, nblocks, wbuf});
  ASSERT_TRUE(wr.has_value()) << wr.status().to_string();
  ASSERT_TRUE(wr->status.is_ok()) << wr->status.to_string();

  const std::uint64_t rbuf = alloc_pattern_buffer(tb, node, bytes, ~seed);
  auto rd = do_io(tb, dev, {block::Op::read, lba, nblocks, rbuf});
  ASSERT_TRUE(rd.has_value()) << rd.status().to_string();
  ASSERT_TRUE(rd->status.is_ok()) << rd->status.to_string();
  EXPECT_TRUE(buffer_matches(tb, node, rbuf, bytes, seed))
      << "data read back differs from data written";
  (void)tb.cluster().free_dram(node, wbuf);
  (void)tb.cluster().free_dram(node, rbuf);
}

/// A flat JSON object written one member per line, so that a changed value
/// is one changed line.
class GoldenDoc {
 public:
  GoldenDoc& add(std::string_view key, std::uint64_t value) {
    return member(key, std::to_string(value));
  }
  /// A 64-bit hash, as a hex string.
  GoldenDoc& add_hex(std::string_view key, std::uint64_t value) {
    char buf[21];
    std::snprintf(buf, sizeof buf, "\"0x%016" PRIx64 "\"", value);
    return member(key, buf);
  }
  template <class Range>
  GoldenDoc& add_list(std::string_view key, const Range& values) {
    std::string list = "[";
    for (const auto& v : values) {
      if (list.size() > 1) list += ", ";
      list += std::to_string(static_cast<std::uint64_t>(v));
    }
    return member(key, list + "]");
  }
  [[nodiscard]] std::string str() const { return "{\n" + body_ + "\n}\n"; }

 private:
  GoldenDoc& member(std::string_view key, const std::string& value) {
    if (!body_.empty()) body_ += ",\n";
    body_ += "  \"" + std::string(key) + "\": " + value;
    return *this;
  }
  std::string body_;
};

/// Write `json` to `<name>.json` in the working directory and compare it with
/// the checked-in tests/golden/<name>.json, listing each changed line.
/// `tools/same_seed_docs.sh BUILD_DIR tests/golden` runs the pin tests in
/// the corpus directory, so the same command that regenerates the corpus
/// rewrites these documents.
inline void expect_golden(std::string_view name, const std::string& json) {
  const std::string file = std::string(name) + ".json";
  std::ofstream(file, std::ios::binary) << json;
  std::ifstream in(std::string(NVS_GOLDEN_DIR) + "/" + file, std::ios::binary);
  const std::string want{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  if (want == json) return;
  const auto lines = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) out.push_back(line);
    return out;
  };
  const std::vector<std::string> old_lines = lines(want);
  const std::vector<std::string> new_lines = lines(json);
  std::string diff;
  for (std::size_t i = 0; i < std::max(old_lines.size(), new_lines.size()); ++i) {
    const std::string* o = i < old_lines.size() ? &old_lines[i] : nullptr;
    const std::string* n = i < new_lines.size() ? &new_lines[i] : nullptr;
    if (o != nullptr && n != nullptr && *o == *n) continue;
    if (o != nullptr) diff += "- " + *o + "\n";
    if (n != nullptr) diff += "+ " + *n + "\n";
  }
  ADD_FAILURE() << "tests/golden/" << file << (in ? " differs:\n" : " is missing:\n") << diff
                << "after a deliberate change: tools/same_seed_docs.sh BUILD_DIR tests/golden";
}

}  // namespace nvmeshare::testutil
