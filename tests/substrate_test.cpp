// Substrate-neutrality suite: the same driver stack brought up over both
// interconnect substrates — the paper's PCIe/NTB fabric and the CXL
// pooled-memory model — must attach, move data correctly, and recover from
// faults. Plus the debug-build backdoor seal guard: after bring-up no
// production path may cheat through zero-latency cross-host peek/poke, and
// run-granular scatter-list routing checked against routing entry by entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "cxl/pool.hpp"
#include "fabric/substrate.hpp"
#include "fault/fault.hpp"
#include "mem/payload.hpp"
#include "nvme/block_store.hpp"
#include "pcie/fabric.hpp"
#include "test_util.hpp"

namespace nvmeshare::fabric {

/// Resolves a scatter list twice: through Substrate::resolve_sg(), which
/// routes once per run, and by routing and pricing every entry alone.
class SubstrateProbe {
 public:
  /// Everything resolving a scatter list decides or counts. A failed list
  /// keeps only its status and counter deltas.
  struct Outcome {
    /// Per chunk: memory, endpoint, address, BAR, owner, length.
    using Chunk = std::tuple<const void*, const void*, std::uint64_t, int, HostId, std::uint32_t>;
    std::string status = "ok";
    std::vector<Chunk> chunks;
    std::vector<std::uint64_t> keys;
    sim::Duration worst_ns = 0;
    int worst_crossings = 0;
    std::uint64_t translations = 0;
    std::uint64_t unsupported = 0;

    bool operator==(const Outcome&) const = default;
    friend std::ostream& operator<<(std::ostream& os, const Outcome& o) {
      os << o.status << ", " << o.chunks.size() << " chunks, keys";
      for (const std::uint64_t k : o.keys) os << " " << k;
      os << ", worst " << o.worst_ns << " ns / " << o.worst_crossings << " NTBs, "
         << o.translations << " translations, " << o.unsupported << " unsupported";
      for (const Chunk& c : o.chunks) os << "\n  sink 0x" << std::hex << std::get<2>(c) << std::dec;
      return os;
    }
  };

  /// The DMA initiator of endpoint `ep`.
  static Initiator device(const Substrate& sub, EndpointId ep) { return sub.endpoints_[ep].at; }

  static Outcome by_runs(Substrate& sub, const Initiator& who, std::span<const SgEntry> sg,
                         bool is_store) {
    Outcome out;
    const std::uint64_t translations = sub.stats().ntb_translations.value();
    const std::uint64_t unsupported = sub.stats().unsupported_requests.value();
    auto op = sub.resolve_sg(who, sg, is_store);
    if (op) {
      for (const Substrate::Chunk& c : (*op)->chunks()) out.chunks.push_back(chunk(c.sink, c.len));
      const auto keys = (*op)->order_keys();
      out.keys.assign(keys.begin(), keys.end());
      out.worst_ns = (*op)->worst.ns;
      out.worst_crossings = (*op)->worst.ntb_crossings;
    } else {
      out.status = op.status().to_string();
    }
    out.translations = sub.stats().ntb_translations.value() - translations;
    out.unsupported = sub.stats().unsupported_requests.value() - unsupported;
    return out;
  }

  static Outcome by_entries(Substrate& sub, const Initiator& who, std::span<const SgEntry> sg,
                            bool is_store) {
    Outcome out;
    for (const SgEntry& e : sg) {
      auto target = sub.route(who.host, e.addr, e.len);
      if (!target) ++out.unsupported;
      auto path = target ? sub.path_ns(who, *target, is_store) : target.status();
      if (!path) return failed(std::move(out), path.status());
      out.worst_ns = std::max(out.worst_ns, *path);
      out.worst_crossings = std::max(out.worst_crossings, target->ntb_crossings);
      out.translations += static_cast<std::uint64_t>(target->ntb_crossings);
      out.chunks.push_back(chunk(target->sink, e.len));
      if (is_store && std::find(out.keys.begin(), out.keys.end(), target->order_key) ==
                          out.keys.end()) {
        out.keys.push_back(target->order_key);
      }
    }
    return out;
  }

 private:
  static Outcome::Chunk chunk(const Substrate::Sink& s, std::uint32_t len) {
    return {s.mem, s.ep, s.addr, s.bar, s.owner, len};
  }
  static Outcome failed(Outcome out, const Status& st) {
    Outcome f;
    f.status = st.to_string();
    f.translations = out.translations;
    f.unsupported = out.unsupported;
    return f;
  }
};

}  // namespace nvmeshare::fabric

namespace nvmeshare {
namespace {

using namespace testutil;

TestbedConfig substrate_testbed(fabric::SubstrateKind kind, std::uint32_t hosts) {
  TestbedConfig cfg = small_testbed(hosts);
  cfg.substrate = kind;
  return cfg;
}

class SubstrateTest : public ::testing::TestWithParam<fabric::SubstrateKind> {
 protected:
  [[nodiscard]] TestbedConfig config(std::uint32_t hosts) const {
    return substrate_testbed(GetParam(), hosts);
  }
};

// --- bring-up and data path --------------------------------------------------------

TEST_P(SubstrateTest, RemoteClientAttachesAndMovesData) {
  Testbed tb(config(2));
  auto stack = bring_up(tb, /*manager_node=*/0, /*client_node=*/1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();

  // Production steady state: no more backdoor traffic from here on.
  tb.substrate().seal_backdoors();
  write_read_verify(tb, *stack->client, 1, /*lba=*/64, 4096, /*seed=*/0xAB);
  write_read_verify(tb, *stack->client, 1, /*lba=*/1024, 32 * 1024, /*seed=*/0xCD);
  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
}

TEST_P(SubstrateTest, LocalClientMovesData) {
  Testbed tb(config(1));
  auto stack = bring_up(tb, 0, 0);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  tb.substrate().seal_backdoors();
  write_read_verify(tb, *stack->client, 0, /*lba=*/8, 8192, /*seed=*/0x77);
  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
}

TEST_P(SubstrateTest, TwoClientsShareOneDevice) {
  Testbed tb(config(3));
  auto mgr = tb.wait(driver::Manager::start(tb.service(), 0, tb.device_id(), {}));
  ASSERT_TRUE(mgr.has_value()) << mgr.status().to_string();
  auto c1 = tb.wait(driver::Client::attach(tb.service(), 1, tb.device_id(), {}));
  ASSERT_TRUE(c1.has_value()) << c1.status().to_string();
  auto c2 = tb.wait(driver::Client::attach(tb.service(), 2, tb.device_id(), {}));
  ASSERT_TRUE(c2.has_value()) << c2.status().to_string();

  tb.substrate().seal_backdoors();
  // Disjoint LBA ranges; each client must read back its own pattern.
  write_read_verify(tb, **c1, 1, /*lba=*/0, 16 * 1024, /*seed=*/0x11);
  write_read_verify(tb, **c2, 2, /*lba=*/4096, 16 * 1024, /*seed=*/0x22);
  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
}

// --- recovery ----------------------------------------------------------------------

// A link flap mid-workload: commands in flight time out, the client runs
// queue-level recovery, and verified I/O passes once the link is back. The
// same plan drives the NTB cable-pull path and the CXL port-down path
// through Substrate::set_host_link.
TEST_P(SubstrateTest, RecoversFromLinkFlap) {
  driver::Client::Config cc;
  cc.cmd_timeout_ns = 500'000;
  cc.cmd_retry_limit = 5;
  cc.retry_backoff_ns = 50'000;

  Testbed tb(with_faults(config(2), "seed=11;ntb_link_down:host=1,at=300us,for=400us"));
  auto stack = bring_up(tb, 0, 1, cc);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  tb.substrate().arm_faults();

  workload::JobSpec spec;
  spec.name = "linkflap";
  spec.pattern = workload::JobSpec::Pattern::randrw;
  spec.block_bytes = 4096;
  spec.queue_depth = 4;
  spec.ops = 2000;
  spec.seed = 99;
  spec.verify = true;
  auto result = workload::run_job_blocking(tb.cluster(), *stack->client, 1, spec);
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  EXPECT_EQ(result->verify_failures, 0u);
  EXPECT_EQ(tb.substrate().faults()->stats().link_downs.value(), 1u);

  // The flap actually happened, and the stack survived it.
  write_read_verify(tb, *stack->client, 1, /*lba=*/2048, 4096, /*seed=*/0x5A);
}

// --- write watches -----------------------------------------------------------------

// Event-skipping pollers trust Substrate::watch_writes to report every store
// into the memory they poll, on every write path.
TEST_P(SubstrateTest, WriteWatchSeesEveryWritePath) {
  Testbed tb(config(2));
  fabric::Substrate& sub = tb.substrate();
  sim::Engine& engine = tb.engine();
  auto base = tb.cluster().alloc_dram(1, 4096, 4096);
  ASSERT_TRUE(base.has_value()) << base.status().to_string();
  const std::uint64_t lo = *base + 1024;  // watched: [lo, lo + 64)
  sim::PollTimer timer(engine);
  auto watch = sub.watch_writes(1, lo, 64, timer);
  ASSERT_TRUE(watch.has_value()) << watch.status().to_string();
  const Bytes data(32, std::byte{0x5a});

  // Each write lands (posted writes at their arrival time); then the flag
  // must match whether the write touched [lo, lo + 64).
  auto check = [&](bool expect_notify, const char* what) {
    engine.run_until(engine.now() + 100'000);
    EXPECT_EQ(timer.notified(), expect_notify) << what;
    timer.clear();
  };

  ASSERT_TRUE(sub.post_write(sub.cpu(1), lo + 40, data).has_value());
  check(true, "posted write overlapping the end");
  ASSERT_TRUE(sub.post_write(sub.cpu(1), lo - 32, data).has_value());
  check(false, "posted write ending one byte before the range");
  ASSERT_TRUE(sub.post_write(sub.cpu(1), lo + 64, data).has_value());
  check(false, "posted write starting right after the range");
  const fabric::SgEntry sg[] = {{*base, 16}, {lo + 60, 16}};
  ASSERT_TRUE(sub.write_sg(sub.cpu(1), sg, mem::Payload::copy_of(data)).has_value());
  check(true, "scatter write with one chunk inside");
  ASSERT_TRUE(sub.poke(1, lo, data).is_ok());
  check(true, "poke");
  ASSERT_TRUE(sub.host_dram(1).write(lo + 8, data).is_ok());
  check(true, "direct store into the backing memory");

  for (const char* plan_text : {"seed=3;flip_dma_bits:src=1,dst=1,nth=1,count=1",
                                "seed=3;torn_dma_write:src=1,dst=1,nth=1,count=1"}) {
    auto plan = fault::parse_plan(plan_text);
    ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
    sub.set_fault_plan(std::move(*plan));
    ASSERT_TRUE(sub.post_write(sub.cpu(1), lo, data).has_value());
    const auto& fs = sub.faults()->stats();
    EXPECT_EQ(fs.bit_flips.value() + fs.torn_writes.value(), 1u) << plan_text;
    sub.set_fault_plan(std::nullopt);
    check(true, plan_text);
  }

  watch->reset();
  ASSERT_TRUE(sub.post_write(sub.cpu(1), lo, data).has_value());
  ASSERT_TRUE(sub.poke(1, lo, data).is_ok());
  check(false, "write after unwatch");
}

TEST_P(SubstrateTest, WriteWatchOnSharedMemory) {
  // The CXL pool is one memory behind every host's HDM window; on NTB the
  // same role is played by another host's DRAM seen through a window.
  Testbed tb(config(2));
  fabric::Substrate& sub = tb.substrate();
  sim::Engine& engine = tb.engine();
  sim::PollTimer timer(engine);
  std::uint64_t viewer_addr = 0;  // the range as host 1 sees it
  std::uint64_t owner_addr = 0;   // the range in host 0's space (NTB only)
  fabric::Window window;
  if (GetParam() == fabric::SubstrateKind::cxl) {
    viewer_addr = cxl::PoolFabric::kPoolBase + 0x10000;
    owner_addr = viewer_addr;
  } else {
    auto base = tb.cluster().alloc_dram(0, 4096, 4096);
    ASSERT_TRUE(base.has_value()) << base.status().to_string();
    auto w = sub.map_window(fabric::MapIntent::cpu, 1, 0, *base, 4096);
    ASSERT_TRUE(w.has_value()) << w.status().to_string();
    window = std::move(*w);
    viewer_addr = window.addr();
    owner_addr = *base;
  }
  auto watch = sub.watch_writes(1, viewer_addr, 128, timer);
  ASSERT_TRUE(watch.has_value()) << watch.status().to_string();

  const Bytes data(16, std::byte{0x11});
  // A store by another host, addressed in its own space.
  ASSERT_TRUE(sub.post_write(sub.cpu(0), owner_addr + 112, data).has_value());
  engine.run_until(engine.now() + 100'000);
  EXPECT_TRUE(timer.notified());
  timer.clear();
  ASSERT_TRUE(sub.post_write(sub.cpu(0), owner_addr + 128, data).has_value());
  engine.run_until(engine.now() + 100'000);
  EXPECT_FALSE(timer.notified());
}

TEST_P(SubstrateTest, WriteWatchRejectsDeviceRegisters) {
  Testbed tb(config(1));
  sim::PollTimer timer(tb.engine());
  auto bar = tb.substrate().bar_address(tb.nvme_endpoint(), 0);
  ASSERT_TRUE(bar.has_value()) << bar.status().to_string();
  EXPECT_FALSE(tb.substrate().watch_writes(0, *bar, 64, timer).has_value());
}

// --- transaction contract edges ----------------------------------------------------

TEST_P(SubstrateTest, ScatterLengthMismatchPostsNothing) {
  Testbed tb(config(1));
  fabric::Substrate& sub = tb.substrate();
  auto base = tb.cluster().alloc_dram(0, 8192, 4096);
  ASSERT_TRUE(base.has_value()) << base.status().to_string();
  const fabric::SgEntry sg[] = {{*base, 4096}};
  const std::size_t resident_before = sub.host_dram(0).resident_pages();
  const std::uint64_t writes_before = sub.stats().posted_writes.value();

  auto arrival = sub.write_sg(sub.cpu(0), sg, mem::Payload::copy_of(Bytes(8192)));
  ASSERT_FALSE(arrival.has_value());
  EXPECT_EQ(arrival.error_code(), Errc::invalid_argument);
  // Nothing was posted, and nothing lands later.
  EXPECT_EQ(sub.stats().posted_writes.value(), writes_before);
  tb.engine().run_until(tb.engine().now() + 100'000);
  EXPECT_EQ(sub.host_dram(0).resident_pages(), resident_before);
}

TEST_P(SubstrateTest, UnmappedReadIsOneUnsupportedRequest) {
  Testbed tb(config(1));
  fabric::Substrate& sub = tb.substrate();
  // Above host DRAM, below the MMIO window (and the CXL pool): routes nowhere.
  constexpr std::uint64_t kHole = fabric::Substrate::kMmioBase / 2;
  const std::uint64_t ur_before = sub.stats().unsupported_requests.value();
  const std::uint64_t reads_before = sub.stats().reads.value();

  auto got = tb.wait(sub.read(sub.cpu(0), kHole, 64));
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.error_code(), Errc::unmapped_address);
  EXPECT_EQ(sub.stats().unsupported_requests.value(), ur_before + 1);
  EXPECT_EQ(sub.stats().reads.value(), reads_before);
}

TEST_P(SubstrateTest, TornScatterWriteLandsOnlyLeadingBytes) {
  Testbed tb(config(1));
  fabric::Substrate& sub = tb.substrate();
  auto base = tb.cluster().alloc_dram(0, 8192, 4096);
  ASSERT_TRUE(base.has_value()) << base.status().to_string();
  ASSERT_TRUE(sub.host_dram(0).write(*base, Bytes(8192)).is_ok());

  auto plan = fault::parse_plan("seed=4;torn_dma_write:src=0,dst=0,nth=1,count=1");
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  sub.set_fault_plan(std::move(*plan));
  // Two chunks, out of address order: delivery follows the scatter list.
  const fabric::SgEntry sg[] = {{*base + 4096, 4096}, {*base, 4096}};
  auto arrival =
      sub.write_sg(sub.cpu(0), sg, mem::Payload::copy_of(Bytes(8192, std::byte{0xa5})));
  ASSERT_TRUE(arrival.has_value()) << arrival.status().to_string();
  EXPECT_EQ(sub.faults()->stats().torn_writes.value(), 1u);
  tb.engine().run_until(*arrival + 1);

  // The payload in scatter order: a prefix of 0xa5 bytes, zeros after it.
  Bytes landed(8192);
  ASSERT_TRUE(sub.host_dram(0).read(*base + 4096, ByteSpan(landed).first(4096)).is_ok());
  ASSERT_TRUE(sub.host_dram(0).read(*base, ByteSpan(landed).subspan(4096)).is_ok());
  const auto prefix = static_cast<std::size_t>(
      std::find(landed.begin(), landed.end(), std::byte{0}) - landed.begin());
  EXPECT_GT(prefix, 4096u);  // this seed tears the second chunk
  EXPECT_LT(prefix, landed.size());
  EXPECT_TRUE(std::all_of(landed.begin() + static_cast<std::ptrdiff_t>(prefix), landed.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
}

// --- copy-on-write pages: seeded operation soups ------------------------------------

/// One seeded soup of every operation that moves bytes between two host
/// memories, a block store and the substrate's transactions (one-range
/// posted writes and reads, scatter DMA), checked against flat reference
/// byte arrays. Whole aligned pages travel by reference, so
/// the soup mixes page-aligned and unaligned ranges: a store into a page
/// that a payload, the store or another range still shares must leave their
/// bytes alone. Each step also records which write watches fired; the
/// sequence must match what write() of the same ranges fires.
class CowSoup {
 public:
  static constexpr std::uint64_t kRegion = 64 * KiB;
  static constexpr std::uint32_t kBlock = 512;
  static constexpr std::uint64_t kStoreBlocks = kRegion / kBlock;
  static constexpr int kWatchesPerHost = 3;

  CowSoup(Testbed& tb, std::uint64_t seed)
      : tb_(tb), sub_(tb.substrate()), seed_(seed), rng_(seed), store_(kStoreBlocks, kBlock),
        store_ref_(kRegion) {
    for (fabric::HostId h = 0; h < 2; ++h) {
      auto base = tb.cluster().alloc_dram(h, kRegion, mem::kPageSize);
      EXPECT_TRUE(base.has_value()) << base.status().to_string();
      base_[h] = base.value_or(0);
      ref_[h] = make_pattern(kRegion, rng_.next());
      EXPECT_TRUE(dram(h).write(base_[h], ref_[h]).is_ok());
      for (int w = 0; w < kWatchesPerHost; ++w) {
        const std::uint64_t len = 1 + rng_.uniform(2 * mem::kPageSize);
        const std::uint64_t off = rng_.uniform(kRegion - len + 1);
        timers_.push_back(std::make_unique<sim::PollTimer>(tb.engine()));
        watched_.push_back({h, off, len});
        watches_.emplace_back(dram(h), base_[h] + off, len, *timers_.back());
      }
    }
  }

  void run(int steps) {
    for (step_ = 0; step_ < steps && !::testing::Test::HasFailure(); ++step_) {
      const std::uint64_t op = rng_.uniform(12);
      switch (op) {
        case 0: write(); break;
        case 1: copy(); break;
        case 2: payload_round_trip(); break;
        case 3: scatter_write(); break;
        case 4: gather_read(); break;
        case 5: store_write(); break;
        case 6: store_read(); break;
        case 7: store_zeroes(); break;
        case 8: posted_write(); break;
        case 9: scalar_read(); break;
        default: read_check(); break;
      }
      ops_.push_back(op);
      settle_watches();
    }
    for (fabric::HostId h = 0; h < 2; ++h) {
      Bytes got(kRegion);
      ASSERT_TRUE(dram(h).read(base_[h], got).is_ok());
      EXPECT_EQ(got, ref_[h]) << where() << ", host " << h;
    }
    mem::Payload media;
    ASSERT_TRUE(store_.read(0, kStoreBlocks, media).is_ok());
    EXPECT_EQ(media.to_bytes(), store_ref_) << where();
  }

  [[nodiscard]] const std::vector<std::uint64_t>& fired() const { return fired_; }
  [[nodiscard]] const std::vector<std::uint64_t>& expected() const { return expected_; }
  /// The operation each step drew (the case labels of run()).
  [[nodiscard]] const std::vector<std::uint64_t>& ops() const { return ops_; }

 private:
  struct Watched {
    fabric::HostId host = 0;
    std::uint64_t off = 0;
    std::uint64_t len = 0;
  };

  mem::PhysMem& dram(fabric::HostId h) { return sub_.host_dram(h); }
  fabric::HostId host() { return static_cast<fabric::HostId>(rng_.uniform(2)); }
  std::string where() const {
    return "seed " + std::to_string(seed_) + " step " + std::to_string(step_);
  }

  /// Where `len` bytes go in a region: page-aligned half the time.
  std::uint64_t place(std::uint64_t len) {
    const std::uint64_t room = kRegion - len;
    return rng_.uniform(2) == 0 ? rng_.uniform(room / mem::kPageSize + 1) * mem::kPageSize
                                : rng_.uniform(room + 1);
  }
  /// A length: whole pages half the time.
  std::uint64_t length() {
    return rng_.uniform(2) == 0 ? (1 + rng_.uniform(4)) * mem::kPageSize
                                : 1 + rng_.uniform(3 * mem::kPageSize);
  }

  /// A write of [off, off+len) of host `h`'s region: the watches it fires.
  void note(fabric::HostId h, std::uint64_t off, std::uint64_t len) {
    for (std::size_t i = 0; i < watched_.size(); ++i) {
      const Watched& w = watched_[i];
      if (w.host == h && off < w.off + w.len && w.off < off + len) expected_now_ |= 1ull << i;
    }
  }
  void settle_watches() {
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < timers_.size(); ++i) {
      if (timers_[i]->notified()) fired |= 1ull << i;
      timers_[i]->clear();
    }
    fired_.push_back(fired);
    expected_.push_back(std::exchange(expected_now_, 0));
  }

  void write() {
    const fabric::HostId h = host();
    const std::uint64_t len = length();
    const std::uint64_t off = place(len);
    const Bytes data = make_pattern(len, rng_.next());
    ASSERT_TRUE(dram(h).write(base_[h] + off, data).is_ok());
    std::copy(data.begin(), data.end(), ref_[h].begin() + static_cast<std::ptrdiff_t>(off));
    note(h, off, len);
  }

  void read_check() {
    const fabric::HostId h = host();
    const std::uint64_t len = length();
    const std::uint64_t off = place(len);
    Bytes got(len);
    ASSERT_TRUE(dram(h).read(base_[h] + off, got).is_ok());
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           ref_[h].begin() + static_cast<std::ptrdiff_t>(off)))
        << where();
  }

  /// copy_from across the two memories or within one, overlapping in
  /// either direction half the time.
  void copy() {
    const fabric::HostId dh = host();
    const fabric::HostId sh = host();
    const std::uint64_t len = length();
    const std::uint64_t doff = place(len);
    std::uint64_t soff = place(len);
    if (sh == dh && rng_.uniform(2) == 0) {
      static constexpr std::int64_t kShifts[] = {-5000, -4096, -1, 1, 17, 4096, 5000};
      const std::int64_t shifted = static_cast<std::int64_t>(doff) + kShifts[rng_.uniform(7)];
      soff = static_cast<std::uint64_t>(
          std::clamp<std::int64_t>(shifted, 0, static_cast<std::int64_t>(kRegion - len)));
    }
    ASSERT_TRUE(dram(dh).copy_from(base_[dh] + doff, dram(sh), base_[sh] + soff, len).is_ok());
    const Bytes moved = slice(ref_[sh], soff, len);
    std::copy(moved.begin(), moved.end(), ref_[dh].begin() + static_cast<std::ptrdiff_t>(doff));
    note(dh, doff, len);
  }

  static Bytes slice(const Bytes& b, std::uint64_t off, std::uint64_t len) {
    const auto at = b.begin() + static_cast<std::ptrdiff_t>(off);
    return Bytes(at, at + static_cast<std::ptrdiff_t>(len));
  }

  /// Damage `p` as a fault would (bit flip, torn, stale), and `expect` alike.
  void damage(mem::Payload& p, Bytes& expect) {
    switch (rng_.uniform(6)) {
      case 0: {
        const std::uint64_t bit = rng_.uniform(expect.size() * 8);
        p.flip_bit(bit);
        expect[bit / 8] ^= std::byte{1} << (bit % 8);
        break;
      }
      case 1: {
        const std::uint64_t keep = rng_.uniform(expect.size() + 1);
        p.truncate(keep);
        expect.resize(keep);
        break;
      }
      case 2:
        p.zero();
        std::fill(expect.begin(), expect.end(), std::byte{0});
        break;
      default:
        break;
    }
  }

  /// Store all of `p` somewhere in a random memory.
  void install(const mem::Payload& p, const Bytes& expect) {
    ASSERT_EQ(p.to_bytes(), expect) << where();
    if (p.size() == 0) return;
    const fabric::HostId h = host();
    const std::uint64_t off = place(p.size());
    mem::PayloadReader in(p);
    ASSERT_TRUE(dram(h).write(base_[h] + off, in, p.size()).is_ok());
    EXPECT_EQ(in.remaining(), 0u);
    std::copy(expect.begin(), expect.end(), ref_[h].begin() + static_cast<std::ptrdiff_t>(off));
    note(h, off, p.size());
  }

  void payload_round_trip() {
    const fabric::HostId h = host();
    const std::uint64_t len = length();
    const std::uint64_t off = place(len);
    mem::Payload p;
    ASSERT_TRUE(dram(h).read(base_[h] + off, len, p).is_ok());
    Bytes expect = slice(ref_[h], off, len);
    damage(p, expect);
    if (rng_.uniform(2) == 0) write();  // the source changes under the payload
    install(p, expect);
  }

  /// One to four disjoint chunks of host `h`'s region, each inside a page.
  std::vector<fabric::SgEntry> scatter(fabric::HostId h) {
    std::vector<std::uint64_t> pages(kRegion / mem::kPageSize);
    std::iota(pages.begin(), pages.end(), 0);
    const std::uint64_t k = 1 + rng_.uniform(4);
    std::vector<fabric::SgEntry> sg;
    for (std::uint64_t i = 0; i < k; ++i) {
      std::swap(pages[i], pages[i + rng_.uniform(pages.size() - i)]);
      const bool whole = rng_.uniform(2) == 0;
      const std::uint64_t off = whole ? 0 : rng_.uniform(mem::kPageSize);
      const std::uint64_t len = whole ? mem::kPageSize : 1 + rng_.uniform(mem::kPageSize - off);
      sg.push_back({base_[h] + pages[i] * mem::kPageSize + off, static_cast<std::uint32_t>(len)});
    }
    return sg;
  }

  /// Install a plan that fires `kind` once on host `h`'s next transfer.
  void arm(const char* kind, fabric::HostId h) {
    const std::string text = "seed=" + std::to_string(rng_.uniform(1000)) + ";" + kind +
                             ":src=" + std::to_string(h) + ",dst=" + std::to_string(h) +
                             ",nth=1,count=1";
    auto plan = fault::parse_plan(text);
    ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
    sub_.set_fault_plan(std::move(*plan));
  }

  /// How many faults the installed plan (if any) fired; removes the plan.
  std::uint64_t disarm() {
    std::uint64_t fired = 0;
    if (const fault::Injector* faults = sub_.faults()) {
      const auto& fs = faults->stats();
      fired = fs.bit_flips.value() + fs.torn_writes.value() + fs.posted_drops.value() +
              fs.stale_reads.value();
    }
    sub_.set_fault_plan(std::nullopt);
    return fired;
  }

  /// write_sg of a payload gathered from memory (sharing its pages) or of
  /// fresh bytes, sometimes bit-flipped or torn in flight.
  void scatter_write() {
    const fabric::HostId h = host();
    const std::vector<fabric::SgEntry> sg = scatter(h);
    std::uint64_t total = 0;
    for (const auto& e : sg) total += e.len;
    const std::uint64_t fault = rng_.uniform(8);  // 0: bit flip, 1: torn, else none
    mem::Payload p;
    Bytes expect;
    // A torn write is told from the bytes that landed, so it carries fresh
    // bytes that differ from what it overwrites.
    if (fault != 1 && rng_.uniform(2) == 0) {
      const fabric::HostId sh = host();
      const std::uint64_t soff = place(total);
      ASSERT_TRUE(dram(sh).read(base_[sh] + soff, total, p).is_ok());
      expect = slice(ref_[sh], soff, total);
    } else {
      expect = make_pattern(total, rng_.next());
      p = mem::Payload::copy_of(expect);
    }
    if (fault == 0) arm("flip_dma_bits", h);
    if (fault == 1) arm("torn_dma_write", h);
    auto arrival = sub_.write_sg(sub_.cpu(h), sg, std::move(p));
    const std::uint64_t damaged = disarm();
    ASSERT_TRUE(arrival.has_value()) << arrival.status().to_string();
    EXPECT_EQ(damaged, fault < 2 ? 1u : 0u) << where();
    if (rng_.uniform(2) == 0) write();  // the payload's source changes in flight
    tb_.engine().run_until(*arrival + 1);

    Bytes landed(kRegion);
    ASSERT_TRUE(dram(h).read(base_[h], landed).is_ok());
    // Delivered bytes in scatter order: all of them, or a torn prefix.
    std::uint64_t delivered = total;
    if (fault == 1) {
      // Up to the first byte in scatter order that does not show the payload.
      delivered = 0;
      std::uint64_t j = 0;
      for (const auto& e : sg) {
        const std::uint64_t at = e.addr - base_[h];
        for (std::uint64_t i = 0; i < e.len; ++i, ++j) {
          if (delivered == j && landed[at + i] == expect[j]) ++delivered;
        }
      }
    }
    std::uint64_t j = 0;
    for (const auto& e : sg) {
      const std::uint64_t at = e.addr - base_[h];
      if (j < delivered) note(h, at, std::min<std::uint64_t>(e.len, delivered - j));
      for (std::uint64_t i = 0; i < e.len; ++i, ++j) {
        if (j < delivered) ref_[h][at + i] = expect[j];
      }
    }
    if (fault == 0) {
      // Exactly one bit differs from the undamaged payload, inside it.
      int bits = 0;
      for (std::uint64_t i = 0; i < kRegion; ++i) {
        bits += std::popcount(std::to_integer<unsigned>(landed[i] ^ ref_[h][i]));
      }
      EXPECT_EQ(bits, 1) << where();
      ref_[h] = landed;
    }
    EXPECT_EQ(landed, ref_[h]) << where();
  }

  /// read_sg, sometimes stale, then the gathered payload stored elsewhere.
  void gather_read() {
    const fabric::HostId h = host();
    const std::vector<fabric::SgEntry> sg = scatter(h);
    Bytes expect;
    for (const auto& e : sg) {
      const Bytes part = slice(ref_[h], e.addr - base_[h], e.len);
      expect.insert(expect.end(), part.begin(), part.end());
    }
    const bool stale = rng_.uniform(8) == 0;
    if (stale) arm("stale_read", h);
    auto got = tb_.wait(sub_.read_sg(sub_.cpu(h), sg));
    const std::uint64_t stale_reads = disarm();
    ASSERT_TRUE(got.has_value()) << got.status().to_string();
    EXPECT_EQ(stale_reads, stale ? 1u : 0u) << where();
    if (stale) std::fill(expect.begin(), expect.end(), std::byte{0});
    if (rng_.uniform(2) == 0) write();  // memory changes under the gathered pages
    install(*got, expect);
  }

  /// post_write of one range, sometimes bit-flipped, torn or dropped in
  /// flight.
  void posted_write() {
    const fabric::HostId h = host();
    const std::uint64_t len = length();
    const std::uint64_t off = place(len);
    // Every byte differs from what it overwrites, so the bytes that landed
    // tell exactly how much of a torn write was delivered.
    Bytes data = make_pattern(len, rng_.next());
    for (std::uint64_t i = 0; i < len; ++i) {
      if (data[i] == ref_[h][off + i]) data[i] = ~data[i];
    }
    const std::uint64_t fault = rng_.uniform(8);  // 0: bit flip, 1: torn, 2: drop, else none
    if (fault == 0) arm("flip_dma_bits", h);
    if (fault == 1) arm("torn_dma_write", h);
    if (fault == 2) arm("drop_posted_write", h);
    auto arrival = sub_.post_write(sub_.cpu(h), base_[h] + off, data);
    const std::uint64_t faulted = disarm();
    ASSERT_TRUE(arrival.has_value()) << arrival.status().to_string();
    EXPECT_EQ(faulted, fault < 3 ? 1u : 0u) << where();
    const Bytes sent = std::exchange(data, Bytes(len));  // the buffer is free once posted
    tb_.engine().run_until(*arrival + 1);

    Bytes landed(kRegion);
    ASSERT_TRUE(dram(h).read(base_[h], landed).is_ok());
    std::uint64_t delivered = fault == 2 ? 0 : len;
    if (fault == 1) {
      delivered = 0;
      while (delivered < len && landed[off + delivered] == sent[delivered]) ++delivered;
      EXPECT_LT(delivered, len) << where();
    }
    if (delivered > 0) note(h, off, delivered);
    std::copy_n(sent.begin(), delivered, ref_[h].begin() + static_cast<std::ptrdiff_t>(off));
    if (fault == 0) {
      int bits = 0;
      for (std::uint64_t i = 0; i < kRegion; ++i) {
        bits += std::popcount(std::to_integer<unsigned>(landed[i] ^ ref_[h][i]));
      }
      EXPECT_EQ(bits, 1) << where();
      ref_[h] = landed;
    }
    EXPECT_EQ(landed, ref_[h]) << where();
  }

  /// read of one range, sometimes stale, then stored elsewhere.
  void scalar_read() {
    const fabric::HostId h = host();
    const std::uint64_t len = length();
    const std::uint64_t off = place(len);
    Bytes expect = slice(ref_[h], off, len);
    const bool stale = rng_.uniform(8) == 0;
    if (stale) arm("stale_read", h);
    auto got = tb_.wait(sub_.read(sub_.cpu(h), base_[h] + off, len));
    const std::uint64_t stale_reads = disarm();
    ASSERT_TRUE(got.has_value()) << got.status().to_string();
    EXPECT_EQ(stale_reads, stale ? 1u : 0u) << where();
    if (stale) std::fill(expect.begin(), expect.end(), std::byte{0});
    if (len >= 8) {
      const std::uint64_t at = rng_.uniform(len - 7);
      EXPECT_EQ(load_pod<std::uint64_t>(*got, at), load_pod<std::uint64_t>(expect, at))
          << where();
    }
    if (rng_.uniform(2) == 0) write();  // memory changes under the read bytes
    install(*got, expect);
  }

  /// A block range: page-aligned half the time.
  std::pair<std::uint64_t, std::uint32_t> blocks() {
    constexpr std::uint64_t kPerPage = mem::kPageSize / kBlock;
    const auto nblocks = static_cast<std::uint32_t>(1 + rng_.uniform(3 * kPerPage));
    const std::uint64_t room = kStoreBlocks - nblocks;
    const std::uint64_t slba = rng_.uniform(2) == 0 ? rng_.uniform(room / kPerPage + 1) * kPerPage
                                                    : rng_.uniform(room + 1);
    return {slba, nblocks};
  }

  void store_write() {
    const auto [slba, nblocks] = blocks();
    const std::uint64_t len = std::uint64_t{nblocks} * kBlock;
    const fabric::HostId h = host();
    const std::uint64_t off = place(len);
    mem::Payload p;
    ASSERT_TRUE(dram(h).read(base_[h] + off, len, p).is_ok());
    ASSERT_TRUE(store_.write(slba, nblocks, p).is_ok());
    const Bytes data = slice(ref_[h], off, len);
    std::copy(data.begin(), data.end(),
              store_ref_.begin() + static_cast<std::ptrdiff_t>(slba * kBlock));
  }

  void store_read() {
    const auto [slba, nblocks] = blocks();
    mem::Payload p;
    ASSERT_TRUE(store_.read(slba, nblocks, p).is_ok());
    const Bytes expect = slice(store_ref_, slba * kBlock, std::uint64_t{nblocks} * kBlock);
    if (rng_.uniform(2) == 0) store_write();  // the media changes under the payload
    install(p, expect);
  }

  void store_zeroes() {
    std::uint64_t slba = 0;
    std::uint32_t nblocks = 0;
    if (rng_.uniform(4) == 0) {
      // Whole 32 KiB chunks: the store drops them.
      constexpr std::uint32_t kChunkBlocks = 32 * KiB / kBlock;
      nblocks = kChunkBlocks;
      slba = rng_.uniform(kStoreBlocks / kChunkBlocks) * kChunkBlocks;
    } else {
      std::tie(slba, nblocks) = blocks();
    }
    ASSERT_TRUE(store_.write_zeroes(slba, nblocks).is_ok());
    std::fill_n(store_ref_.begin() + static_cast<std::ptrdiff_t>(slba * kBlock),
                std::uint64_t{nblocks} * kBlock, std::byte{0});
  }

  Testbed& tb_;
  fabric::Substrate& sub_;
  std::uint64_t seed_;
  Rng rng_;
  int step_ = 0;
  std::uint64_t base_[2] = {};
  Bytes ref_[2];
  nvme::BlockStore store_;
  Bytes store_ref_;
  std::vector<std::unique_ptr<sim::PollTimer>> timers_;
  std::vector<Watched> watched_;
  std::vector<mem::WriteWatch> watches_;
  std::uint64_t expected_now_ = 0;
  std::vector<std::uint64_t> fired_;
  std::vector<std::uint64_t> expected_;
  std::vector<std::uint64_t> ops_;
};

TEST_P(SubstrateTest, CopyOnWriteSoupsMatchFlatReference) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Testbed tb(config(2));
    CowSoup soup(tb, seed);
    soup.run(400);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    const auto [fired, expected] =
        std::mismatch(soup.fired().begin(), soup.fired().end(), soup.expected().begin());
    EXPECT_TRUE(fired == soup.fired().end())
        << "seed " << seed << " step " << (fired - soup.fired().begin()) << " (operation "
        << soup.ops()[static_cast<std::size_t>(fired - soup.fired().begin())]
        << "): watches fired " << *fired << ", a write() of the same ranges fires "
        << *expected;
  }
}

// --- torn doorbell ---------------------------------------------------------------------

TEST_P(SubstrateTest, DoorbellWriteTornToNothingIsOneUnsupportedRequest) {
  Testbed tb(config(1));
  fabric::Substrate& sub = tb.substrate();
  auto ref = tb.service().acquire(tb.device_id(), smartio::AcquireMode::shared);
  ASSERT_TRUE(ref.has_value()) << ref.status().to_string();
  auto bar = ref->map_bar(/*node=*/0, /*bar=*/0);
  ASSERT_TRUE(bar.has_value()) << bar.status().to_string();

  // A one-byte store can only tear to its empty prefix. The empty store
  // still reaches the doorbell register, which rejects it.
  auto plan = fault::parse_plan("seed=3;torn_dma_write:src=0,class=bar,nth=1,count=1");
  ASSERT_TRUE(plan.has_value()) << plan.status().to_string();
  sub.set_fault_plan(std::move(*plan));
  const std::uint64_t ur_before = sub.stats().unsupported_requests.value();
  const std::byte one{0x01};
  auto arrival = sub.post_write(sub.cpu(0), bar->addr() + nvme::reg::kDoorbellBase, {&one, 1});
  ASSERT_TRUE(arrival.has_value()) << arrival.status().to_string();
  tb.engine().run_until(*arrival + 1);
  EXPECT_EQ(sub.faults()->stats().torn_writes.value(), 1u);
  EXPECT_EQ(sub.stats().unsupported_requests.value(), ur_before + 1);
}

// --- run-granular routing ----------------------------------------------------------

/// Seeded scatter lists of contiguous runs and scattered pages, started a
/// few pages before an address where a translation ends: a DRAM, pool or
/// BAR region end, and on NTB every LUT window boundary, an unprogrammed
/// entry and a remote region end inside a window. resolve_sg() must decide
/// and count exactly what routing each entry alone does.
TEST_P(SubstrateTest, RunRoutingMatchesPerEntryRouting) {
  using Probe = fabric::SubstrateProbe;
  Testbed tb(config(2));
  fabric::Substrate& sub = tb.substrate();
  constexpr std::uint64_t kPage = mem::kPageSize;
  const fabric::EndpointId nvme = tb.nvme_endpoint();
  const std::uint64_t bar = sub.bar_address(nvme, 0).value_or(0);
  const std::uint64_t bar_end = bar + sub.endpoint(nvme)->bar_size(0);

  // Per viewer host: addresses a run crosses, most where a translation
  // ends, some inside one.
  std::vector<std::uint64_t> edges[2];
  for (fabric::HostId h = 0; h < 2; ++h) {
    edges[h] = {64 * kPage, 4096 * kPage, sub.host_dram(h).size()};
  }
  edges[0].insert(edges[0].end(), {bar, bar_end});
  if (GetParam() == fabric::SubstrateKind::cxl) {
    // One pool and one MMIO space in every host's view.
    const std::uint64_t pool = cxl::PoolFabric::kPoolBase;
    const std::uint64_t pool_end = pool + tb.config().cxl.pool_size;
    for (fabric::HostId h = 0; h < 2; ++h) {
      edges[h].insert(edges[h].end(), {pool + 16 * kPage, pool + 4096 * kPage, pool_end});
    }
    edges[1].insert(edges[1].end(), {bar, bar_end});
  } else {
    pcie::Fabric& f = tb.fabric();
    constexpr std::uint64_t kWindow = Testbed::kNtbWindowSize;
    for (fabric::HostId h = 0; h < 2; ++h) {
      const fabric::HostId remote = 1 - h;
      const std::uint64_t remote_end = sub.host_dram(remote).size();
      auto ntb = f.host_ntb(h);
      ASSERT_TRUE(ntb.has_value()) << ntb.status().to_string();
      auto first = f.ntb_alloc_run(*ntb, 6);
      ASSERT_TRUE(first.has_value()) << first.status().to_string();
      // Adjacent windows forward to unrelated places; entry 2 stays
      // unprogrammed; entries 3 and 4 end at the remote DRAM end, mid-window
      // and with the window; entry 5 forwards to the NVMe BAR from host 1.
      const std::uint64_t bases[] = {8 * kWindow, 3 * kWindow + 5 * kPage, 0,
                                     remote_end - kWindow / 2, remote_end - kWindow,
                                     h == 1 ? bar : 16 * kWindow};
      for (std::uint32_t k = 0; k < 6; ++k) {
        if (k == 2) continue;
        ASSERT_TRUE(f.ntb_program(*ntb, *first + k, remote, bases[k]).is_ok());
      }
      const std::uint64_t aperture = f.ntb_window_address(*ntb, *first).value_or(0);
      for (std::uint64_t k = 0; k <= 6; ++k) edges[h].push_back(aperture + k * kWindow);
      for (const std::uint64_t k : {0, 1, 3, 4}) {
        edges[h].push_back(aperture + k * kWindow + kWindow / 2);
      }
      if (h == 1) edges[h].push_back(aperture + 5 * kWindow + (bar_end - bar));
    }
  }

  const fabric::Initiator initiators[] = {sub.cpu(0), sub.cpu(1), Probe::device(sub, nvme)};
  Rng rng(GetParam() == fabric::SubstrateKind::ntb ? 0x2f1 : 0x2f2);
  const auto entry_len = [&]() -> std::uint32_t {
    const std::uint64_t kind = rng.uniform(10);
    if (kind == 0) return 0;
    if (kind < 7) return kPage;
    return static_cast<std::uint32_t>(1 + rng.uniform(kPage));
  };
  // Somewhere up to three pages before an edge, page-aligned most times.
  const auto near_edge = [&](const std::vector<std::uint64_t>& at) {
    std::uint64_t addr = at[rng.uniform(at.size())] - rng.uniform(4) * kPage;
    if (rng.uniform(5) == 0) addr += rng.uniform(kPage);
    return addr;
  };

  std::map<std::string, int> outcomes;
  for (int trial = 0; trial < 3000; ++trial) {
    const fabric::Initiator who = initiators[rng.uniform(3)];
    std::vector<fabric::SgEntry> sg;
    for (std::uint64_t s = 0, segments = 1 + rng.uniform(3); s < segments; ++s) {
      std::uint64_t addr = near_edge(edges[who.host]);
      const std::uint64_t n = 1 + rng.uniform(8);
      const bool contiguous = rng.uniform(2) == 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint32_t len = entry_len();
        sg.push_back({addr, len});
        addr = contiguous ? addr + len : near_edge(edges[who.host]);
      }
    }
    const bool is_store = rng.uniform(2) == 0;
    const bool link_down = rng.uniform(8) == 0;  // host 1's NTB cable or CXL port
    ASSERT_TRUE(sub.set_host_link(1, !link_down).is_ok());
    const Probe::Outcome runs = Probe::by_runs(sub, who, sg, is_store);
    const Probe::Outcome entries = Probe::by_entries(sub, who, sg, is_store);
    ASSERT_TRUE(sub.set_host_link(1, true).is_ok());
    ASSERT_EQ(runs, entries) << "trial " << trial << " (" << sg.size() << " entries)";
    ++outcomes[runs.status.substr(0, runs.status.find(':'))];
  }
  // Not vacuous: lists that resolve and lists that fail for each reason.
  EXPECT_GT(outcomes["ok"], 300);
  EXPECT_GT(outcomes["unmapped_address"], 100);
  EXPECT_GT(outcomes["unavailable"], 20);
  if (GetParam() == fabric::SubstrateKind::ntb) {
    EXPECT_GT(outcomes["out_of_range"], 100);  // an entry across a window boundary
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, SubstrateTest,
                         ::testing::Values(fabric::SubstrateKind::ntb,
                                           fabric::SubstrateKind::cxl),
                         [](const auto& info) {
                           return std::string(fabric::substrate_name(info.param));
                         });

// --- backdoor seal guard (satellite: debug-build peek/poke assertion) --------------

class BackdoorGuardTest : public ::testing::TestWithParam<fabric::SubstrateKind> {};

TEST_P(BackdoorGuardTest, SealedCrossHostBackdoorIsRejected) {
#ifdef NDEBUG
  GTEST_SKIP() << "backdoor guard compiles out in release builds";
#else
  Testbed tb(substrate_testbed(GetParam(), 2));
  fabric::Substrate& sub = tb.substrate();

  // A window from host 1 onto the device's BAR (the device lives in host
  // 0): a backdoor access through it crosses hosts on both substrates —
  // through the NTB aperture on PCIe, over CXL.io p2p on the pool.
  auto ref = tb.service().acquire(tb.device_id(), smartio::AcquireMode::shared);
  ASSERT_TRUE(ref.has_value()) << ref.status().to_string();
  auto bar = ref->map_bar(/*node=*/1, /*bar=*/0);
  ASSERT_TRUE(bar.has_value()) << bar.status().to_string();
  const std::uint64_t cap_addr = bar->addr() + nvme::reg::kCap;

  // Unsealed (bring-up): cross-host peek is allowed and reads the register.
  Bytes got(8);
  ASSERT_TRUE(sub.peek(1, cap_addr, got).is_ok());
  EXPECT_NE(load_pod<std::uint64_t>(got), 0u);
  const std::uint64_t violations_before = sub.stats().backdoor_violations.value();

  sub.seal_backdoors();

  // Same-host backdoor access stays legal (test assertions on local state).
  auto addr = tb.cluster().alloc_dram(/*node=*/1, 4096, 4096);
  ASSERT_TRUE(addr.has_value());
  Bytes word(8, std::byte{0x42});
  EXPECT_TRUE(sub.poke(1, *addr, word).is_ok());
  EXPECT_TRUE(sub.peek(1, *addr, got).is_ok());

  // Cross-host access is now a contract violation: rejected and counted.
  Status st = sub.peek(1, cap_addr, got);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st, Status(Errc::permission_denied, ""));
  st = sub.peek(1, cap_addr, got);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(sub.stats().backdoor_violations.value(), violations_before + 2);

  // unseal (e.g. for a post-mortem dump) restores the bring-up behavior.
  sub.unseal_backdoors();
  EXPECT_TRUE(sub.peek(1, cap_addr, got).is_ok());
#endif
}

// The production stack itself must never trip the guard: a full bring-up,
// I/O, and teardown with sealed backdoors records zero violations. (The
// remote-client data-path test above also checks this; this one pins the
// manager-side admin path on host 0.)
TEST_P(BackdoorGuardTest, ProductionPathsStaySealedClean) {
#ifdef NDEBUG
  GTEST_SKIP() << "backdoor guard compiles out in release builds";
#else
  Testbed tb(substrate_testbed(GetParam(), 2));
  auto stack = bring_up(tb, 0, 1);
  ASSERT_TRUE(stack.has_value()) << stack.status().to_string();
  tb.substrate().seal_backdoors();

  write_read_verify(tb, *stack->client, 1, /*lba=*/512, 16 * 1024, /*seed=*/0x3C);

  EXPECT_EQ(tb.substrate().stats().backdoor_violations.value(), 0u);
#endif
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, BackdoorGuardTest,
                         ::testing::Values(fabric::SubstrateKind::ntb,
                                           fabric::SubstrateKind::cxl),
                         [](const auto& info) {
                           return std::string(fabric::substrate_name(info.param));
                         });

}  // namespace
}  // namespace nvmeshare
