// Unit tests for common utilities: status/result, RNG, stats, byte helpers.
#include <gtest/gtest.h>

#include <cmath>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/token_bucket.hpp"
#include "common/units.hpp"

namespace nvmeshare {
namespace {

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::ok);
  EXPECT_EQ(st.to_string(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st(Errc::not_found, "missing thing");
  EXPECT_FALSE(st.is_ok());
  EXPECT_FALSE(static_cast<bool>(st));
  EXPECT_EQ(st.to_string(), "not_found: missing thing");
}

TEST(Result, HoldsValue) {
  Result<int> r = 5;
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().is_ok());
  EXPECT_EQ(r.value_or(9), 5);
}

TEST(Result, HoldsError) {
  Result<int> r(Errc::timed_out, "too slow");
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(r.error_code(), Errc::timed_out);
  EXPECT_EQ(r.value_or(9), 9);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(3);
  ASSERT_TRUE(r.has_value());
  auto owned = std::move(r).value();
  EXPECT_EQ(*owned, 3);
}

TEST(Units, LiteralsAndHelpers) {
  EXPECT_EQ(1_us, 1000);
  EXPECT_EQ(2_ms, 2'000'000);
  EXPECT_EQ(1_s, 1'000'000'000);
  EXPECT_EQ(align_up(4097, 4096), 8192u);
  EXPECT_EQ(align_down(4097, 4096), 4096u);
  EXPECT_EQ(div_ceil(9, 4), 3u);
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(4097));
  EXPECT_FALSE(is_pow2(0));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  bool differs_from_c = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) differs_from_c = true;
  }
  EXPECT_TRUE(differs_from_c);
}

TEST(Rng, UniformBoundIsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, LognormalMedianRoughlyCorrect) {
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) samples.push_back(rng.lognormal(1000.0, 0.1));
  std::sort(samples.begin(), samples.end());
  const double median = samples[samples.size() / 2];
  EXPECT_NEAR(median, 1000.0, 30.0);
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(5);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(LatencyRecorder, PercentilesOnKnownData) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.add(i * 1000);
  EXPECT_EQ(rec.min(), 1000);
  EXPECT_EQ(rec.max(), 100'000);
  EXPECT_NEAR(rec.percentile(50), 50'500, 1000);
  EXPECT_NEAR(rec.percentile(99), 99'010, 1000);
  EXPECT_NEAR(rec.mean(), 50'500, 1);
}

TEST(LatencyRecorder, SingleSample) {
  LatencyRecorder rec;
  rec.add(777);
  EXPECT_EQ(rec.min(), 777);
  EXPECT_EQ(rec.max(), 777);
  EXPECT_DOUBLE_EQ(rec.percentile(50), 777.0);
  EXPECT_DOUBLE_EQ(rec.stddev(), 0.0);
}

TEST(LatencyRecorder, PercentileIsMonotonic) {
  LatencyRecorder rec;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) rec.add(static_cast<sim::Duration>(rng.uniform(1'000'000)));
  double prev = 0;
  for (double p = 0; p <= 100; p += 0.5) {
    const double v = rec.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(BoxSummary, FromRecorder) {
  LatencyRecorder rec;
  for (int i = 1; i <= 1000; ++i) rec.add(i * 10);
  auto box = BoxSummary::from("test", rec);
  EXPECT_EQ(box.count, 1000u);
  EXPECT_DOUBLE_EQ(box.min_us, 0.01);
  EXPECT_DOUBLE_EQ(box.max_us, 10.0);
  EXPECT_GT(box.p75_us, box.p25_us);
  EXPECT_GE(box.p99_us, box.p75_us);
  const std::string row = format_box_row(box);
  EXPECT_NE(row.find("test"), std::string::npos);
}

TEST(AsciiBoxplot, RendersOneLinePerBox) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.add(i * 100);
  std::vector<BoxSummary> boxes{BoxSummary::from("a", rec), BoxSummary::from("b", rec)};
  const std::string out = render_ascii_boxplot(boxes);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);  // 2 boxes + axis
  EXPECT_NE(out.find('#'), std::string::npos);             // median marker
}

TEST(TokenBucket, StartsFullThenPacesToItsRate) {
  TokenBucket bucket;
  bucket.arm(1000, 2, 0);  // 1000 tokens/s: one per microsecond
  EXPECT_EQ(bucket.charge(0, 1), 0);
  EXPECT_EQ(bucket.charge(0, 1), 0);
  EXPECT_EQ(bucket.charge(0, 1), 1'000'000);  // stall until the deficit refills
  EXPECT_EQ(bucket.charge(1'000'000, 1), 1'000'000);
}

TEST(TokenBucket, DisarmedNeverStalls) {
  TokenBucket bucket;
  bucket.arm(0, 1, 0);
  EXPECT_EQ(bucket.charge(0, 1'000'000), 0);
}

TEST(TokenBucket, LongIdleGapRefillsToCapacityWithoutOverflow) {
  // 1e9 tokens/s over a 1e12 ns gap: elapsed x rate is 1e21, past the
  // 64-bit range. The refill must clamp to a full bucket rather than wrap.
  TokenBucket bucket;
  bucket.arm(1'000'000'000, 1 << 20, 0);
  const sim::Duration stall = bucket.charge(0, 4u << 20);  // deep deficit
  EXPECT_EQ(stall, 3 << 20);  // 3 MiB over budget at 1 token/ns
  const sim::Time later = 1'000'000'000'000;
  EXPECT_EQ(bucket.charge(later, 1 << 20), 0);
  EXPECT_EQ(bucket.scaled, 0);
  EXPECT_EQ(bucket.charge(later, 1), 1);
}

TEST(Bytes, PatternRoundTrip) {
  Bytes buf = make_pattern(4096, 0x1234);
  EXPECT_TRUE(check_pattern(buf, 0x1234));
  EXPECT_FALSE(check_pattern(buf, 0x1235));
  buf[100] ^= std::byte{1};
  EXPECT_FALSE(check_pattern(buf, 0x1234));
}

TEST(Bytes, PatternsDifferAcrossSeeds) {
  Bytes a = make_pattern(64, 1);
  Bytes b = make_pattern(64, 2);
  EXPECT_NE(a, b);
}

TEST(Bytes, PodRoundTrip) {
  Bytes buf(16);
  store_pod(buf, std::uint64_t{0xdeadbeefcafef00d}, 4);
  EXPECT_EQ(load_pod<std::uint64_t>(buf, 4), 0xdeadbeefcafef00dULL);
}

TEST(Bytes, HexdumpTruncates) {
  Bytes buf(1024, std::byte{0xAB});
  const std::string dump = hexdump(buf, 32);
  EXPECT_NE(dump.find("ab ab"), std::string::npos);
  EXPECT_NE(dump.find("..."), std::string::npos);
}

}  // namespace
}  // namespace nvmeshare
