// Latency sample collection and summary statistics. The benchmark harness
// reports the same shape as the paper's Figure 10: boxplots whose whiskers
// run from the minimum to the 99th percentile.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace nvmeshare {

/// Accumulates raw latency samples (nanoseconds) and computes order
/// statistics on demand.
class LatencyRecorder {
 public:
  void add(sim::Duration ns) { samples_.push_back(ns); }
  void reserve(std::size_t n) { samples_.reserve(n); }
  void clear() {
    samples_.clear();
    sorted_.clear();
  }

  /// Append every sample of `other`; used by the multi-host benches to fold
  /// per-host recorders into one cluster-wide distribution.
  void merge(const LatencyRecorder& other);

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] const std::vector<sim::Duration>& samples() const noexcept { return samples_; }

  /// Percentile by linear interpolation between closest ranks. `p` is
  /// clamped to [0,100]. Returns 0.0 when there are no samples (asserts in
  /// debug builds — callers should check count() first).
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] sim::Duration min() const;
  [[nodiscard]] sim::Duration max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;

 private:
  void ensure_sorted() const;

  std::vector<sim::Duration> samples_;
  mutable std::vector<sim::Duration> sorted_;  // lazily materialized
};

/// Summary of one boxplot: the quantities Figure 10 displays.
struct BoxSummary {
  std::string label;
  std::size_t count = 0;
  double min_us = 0;
  double p25_us = 0;
  double p50_us = 0;
  double p75_us = 0;
  double p99_us = 0;
  double max_us = 0;
  double mean_us = 0;
  double stddev_us = 0;

  static BoxSummary from(std::string label, const LatencyRecorder& rec);
};

/// One formatted table row (fixed-width columns) for a BoxSummary.
std::string format_box_row(const BoxSummary& box);
/// Header matching format_box_row.
std::string format_box_header();

/// Render an ASCII boxplot panel (min..p99 whiskers, p25/p50/p75 box) for a
/// set of summaries on a shared microsecond axis, mimicking Figure 10.
std::string render_ascii_boxplot(const std::vector<BoxSummary>& boxes, int width = 72);

}  // namespace nvmeshare
