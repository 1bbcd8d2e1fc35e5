// Small descriptive-statistics helpers used by the Monte-Carlo simulator and
// the experiment benches (mean and percentiles over WCRT samples).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ftmc::util {

/// Streaming mean (Welford's update): O(1) memory, no stored samples.
class RunningStats {
 public:
  void add(double sample) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
};

/// Percentile of a sample set via linear interpolation (q in [0,1]).
/// Copies and sorts; intended for bench-sized sample vectors.
double percentile(std::vector<double> samples, double q);

/// Same interpolation over an already ascending-sorted sample set — no copy,
/// no sort.  Callers needing several percentiles of one sample set sort once
/// and query this repeatedly.
double percentile_sorted(std::span<const double> sorted, double q);

}  // namespace ftmc::util
