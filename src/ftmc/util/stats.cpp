#include "ftmc/util/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace ftmc::util {

void RunningStats::add(double sample) noexcept {
  ++count_;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile: no samples");
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

double percentile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile: no samples");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile: q out of range");
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const auto upper = std::min(lower + 1, sorted.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return sorted[lower] + fraction * (sorted[upper] - sorted[lower]);
}

}  // namespace ftmc::util
