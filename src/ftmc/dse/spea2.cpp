#include "ftmc/dse/spea2.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace ftmc::dse {

bool dominates(const ObjectiveVector& a, const ObjectiveVector& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("dominates: dimensionality mismatch");
  bool strictly_better = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] > b[k]) return false;
    if (a[k] < b[k]) strictly_better = true;
  }
  return strictly_better;
}

namespace {

double distance2(const ObjectiveVector& a, const ObjectiveVector& b) {
  double sum = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double d = a[k] - b[k];
    sum += d * d;
  }
  return sum;
}

}  // namespace

std::vector<double> spea2_fitness(const std::vector<ObjectiveVector>& points) {
  const std::size_t n = points.size();
  std::vector<double> fitness(n, 0.0);
  if (n == 0) return fitness;

  // The objectives once, row-major n x m.
  const std::size_t m = points[0].size();
  std::vector<double> objectives(n * m);
  for (std::size_t i = 0; i < n; ++i) {
    if (points[i].size() != m)
      throw std::invalid_argument("dominates: dimensionality mismatch");
    std::copy(points[i].begin(), points[i].end(),
              objectives.begin() + static_cast<std::ptrdiff_t>(i * m));
  }

  // One pass over the unordered pairs decides dominance both ways (a
  // dominates b when a is nowhere worse and somewhere better; NaN compares
  // as neither) and fills both rows of the squared-distance matrix:
  // (a - b)^2 and (b - a)^2 are the same double, summed in the same
  // objective order.  dominated_by[i * n + j] is set when j dominates i.
  std::vector<std::size_t> strength(n, 0);
  std::vector<std::uint8_t> dominated_by(n * n, 0);
  std::vector<double> distance(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* a = objectives.data() + i * m;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double* b = objectives.data() + j * m;
      bool a_better = false;
      bool b_better = false;
      double sum = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        a_better = a_better || a[k] < b[k];
        b_better = b_better || b[k] < a[k];
        const double d = a[k] - b[k];
        sum += d * d;
      }
      if (a_better && !b_better) {
        dominated_by[j * n + i] = 1;
        ++strength[i];
      } else if (b_better && !a_better) {
        dominated_by[i * n + j] = 1;
        ++strength[j];
      }
      distance[i * n + j] = sum;
      distance[j * n + i] = sum;
    }
  }
  // Raw fitness row by row: each i still sums its dominators' strengths in
  // ascending j, so the doubles are bit-identical to a column scan.
  for (std::size_t i = 0; i < n; ++i) {
    double raw = 0.0;
    const std::uint8_t* row = dominated_by.data() + i * n;
    for (std::size_t j = 0; j < n; ++j)
      if (row[j]) raw += static_cast<double>(strength[j]);
    fitness[i] = raw;
  }

  // Density via the k-th nearest neighbour.  Only the k-th smallest
  // distance is read, so each row is partitioned in place, never sorted:
  // its own zero moves to the end and the first n - 1 entries are the
  // distances to the others.  No later step reads row i again.
  const auto k = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    double sigma = 0.0;
    if (n > 1) {
      double* const row = distance.data() + i * n;
      std::swap(row[i], row[n - 1]);
      double* const kth = row + (std::min(k, n - 1) - 1);
      std::nth_element(row, kth, row + (n - 1));
      sigma = std::sqrt(*kth);
    }
    fitness[i] += 1.0 / (sigma + 2.0);
  }
  return fitness;
}

std::vector<std::size_t> pareto_front(
    const std::vector<ObjectiveVector>& points) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j)
      if (j != i && dominates(points[j], points[i])) dominated = true;
    if (!dominated) front.push_back(i);
  }
  return front;
}

std::vector<std::size_t> spea2_select(
    const std::vector<ObjectiveVector>& points, std::size_t capacity) {
  const std::size_t n = points.size();
  if (capacity == 0 || n == 0) return {};
  const std::vector<double> fitness = spea2_fitness(points);

  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < n; ++i)
    if (fitness[i] < 1.0) selected.push_back(i);

  if (selected.size() < capacity) {
    // Fill with the best dominated individuals.
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < n; ++i)
      if (fitness[i] >= 1.0) rest.push_back(i);
    std::sort(rest.begin(), rest.end(), [&](std::size_t a, std::size_t b) {
      return fitness[a] < fitness[b];
    });
    for (std::size_t i = 0; i < rest.size() && selected.size() < capacity;
         ++i)
      selected.push_back(rest[i]);
    return selected;
  }

  // Truncation: repeatedly drop the individual with the lexicographically
  // smallest sorted neighbour-distance vector (within the selected set).
  std::vector<bool> alive(n, false);
  for (std::size_t i : selected) alive[i] = true;
  std::size_t alive_count = selected.size();
  while (alive_count > capacity) {
    std::size_t victim = SIZE_MAX;
    std::vector<double> victim_key;
    for (std::size_t i : selected) {
      if (!alive[i]) continue;
      std::vector<double> key;
      key.reserve(alive_count - 1);
      for (std::size_t j : selected)
        if (j != i && alive[j]) key.push_back(distance2(points[i], points[j]));
      std::sort(key.begin(), key.end());
      if (victim == SIZE_MAX ||
          std::lexicographical_compare(key.begin(), key.end(),
                                       victim_key.begin(),
                                       victim_key.end())) {
        victim = i;
        victim_key = std::move(key);
      }
    }
    alive[victim] = false;
    --alive_count;
  }

  std::vector<std::size_t> result;
  result.reserve(capacity);
  for (std::size_t i : selected)
    if (alive[i]) result.push_back(i);
  return result;
}

}  // namespace ftmc::dse
