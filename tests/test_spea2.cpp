#include "ftmc/dse/spea2.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "ftmc/util/rng.hpp"

namespace {

using ftmc::dse::dominates;
using ftmc::dse::ObjectiveVector;
using ftmc::dse::pareto_front;
using ftmc::dse::spea2_fitness;
using ftmc::dse::spea2_select;

TEST(Dominance, Basics) {
  EXPECT_TRUE(dominates({1, 1}, {2, 2}));
  EXPECT_TRUE(dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(dominates({2, 2}, {2, 2}));  // equal: not strict
  EXPECT_FALSE(dominates({1, 3}, {2, 2}));  // incomparable
  EXPECT_FALSE(dominates({2, 2}, {1, 1}));
}

TEST(Dominance, SingleObjective) {
  EXPECT_TRUE(dominates({1}, {2}));
  EXPECT_FALSE(dominates({2}, {1}));
  EXPECT_FALSE(dominates({1}, {1}));
}

TEST(Dominance, DimensionMismatchThrows) {
  EXPECT_THROW(dominates({1, 2}, {1}), std::invalid_argument);
}

TEST(ParetoFront, KnownSet) {
  const std::vector<ObjectiveVector> points{
      {1, 5}, {2, 4}, {3, 3}, {2, 6}, {4, 4}, {5, 1}};
  const auto front = pareto_front(points);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 2, 5}));
}

TEST(ParetoFront, DuplicatesAreAllNonDominated) {
  const std::vector<ObjectiveVector> points{{1, 1}, {1, 1}, {2, 2}};
  const auto front = pareto_front(points);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(Spea2Fitness, NonDominatedBelowOne) {
  const std::vector<ObjectiveVector> points{
      {1, 5}, {2, 4}, {3, 3}, {2, 6}, {4, 4}, {5, 1}};
  const auto fitness = spea2_fitness(points);
  const auto front = pareto_front(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bool on_front =
        std::find(front.begin(), front.end(), i) != front.end();
    if (on_front)
      EXPECT_LT(fitness[i], 1.0) << i;
    else
      EXPECT_GE(fitness[i], 1.0) << i;
  }
}

TEST(Spea2Fitness, MoreDominatedMeansWorse) {
  // c is dominated by both a and b; d only by a.
  const std::vector<ObjectiveVector> points{
      {0, 0},   // a: dominates everyone
      {2, 2},   // b
      {3, 3},   // c: dominated by a and b
      {1, 10},  // d: dominated by a only
  };
  const auto fitness = spea2_fitness(points);
  EXPECT_GT(fitness[2], fitness[3]);
}

TEST(Spea2Select, KeepsTheFrontWhenItFits) {
  const std::vector<ObjectiveVector> points{
      {1, 5}, {2, 4}, {3, 3}, {2, 6}, {4, 4}, {5, 1}};
  auto selected = spea2_select(points, 4);
  std::sort(selected.begin(), selected.end());
  EXPECT_EQ(selected, (std::vector<std::size_t>{0, 1, 2, 5}));
}

TEST(Spea2Select, FillsUpWithBestDominated) {
  const std::vector<ObjectiveVector> points{
      {1, 1}, {2, 2}, {3, 3}, {4, 4}};
  auto selected = spea2_select(points, 3);
  std::sort(selected.begin(), selected.end());
  // Front is {0}; filled with the least-dominated others in order.
  EXPECT_EQ(selected, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Spea2Select, TruncatesCrowdedRegions) {
  // Five non-dominated points, two nearly coincident: truncation should
  // remove one of the crowded pair, keeping the spread.
  const std::vector<ObjectiveVector> points{
      {0.0, 10.0}, {2.0, 6.0}, {2.05, 5.95}, {6.0, 2.0}, {10.0, 0.0}};
  auto selected = spea2_select(points, 4);
  std::sort(selected.begin(), selected.end());
  // Extremes must survive truncation.
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), 0u) !=
              selected.end());
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), 4u) !=
              selected.end());
  // Exactly one of the crowded pair {1, 2} is gone.
  const bool has1 =
      std::find(selected.begin(), selected.end(), 1u) != selected.end();
  const bool has2 =
      std::find(selected.begin(), selected.end(), 2u) != selected.end();
  EXPECT_NE(has1, has2);
}

TEST(Spea2Select, CapacityEdgeCases) {
  const std::vector<ObjectiveVector> points{{1, 1}, {2, 2}};
  EXPECT_TRUE(spea2_select(points, 0).empty());
  EXPECT_TRUE(spea2_select({}, 5).empty());
  EXPECT_EQ(spea2_select(points, 10).size(), 2u);
}

TEST(Spea2Select, SelectionIsSubsetAndRightSize) {
  ftmc::util::Rng rng(99);
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 40; ++i)
    points.push_back({rng.uniform_real(0, 100), rng.uniform_real(0, 100)});
  const auto selected = spea2_select(points, 15);
  EXPECT_EQ(selected.size(), 15u);
  for (const std::size_t index : selected) EXPECT_LT(index, points.size());
  // No duplicates.
  auto sorted = selected;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

class Spea2Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Spea2Property, FrontMembersPreferredOverDominated) {
  ftmc::util::Rng rng(GetParam());
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 30; ++i)
    points.push_back({rng.uniform_real(0, 10), rng.uniform_real(0, 10)});
  const auto front = pareto_front(points);
  const std::size_t capacity = std::max<std::size_t>(front.size(), 10);
  const auto selected = spea2_select(points, capacity);
  // Every front member must be selected when capacity allows.
  for (const std::size_t index : front)
    EXPECT_TRUE(std::find(selected.begin(), selected.end(), index) !=
                selected.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Spea2Property,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---- Fitness against the sort-based reference ----------------------------
//
// spea2_fitness reads only the k-th smallest neighbour distance, and takes
// it with nth_element on one reused row.  The reference below is the
// sort-based computation it replaced (one n x n dominance matrix of bool
// rows, one fully sorted distance row per point); both must give the same
// fitness bit for bit, and so the same selection.

double reference_distance2(const ObjectiveVector& a, const ObjectiveVector& b) {
  double sum = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double d = a[k] - b[k];
    sum += d * d;
  }
  return sum;
}

std::vector<double> reference_fitness(
    const std::vector<ObjectiveVector>& points) {
  const std::size_t n = points.size();
  std::vector<double> fitness(n, 0.0);
  if (n == 0) return fitness;
  std::vector<std::size_t> strength(n, 0);
  std::vector<std::vector<bool>> dom(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && dominates(points[i], points[j])) {
        dom[i][j] = true;
        ++strength[i];
      }
  for (std::size_t i = 0; i < n; ++i) {
    double raw = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (dom[j][i]) raw += static_cast<double>(strength[j]);
    fitness[i] = raw;
  }
  std::vector<std::vector<double>> distances(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      if (j != i)
        distances[i].push_back(reference_distance2(points[i], points[j]));
    std::sort(distances[i].begin(), distances[i].end());
  }
  const auto k = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    double sigma = 0.0;
    if (!distances[i].empty())
      sigma = std::sqrt(distances[i][std::min(k, distances[i].size()) - 1]);
    fitness[i] += 1.0 / (sigma + 2.0);
  }
  return fitness;
}

/// spea2_select's environmental selection over the reference fitness.
std::vector<std::size_t> reference_select(
    const std::vector<ObjectiveVector>& points, std::size_t capacity) {
  const std::size_t n = points.size();
  if (capacity == 0 || n == 0) return {};
  const std::vector<double> fitness = reference_fitness(points);
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < n; ++i)
    if (fitness[i] < 1.0) selected.push_back(i);
  if (selected.size() < capacity) {
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
  std::vector<bool> alive(n, false);
  for (std::size_t i : selected) alive[i] = true;
  std::size_t alive_count = selected.size();
  while (alive_count > capacity) {
    std::size_t victim = SIZE_MAX;
    std::vector<double> victim_key;
    for (std::size_t i : selected) {
      if (!alive[i]) continue;
      std::vector<double> key;
      for (std::size_t j : selected)
        if (j != i && alive[j])
          key.push_back(reference_distance2(points[i], points[j]));
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
  for (std::size_t i : selected)
    if (alive[i]) result.push_back(i);
  return result;
}

/// `n` seeded points in `dims` objectives with duplicates and ties: about a
/// fifth repeat an earlier point, and half the coordinates sit on a small
/// integer grid.  `on_front` puts every point on the anti-diagonal
/// x_0 + x_1 = 8 (two objectives), so all are non-dominated and selection
/// truncates.
std::vector<ObjectiveVector> seeded_points(std::size_t n, std::size_t dims,
                                           bool on_front, std::uint64_t seed) {
  ftmc::util::Rng rng(seed);
  std::vector<ObjectiveVector> points;
  while (points.size() < n) {
    if (!points.empty() && rng.chance(0.2)) {
      points.push_back(points[rng.index(points.size())]);
      continue;
    }
    const double x = rng.chance(0.5) ? static_cast<double>(rng.index(9))
                                     : rng.uniform_real(0.0, 8.0);
    if (on_front) {
      points.push_back({x, 8.0 - x});
      continue;
    }
    ObjectiveVector point{x};
    while (point.size() < dims)
      point.push_back(rng.chance(0.5) ? static_cast<double>(rng.index(9))
                                      : rng.uniform_real(0.0, 8.0));
    points.push_back(point);
  }
  return points;
}

TEST(Spea2Fitness, MatchesSortBasedReference) {
  for (const std::size_t n : {1, 2, 3, 40, 80, 100, 200, 250}) {
    for (const std::size_t dims : {1, 2}) {
      for (const bool on_front : {false, true}) {
        if (on_front && dims != 2) continue;
        SCOPED_TRACE("n " + std::to_string(n) + ", dims " +
                     std::to_string(dims) + (on_front ? ", front" : ""));
        const auto points = seeded_points(n, dims, on_front, 7 * n + dims);
        const std::vector<double> fitness = spea2_fitness(points);
        const std::vector<double> reference = reference_fitness(points);
        ASSERT_EQ(fitness.size(), reference.size());
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(std::bit_cast<std::uint64_t>(fitness[i]),
                    std::bit_cast<std::uint64_t>(reference[i]))
              << "point " << i;
        // Truncating half a front of 200+ points costs the cubic reference
        // seconds; fronts up to 100 points cover truncation.
        if (on_front && n > 100) continue;
        const std::size_t capacity = std::max<std::size_t>(1, n / 2);
        EXPECT_EQ(spea2_select(points, capacity),
                  reference_select(points, capacity));
      }
    }
  }
}

}  // namespace
