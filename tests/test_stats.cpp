#include "ftmc/util/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace {

using ftmc::util::percentile;
using ftmc::util::RunningStats;

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats stats;
  stats.add(7.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_EQ(stats.mean(), 7.5);
}

TEST(RunningStats, KnownMoments) {
  RunningStats stats;
  for (double sample : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    stats.add(sample);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
}

TEST(RunningStats, NegativeValues) {
  RunningStats stats;
  stats.add(-3.0);
  stats.add(3.0);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
}

TEST(Percentile, Median) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.5), 3.0);
}

TEST(Percentile, Extremes) {
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 1.0), 5.0);
}

TEST(Percentile, Interpolates) {
  // Sorted: 10, 20, 30, 40.  q=0.25 -> position 0.75 -> 10 + 0.75*10.
  EXPECT_DOUBLE_EQ(percentile({40.0, 10.0, 30.0, 20.0}, 0.25), 17.5);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.73), 42.0);
}

TEST(Percentile, Validation) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 1.1), std::invalid_argument);
}

}  // namespace
