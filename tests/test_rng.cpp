#include "ftmc/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace {

using ftmc::util::Rng;

TEST(Rng, SameSeedSameSequence) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t draw = rng.uniform_int(-5, 17);
    EXPECT_GE(draw, -5);
    EXPECT_LE(draw, 17);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, IndexBounds) {
  Rng rng(3);
  for (int i = 0; i < 1'000; ++i) EXPECT_LT(rng.index(13), 13u);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, UniformRealHalfOpen) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double draw = rng.uniform_real(2.0, 3.0);
    EXPECT_GE(draw, 2.0);
    EXPECT_LT(draw, 3.0);
  }
}

TEST(Rng, UniformRealMeanIsCentered) {
  Rng rng(5);
  double sum = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) sum += rng.uniform_real();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceFrequencyTracksProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(29);
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[i] = i;
  const auto original = items;
  rng.shuffle(items);
  EXPECT_NE(items, original);
}

TEST(Rng, PickThrowsOnEmpty) {
  Rng rng(31);
  const std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
}

TEST(Rng, PickReturnsMember) {
  Rng rng(37);
  const std::vector<int> items{4, 8, 15, 16, 23, 42};
  for (int i = 0; i < 100; ++i) {
    const int picked = rng.pick(items);
    EXPECT_NE(std::find(items.begin(), items.end(), picked), items.end());
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (parent() == child()) ++equal;
  EXPECT_LT(equal, 3);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, BitsLookBalanced) {
  Rng rng(GetParam());
  int ones = 0;
  constexpr int kDraws = 1'000;
  for (int i = 0; i < kDraws; ++i) ones += std::popcount(rng());
  // 64 * 1000 bits, expect ~32000 ones; allow 3%.
  EXPECT_NEAR(ones, 32'000, 1'000);
}

TEST_P(RngSeedSweep, IndexIsRoughlyUniform) {
  Rng rng(GetParam());
  constexpr std::size_t kBuckets = 10;
  std::vector<int> histogram(kBuckets, 0);
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.index(kBuckets)];
  for (int count : histogram)
    EXPECT_NEAR(count, kDraws / kBuckets, kDraws / kBuckets / 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xdeadbeefULL,
                                           0xffffffffffffffffULL));

}  // namespace
