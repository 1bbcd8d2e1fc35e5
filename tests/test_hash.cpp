// Regression pins for the two hash constructions in the codebase
// (util/hash.hpp).  Their digests key and guard persisted artifacts —
// FNV-1a: checkpoint payload digests, evaluation cache and store keys,
// store directory names; WordHasher (word_digest): evaluation-store record
// digests — so an accidental change to the hash constants, the feed order,
// or the finalizer would silently orphan every store and checkpoint on
// disk.  The literals below were produced by the current constructions; a
// failure here means the on-disk format changed, not that the pin is
// stale.
#include "ftmc/util/hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace {

using ftmc::util::Fnv1aHasher;
using ftmc::util::fnv1a_bytes;
using ftmc::util::word_digest;
using ftmc::util::WordHasher;

TEST(Hash, PinnedConstants) {
  EXPECT_EQ(Fnv1aHasher::kOffsetBasis, 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1aHasher::kPrime, 0x00000100000001b3ULL);
}

TEST(Hash, PinnedEmptyDigest) {
  // Finalizer applied to the bare offset basis.
  EXPECT_EQ(Fnv1aHasher().digest(), 0xc3817c016ba4ff30ULL);
}

TEST(Hash, PinnedByteDigest) {
  const std::uint8_t abc[] = {'a', 'b', 'c'};
  EXPECT_EQ(fnv1a_bytes(std::span<const std::uint8_t>(abc, 3)),
            0x29e32c04ec3f9c30ULL);
  EXPECT_EQ(fnv1a_bytes({}), Fnv1aHasher().digest());
}

TEST(Hash, PinnedSeededDigest) {
  EXPECT_EQ(Fnv1aHasher(42).digest(), 0xa4e6579fd9ba8f6dULL);
}

TEST(Hash, PinnedValueFeed) {
  Fnv1aHasher hasher;
  for (std::uint64_t value : {1ULL, 2ULL, 3ULL}) hasher.feed(value);
  EXPECT_EQ(hasher.digest(), 0x08638879170c2de7ULL);
}

TEST(Hash, PinnedRangeFeed) {
  // feed_range is length-prefixed, so it must NOT equal the raw feed.
  const std::uint64_t values[] = {1, 2, 3};
  Fnv1aHasher hasher;
  hasher.feed_range(std::span<const std::uint64_t>(values, 3));
  EXPECT_EQ(hasher.digest(), 0x11067c64fda12a9eULL);
  EXPECT_NE(hasher.digest(), 0x08638879170c2de7ULL);
}

TEST(Hash, PinnedBitsFeed) {
  Fnv1aHasher hasher;
  hasher.feed_bits(std::vector<bool>{true, false, true});
  EXPECT_EQ(hasher.digest(), 0xc330267d02927c34ULL);
}

TEST(Hash, LengthPrefixDisambiguatesSplits) {
  const std::uint64_t a[] = {1, 2};
  const std::uint64_t b[] = {3};
  const std::uint64_t c[] = {1};
  const std::uint64_t d[] = {2, 3};
  Fnv1aHasher first;
  first.feed_range(std::span<const std::uint64_t>(a, 2));
  first.feed_range(std::span<const std::uint64_t>(b, 1));
  Fnv1aHasher second;
  second.feed_range(std::span<const std::uint64_t>(c, 1));
  second.feed_range(std::span<const std::uint64_t>(d, 2));
  EXPECT_NE(first.digest(), second.digest());
}

TEST(Hash, OrderSensitive) {
  Fnv1aHasher ab;
  ab.feed_byte(0x01);
  ab.feed_byte(0x02);
  Fnv1aHasher ba;
  ba.feed_byte(0x02);
  ba.feed_byte(0x01);
  EXPECT_NE(ab.digest(), ba.digest());
}

// The word-wise hash: equal sequences agree, and sequences of equal length
// that differ in one word — in its low or only in its high bits — or in
// word order do not collide.
TEST(Hash, WordHasherSeparatesSingleWordEdits) {
  const auto digest = [](std::initializer_list<std::int64_t> words) {
    WordHasher hasher;
    for (const std::int64_t word : words) hasher.feed(word);
    return hasher.digest();
  };
  const std::uint64_t base = digest({1, 2, 3, 4});
  EXPECT_EQ(base, digest({1, 2, 3, 4}));
  EXPECT_NE(base, digest({1, 2, 3, 5}));
  EXPECT_NE(base, digest({1 | (std::int64_t{1} << 62), 2, 3, 4}));
  EXPECT_NE(base, digest({2, 1, 3, 4}));
}

TEST(Hash, PinnedWordHasherDigests) {
  EXPECT_EQ(WordHasher().digest(), 0xe220a8397b1dcdafULL);
  WordHasher hasher;
  for (std::uint64_t value : {1ULL, 2ULL, 3ULL}) hasher.feed(value);
  EXPECT_EQ(hasher.digest(), 0xb4c282ed538ea72dULL);
}

// word_digest: the little-endian 64-bit words, then the zero-padded tail
// word, then the byte length.
TEST(Hash, PinnedWordDigest) {
  std::vector<std::uint8_t> bytes(17);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i + 1);
  const std::span<const std::uint8_t> all(bytes);
  EXPECT_EQ(word_digest({}), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(word_digest(all.first(16)), 0x823d8fefe3970e13ULL);
  EXPECT_EQ(word_digest(all), 0xa447c2795ac18a1bULL);

  WordHasher little_endian;
  little_endian.feed(std::uint64_t{0x0807060504030201ULL});
  little_endian.feed(std::uint64_t{8});
  EXPECT_EQ(word_digest(all.first(8)), little_endian.digest());

  // The length tells a zero-padded tail from explicit zero bytes.
  const std::uint8_t abc[] = {'a', 'b', 'c', 0};
  EXPECT_EQ(word_digest(std::span<const std::uint8_t>(abc, 3)),
            0x3b5044c6264682f7ULL);
  EXPECT_EQ(word_digest(std::span<const std::uint8_t>(abc, 4)),
            0xd6bdddb7caf6f0c9ULL);
}

}  // namespace
