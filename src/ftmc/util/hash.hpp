// Stable 64-bit content hashing for cache keys, fingerprints and record
// digests.
//
// The evaluation-memoization layer (ftmc/core/evaluation_cache.hpp) keys
// cached results by a hash of the decoded candidate, so the hash must be
// deterministic across runs, platforms, and library versions — std::hash
// guarantees none of that.  FNV-1a over an explicit byte feed gives a
// stable, order-sensitive digest; the final avalanche step (splitmix64's
// finalizer) decorrelates the low bits used for shard selection.  Bulk
// byte digests that are re-checked on every read (evaluation store
// records) use the word-wise WordHasher instead, eight bytes per step.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace ftmc::util {

/// splitmix64's finalizer: full avalanche of a 64-bit state.
constexpr std::uint64_t avalanche(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Incremental FNV-1a (64-bit) hasher with a strong finalizer.
class Fnv1aHasher {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x00000100000001b3ULL;

  Fnv1aHasher() noexcept = default;
  explicit Fnv1aHasher(std::uint64_t seed) noexcept { feed(seed); }

  void feed_byte(std::uint8_t byte) noexcept {
    state_ = (state_ ^ byte) * kPrime;
  }

  /// Feeds any trivially-copyable value byte-wise (host byte order; the
  /// digest is only required to be stable for a fixed platform ABI).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void feed(const T& value) noexcept {
    std::uint8_t bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (std::uint8_t byte : bytes) feed_byte(byte);
  }

  /// Length-prefixed span feed, so {1,2},{3} and {1},{2,3} differ.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void feed_range(std::span<const T> values) noexcept {
    feed(static_cast<std::uint64_t>(values.size()));
    for (const T& value : values) feed(value);
  }

  /// vector<bool> has no contiguous storage; feed packed words.
  void feed_bits(const std::vector<bool>& bits) noexcept {
    feed(static_cast<std::uint64_t>(bits.size()));
    std::uint64_t word = 0;
    std::size_t filled = 0;
    for (bool bit : bits) {
      word = (word << 1) | static_cast<std::uint64_t>(bit);
      if (++filled == 64) {
        feed(word);
        word = 0;
        filled = 0;
      }
    }
    if (filled > 0) feed(word);
  }

  /// Finalized digest (splitmix64 avalanche over the FNV state).
  std::uint64_t digest() const noexcept { return avalanche(state_); }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

/// Word-wise hash: one multiply-xorshift step per 64-bit word instead of
/// FNV-1a's eight byte steps.  Each step is a bijection of the state, so two
/// sequences of equal length that differ in a single word never collide.
/// It keys in-memory dedup (Algorithm 1's scenario edit lists, the batch
/// kernel's lane signatures) and, through word_digest, the evaluation
/// store's record digests, so its digests are persisted: tests/test_hash.cpp
/// pins them.
class WordHasher {
 public:
  template <std::integral T>
  void feed(T value) noexcept {
    state_ = (state_ ^ static_cast<std::uint64_t>(value)) * kMultiplier;
    state_ ^= state_ >> 32;
  }

  std::uint64_t digest() const noexcept { return avalanche(state_); }

 private:
  static constexpr std::uint64_t kMultiplier = 0xd6e8feb86659fd93ULL;
  std::uint64_t state_ = 0;
};

/// Finalized FNV-1a digest of a raw byte span (checkpoint payloads, system
/// file digests).
inline std::uint64_t fnv1a_bytes(std::span<const std::uint8_t> bytes) noexcept {
  Fnv1aHasher hasher;
  for (std::uint8_t byte : bytes) hasher.feed_byte(byte);
  return hasher.digest();
}

/// WordHasher digest of a raw byte span (evaluation store records): its
/// little-endian 64-bit words, then the zero-padded tail word when the
/// length is not a multiple of 8, then the byte length.
inline std::uint64_t word_digest(std::span<const std::uint8_t> bytes) noexcept {
  const auto load = [](const std::uint8_t* p) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    if constexpr (std::endian::native == std::endian::big)
      word = __builtin_bswap64(word);
    return word;
  };
  WordHasher hasher;
  const std::size_t whole = bytes.size() / 8 * 8;
  for (std::size_t at = 0; at < whole; at += 8)
    hasher.feed(load(bytes.data() + at));
  if (whole < bytes.size()) {
    std::uint8_t tail[8] = {};
    std::memcpy(tail, bytes.data() + whole, bytes.size() - whole);
    hasher.feed(load(tail));
  }
  hasher.feed(static_cast<std::uint64_t>(bytes.size()));
  return hasher.digest();
}

}  // namespace ftmc::util
