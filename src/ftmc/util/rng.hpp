// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of the library (synthetic benchmark generation,
// genetic operators, Monte-Carlo fault injection) draw from Rng so that a
// fixed seed reproduces a run bit-for-bit across platforms.  The generator is
// xoshiro256**, seeded through SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace ftmc::util {

/// Complete serializable generator state: the four xoshiro256** words.
/// restore() resumes the exact output sequence, so a checkpointed consumer
/// (the DSE engine) replays the same draws it would have made uninterrupted.
struct RngState {
  std::array<std::uint64_t, 4> words{};

  bool operator==(const RngState&) const = default;
};

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG with 2^256-1 period.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform size_t index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo = 0.0, double hi = 1.0) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument("Rng::pick: empty span");
    return items[index(items.size())];
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>(items));
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[index(i)]);
    }
  }

  /// Derives an independent child generator (for per-thread / per-candidate
  /// streams) without perturbing this generator's primary sequence more than
  /// one draw.
  Rng split();

  /// Snapshot of the full generator state (checkpointing).
  RngState state() const noexcept;

  /// Resumes from a snapshot; subsequent draws continue the captured
  /// sequence bit-for-bit.  An all-zero primary state is rejected (it is
  /// absorbing and no genuine snapshot can contain it).
  void restore(const RngState& state);

 private:
  std::uint64_t state_[4];
};

}  // namespace ftmc::util
