#include "ftmc/util/rng.hpp"

namespace ftmc::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // All-zero state would be absorbing; splitmix64 cannot produce four zero
  // outputs from any seed, but keep the guard explicit.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t draw = (*this)();
  while (draw >= limit) draw = (*this)();
  return lo + static_cast<std::int64_t>(draw % range);
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::index: n == 0");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

double Rng::uniform_real(double lo, double hi) noexcept {
  // 53 top bits -> double in [0,1).
  const double unit =
      static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  return lo + unit * (hi - lo);
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_real() < p;
}

Rng Rng::split() { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

RngState Rng::state() const noexcept {
  return RngState{{state_[0], state_[1], state_[2], state_[3]}};
}

void Rng::restore(const RngState& state) {
  if ((state.words[0] | state.words[1] | state.words[2] | state.words[3]) ==
      0)
    throw std::invalid_argument("Rng::restore: all-zero state");
  for (std::size_t i = 0; i < 4; ++i) state_[i] = state.words[i];
}

}  // namespace ftmc::util
