#include "sim/rng.hpp"

#include <algorithm>
#include <cmath>

namespace mnp::sim {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// Lemire's bounded integers take the high word of a 64x64-bit product.
__extension__ using u128 = unsigned __int128;

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // splitmix64 outputs for two consecutive counters: distinct, since the
  // mixer is a bijection, so the state is never all zero.
  s_[0] = mix64(seed + kGolden);
  s_[1] = mix64(seed + 2 * kGolden);
}

std::uint64_t Rng::next() {
  // xoroshiro128++.
  const std::uint64_t s0 = s_[0];
  std::uint64_t s1 = s_[1];
  const std::uint64_t result = rotl(s0 + s1, 17) + s0;
  s1 ^= s0;
  s_[0] = rotl(s0, 49) ^ s1 ^ (s1 << 21);
  s_[1] = rotl(s1, 28);
  return result;
}

double Rng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo >= hi) return lo;
  // Unsigned arithmetic: the span of [INT64_MIN, INT64_MAX] wraps to 0.
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());
  // Lemire: the high word of x * range is uniform on [0, range) once the
  // low words that over-represent some results (l < 2^64 mod range) are
  // rejected; the modulo is paid only when a rejection is possible.
  u128 m = static_cast<u128>(next()) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      m = static_cast<u128>(next()) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   static_cast<std::uint64_t>(m >> 64));
}

double Rng::uniform_real(double lo, double hi) {
  if (lo >= hi) return lo;
  const double r = lo + (hi - lo) * unit();
  // Rounding can land a product just below 1 on hi itself.
  return r < hi ? r : std::nextafter(hi, lo);
}

bool Rng::bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return unit() < p;
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) return 0.0;
  return -mean * std::log1p(-unit());
}

double Rng::normal(double mean, double stddev) {
  if (stddev <= 0.0) return mean;
  if (has_spare_) {
    has_spare_ = false;
    return mean + stddev * spare_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * unit() - 1.0;
    v = 2.0 * unit() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * f;
  has_spare_ = true;
  return mean + stddev * (u * f);
}

Rng Rng::fork(std::uint64_t salt) {
  // Mix a fresh draw with the salt so child streams are decorrelated even
  // for adjacent salts.
  return Rng(mix64(next() ^ (salt + kGolden)));
}

}  // namespace mnp::sim
