// Deterministic random number generation.
//
// Every run is fully reproducible from a single 64-bit seed: the simulator
// owns a root Rng and derives per-node / per-channel streams from it, so
// adding randomness in one module never perturbs another module's stream.
//
// The engine is xoroshiro128++ (Blackman & Vigna): 16 bytes of state, a
// period of 2^128 - 1, seeded through splitmix64. It is the small-state
// member of the xoshiro family; its size leaves room for the normal
// transform's spare value, so a whole Rng is 32 bytes and every node can
// carry two of them. All transforms are written out here rather than taken
// from <random>, whose distributions differ between standard libraries:
//   uniform_int   Lemire's multiply-and-reject bounded integer;
//   uniform_real  the top 53 bits of one draw, scaled to [lo, hi);
//   bernoulli     u < p;
//   exponential   -mean * log1p(-u);
//   normal        Marsaglia's polar method, keeping the second value.
// A stream's outputs therefore depend only on its seed and on the libm
// behind sqrt/log/log1p.
#pragma once

#include <cstdint>

namespace mnp::sim {

/// splitmix64's output function: a bijective 64-bit mixer. Seeds and
/// hashed keys (fork salts, per-edge noise) go through it.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// The engine's next 64 raw bits.
  std::uint64_t next();

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Gaussian with the given mean/stddev. Draws come in pairs: every
  /// second call returns the value kept from the call before.
  double normal(double mean, double stddev);

  /// Derives an independent child stream. Deterministic: the same parent
  /// state + salt always yields the same child.
  Rng fork(std::uint64_t salt);

 private:
  /// Uniform in [0, 1) with 53 random bits.
  double unit();

  std::uint64_t s_[2];
  double spare_ = 0.0;  // the polar method's second standard normal
  bool has_spare_ = false;
};

static_assert(sizeof(Rng) == 32, "a per-node stream stays 32 bytes");

}  // namespace mnp::sim
