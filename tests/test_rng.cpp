// Unit tests for the deterministic RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace mnp::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1000000) == b.uniform_int(0, 1000000)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(10, 20);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(9, 3), 9);  // inverted => lo
}

TEST(Rng, UniformRealRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_real(-1.0, 1.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-3.0));  // clamped
    EXPECT_TRUE(rng.bernoulli(42.0));   // clamped
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng rng(123);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(321);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.0);
}

TEST(Rng, NormalDegenerateStddev) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.normal(3.5, 0.0), 3.5);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1(55), parent2(55);
  Rng childa = parent1.fork(1);
  Rng childb = parent2.fork(1);
  // Same parent state + same salt => identical child stream.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(childa.uniform_int(0, 1 << 30), childb.uniform_int(0, 1 << 30));
  }
  // Different salts diverge.
  Rng parent3(55);
  Rng childc = parent3.fork(2);
  Rng parent4(55);
  Rng childd = parent4.fork(1);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (childc.uniform_int(0, 1 << 30) == childd.uniform_int(0, 1 << 30)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// Raw draws `after` is ahead of `before` (the two share a stream), or -1.
int draws_between(Rng before, Rng after) {
  for (int k = 1; k < 8; ++k) {
    before.next();
    Rng a = before;
    Rng b = after;
    if (a.next() == b.next()) return k;
  }
  return -1;
}

// Every transform's first outputs, as literals: xoroshiro128++ seeded by
// splitmix64, and the transforms written out in rng.cpp. A change to any
// of them re-goldens every run, so it must show up here first.
TEST(Rng, FirstOutputsOfEveryTransformArePinned) {
  Rng raw(1);
  EXPECT_EQ(raw.next(), 587168960929266860ULL);
  EXPECT_EQ(raw.next(), 6742769312817389553ULL);
  EXPECT_EQ(raw.next(), 2889471039403192720ULL);

  Rng ints(2);
  for (const std::int64_t want : {5, 7, 2, 4, 2, 6}) {
    EXPECT_EQ(ints.uniform_int(0, 9), want);
  }

  Rng reals(3);
  for (const double want :
       {0.14809810633408627, 0.51575391578628105, 0.23107748696462227}) {
    EXPECT_DOUBLE_EQ(reals.uniform_real(0.0, 1.0), want);
  }

  Rng coins(4);
  for (const bool want : {false, true, false, false, true, false, true, false}) {
    EXPECT_EQ(coins.bernoulli(0.3), want);
  }

  Rng waits(5);
  for (const double want :
       {13.281106269273698, 124.87520145699196, 79.224501753451079}) {
    EXPECT_DOUBLE_EQ(waits.exponential(50.0), want);
  }

  // Two polar-method pairs: the second and fourth values are the spares.
  Rng gauss(6);
  for (const double want : {-1.7027723679973614, -0.31244448574627526,
                            0.24338966013824123, 0.22886252564994075}) {
    EXPECT_DOUBLE_EQ(gauss.normal(0.0, 1.0), want);
  }

  Rng parent(7);
  Rng child = parent.fork(7);
  EXPECT_EQ(child.next(), 13117715675634745441ULL);
  EXPECT_EQ(parent.next(), 2209111995329479690ULL);
}

TEST(Rng, UniformIntRejectsTheOverRepresentedLowWords) {
  // [-2^62, 2^62] spans 2^63 + 1 values, so Lemire's method rejects about
  // half of all draws; seed 1's first draw is one of them.
  const std::int64_t lo = -(std::int64_t{1} << 62);
  const std::int64_t hi = std::int64_t{1} << 62;
  Rng rng(1);
  const Rng before = rng;
  EXPECT_EQ(rng.uniform_int(lo, hi), -1240301362018693128LL);
  EXPECT_EQ(draws_between(before, rng), 2);
  // A power-of-two span never rejects: one draw per value.
  Rng pow2(1);
  pow2.uniform_int(0, 1023);
  EXPECT_EQ(draws_between(Rng(1), pow2), 1);
}

TEST(Rng, UniformIntCoversTheFullSignedRange) {
  Rng rng(8);
  bool negative = false;
  bool positive = false;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t v = rng.uniform_int(INT64_MIN, INT64_MAX);
    negative = negative || v < 0;
    positive = positive || v > 0;
  }
  EXPECT_TRUE(negative && positive);
}

TEST(Rng, NormalPassesKolmogorovSmirnovOnAMillionDraws) {
  const double sigma = 2.5;
  Rng rng(2024);
  std::vector<double> xs(1000000);
  for (double& x : xs) x = rng.normal(0.0, sigma);
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double cdf = 0.5 * std::erfc(-xs[i] / (sigma * std::sqrt(2.0)));
    worst = std::max({worst, cdf - static_cast<double>(i) / n,
                      static_cast<double>(i + 1) / n - cdf});
  }
  // Two-sided critical value at p = 0.001.
  EXPECT_LT(worst, 1.9495 / std::sqrt(n));
}

}  // namespace
}  // namespace mnp::sim
