// Unit tests for the disk and empirical link models and the per-edge
// noise behind the latter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/link_model.hpp"
#include "sim/rng.hpp"

namespace mnp::net {
namespace {

Topology line_topology(double spacing, std::size_t n) {
  Topology t;
  for (std::size_t i = 0; i < n; ++i) {
    t.add({static_cast<double>(i) * spacing, 0.0});
  }
  return t;
}

TEST(DiskLinkModel, PerfectInsideRangeNothingOutside) {
  Topology t = line_topology(10.0, 5);
  DiskLinkModel m(t, 25.0);
  EXPECT_DOUBLE_EQ(m.packet_success(0, 1, 1.0), 1.0);  // 10 ft
  EXPECT_DOUBLE_EQ(m.packet_success(0, 2, 1.0), 1.0);  // 20 ft
  EXPECT_DOUBLE_EQ(m.packet_success(0, 3, 1.0), 0.0);  // 30 ft
  EXPECT_DOUBLE_EQ(m.packet_success(2, 2, 1.0), 0.0);  // self
}

TEST(DiskLinkModel, PowerScaleShrinksRange) {
  Topology t = line_topology(10.0, 5);
  DiskLinkModel m(t, 25.0);
  EXPECT_DOUBLE_EQ(m.packet_success(0, 2, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(m.packet_success(0, 2, 0.5), 0.0);  // 12.5 ft reach
  EXPECT_DOUBLE_EQ(m.packet_success(0, 1, 0.5), 1.0);
}

TEST(DiskLinkModel, InterferenceReachesFarther) {
  Topology t = line_topology(10.0, 6);
  DiskLinkModel m(t, 25.0, 1.6);  // interferes to 40 ft
  EXPECT_DOUBLE_EQ(m.packet_success(0, 4, 1.0), 0.0);  // 40 ft: no decode
  EXPECT_TRUE(m.interferes(0, 4, 1.0));                // ...but audible
  EXPECT_FALSE(m.interferes(0, 5, 1.0));               // 50 ft: silence
  EXPECT_FALSE(m.interferes(3, 3, 1.0));               // self
}

TEST(EmpiricalLinkModel, BaseCurveShape) {
  EmpiricalLinkModel::Params p;
  // Near-perfect close in, zero beyond the gray area, monotone between.
  EXPECT_NEAR(EmpiricalLinkModel::base_success(0.1, p), 0.98, 1e-9);
  EXPECT_NEAR(EmpiricalLinkModel::base_success(p.gray_start, p), 0.98, 1e-9);
  EXPECT_DOUBLE_EQ(EmpiricalLinkModel::base_success(p.gray_end, p), 0.0);
  EXPECT_DOUBLE_EQ(EmpiricalLinkModel::base_success(2.0, p), 0.0);
  double prev = 1.0;
  for (double u = 0.5; u <= 1.1; u += 0.05) {
    const double s = EmpiricalLinkModel::base_success(u, p);
    EXPECT_LE(s, prev + 1e-12) << "not monotone at u=" << u;
    prev = s;
  }
}

TEST(EmpiricalLinkModel, LinksAreAsymmetric) {
  // TOSSIM property: each directed edge has its own quality.
  Topology t = line_topology(18.0, 2);  // inside the gray area for R=25
  EmpiricalLinkModel::Params p;
  p.range_ft = 25.0;
  p.edge_noise_stddev = 0.15;
  bool saw_asymmetry = false;
  for (std::uint64_t seed = 0; seed < 16 && !saw_asymmetry; ++seed) {
    EmpiricalLinkModel m(t, p, sim::Rng(seed));
    if (std::abs(m.packet_success(0, 1, 1.0) - m.packet_success(1, 0, 1.0)) >
        1e-6) {
      saw_asymmetry = true;
    }
  }
  EXPECT_TRUE(saw_asymmetry);
}

TEST(EmpiricalLinkModel, DeterministicForSameSeed) {
  Topology t = line_topology(15.0, 4);
  EmpiricalLinkModel::Params p;
  EmpiricalLinkModel a(t, p, sim::Rng(9));
  EmpiricalLinkModel b(t, p, sim::Rng(9));
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(a.packet_success(i, j, 1.0), b.packet_success(i, j, 1.0));
    }
  }
}

TEST(EmpiricalLinkModel, ProbabilitiesStayInUnitInterval) {
  Topology t = line_topology(5.0, 10);
  EmpiricalLinkModel::Params p;
  p.edge_noise_stddev = 0.5;  // extreme noise must still clamp
  EmpiricalLinkModel m(t, p, sim::Rng(4));
  for (NodeId i = 0; i < 10; ++i) {
    for (NodeId j = 0; j < 10; ++j) {
      const double s = m.packet_success(i, j, 1.0);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(EmpiricalLinkModel, ZeroPowerKillsTheLink) {
  Topology t = line_topology(10.0, 2);
  EmpiricalLinkModel m(t, {}, sim::Rng(1));
  EXPECT_DOUBLE_EQ(m.packet_success(0, 1, 0.0), 0.0);
}

TEST(EmpiricalLinkModel, LowerPowerNeverHelps) {
  // Battery-aware advertising relies on reduced power shrinking coverage.
  Topology t = line_topology(12.0, 4);
  EmpiricalLinkModel m(t, {}, sim::Rng(2));
  for (NodeId j = 1; j < 4; ++j) {
    const double full = m.packet_success(0, j, 1.0);
    const double half = m.packet_success(0, j, 0.5);
    EXPECT_LE(half, full + 1e-12) << "link 0->" << j;
  }
}


// ---- Per-edge noise: a pure function of (seed, src, dst) ----------------

// The documented formula, written out independently of EdgeNoise: the
// model's seed is one draw from its Rng, each pair hashes to its own key.
double formula_noise(std::uint64_t model_seed, NodeId s, NodeId d,
                     double stddev) {
  const std::uint64_t key_seed = sim::Rng(model_seed).next();
  const std::uint64_t pair = (std::uint64_t{s} << 32) | d;
  return sim::Rng(sim::mix64(key_seed ^ sim::mix64(pair))).normal(0.0, stddev);
}

// Every ordered pair's noise, row-major: entry src * n + dst.
std::vector<double> dense_noise(std::size_t n, std::uint64_t seed,
                                double stddev) {
  std::vector<double> noise(n * n);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      noise[s * n + d] = formula_noise(seed, static_cast<NodeId>(s),
                                       static_cast<NodeId>(d), stddev);
    }
  }
  return noise;
}

// Kolmogorov-Smirnov distance between `xs` (sorted in place) and N(0, sd).
double ks_distance_to_normal(std::vector<double>& xs, double sd) {
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double cdf = 0.5 * std::erfc(-xs[i] / (sd * std::sqrt(2.0)));
    const double below = static_cast<double>(i) / n;
    const double upto = static_cast<double>(i + 1) / n;
    worst = std::max({worst, cdf - below, upto - cdf});
  }
  return worst;
}

// 1.9495 / sqrt(n): the KS test's two-sided critical value at p = 0.001.
double ks_critical(std::size_t n) {
  return 1.9495 / std::sqrt(static_cast<double>(n));
}

TEST(EdgeNoise, ValuesArePinned) {
  // Literal outputs of the formula: a change to the hash, the seeding or
  // the normal transform shows up here first.
  const EdgeNoise noise(42, 1.0);
  EXPECT_DOUBLE_EQ(noise.value(0, 1), 0.93317681604359504);
  EXPECT_DOUBLE_EQ(noise.value(1, 0), 1.2882076703150567);
  EXPECT_DOUBLE_EQ(noise.value(7, 300), -0.8918624478509205);
  EXPECT_DOUBLE_EQ(EdgeNoise(43, 1.0).value(0, 1), 0.47801022896151457);
  EXPECT_DOUBLE_EQ(EdgeNoise(42, 0.5).value(0, 1), 0.5 * noise.value(0, 1));
}

TEST(EdgeNoise, GridValuesFollowTheNormalLawAndDirectionsAreIndependent) {
  // Every ordered pair of a 40x40 field against N(0, sigma), and the two
  // directions of each link uncorrelated.
  const Topology t = Topology::grid(40, 40, 10.0);
  const EmpiricalLinkModel::Params p;
  const EmpiricalLinkModel m(t, p, sim::Rng(16));
  const auto n = static_cast<NodeId>(t.size());
  std::vector<double> values;
  values.reserve(std::size_t{n} * (n - 1));
  double forward_backward = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      values.push_back(m.noise().value(s, d));
      if (s < d) forward_backward += values.back() * m.noise().value(d, s);
    }
  }
  const std::size_t links = values.size() / 2;
  const double sigma = p.edge_noise_stddev;
  const double correlation =
      forward_backward / (static_cast<double>(links) * sigma * sigma);
  EXPECT_LT(std::abs(correlation), 4.0 / std::sqrt(static_cast<double>(links)));
  const std::size_t count = values.size();
  EXPECT_LT(ks_distance_to_normal(values, sigma), ks_critical(count));
}

// The pre-swap model's per-distance link success, one row per (seed,
// distance): seed, distance_ft, pairs, mean, spread.
struct DistanceRow {
  std::uint64_t seed;
  double distance;
  std::size_t pairs;
  double mean;
  double spread;
};

// Same measurement as tests/data/link_success_by_distance_mt.csv: a 16x16
// grid at 5 ft, default Params, every ordered pair with nonzero base
// success, grouped by distance.
std::vector<DistanceRow> link_success_by_distance(std::uint64_t seed) {
  const Topology t = Topology::grid(16, 16, 5.0);
  const EmpiricalLinkModel::Params p;
  const EmpiricalLinkModel m(t, p, sim::Rng(seed));
  std::map<long, std::vector<double>> by_distance;  // key: distance * 1e4
  const auto n = static_cast<NodeId>(t.size());
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      const double dist = t.node_distance(s, d);
      if (EmpiricalLinkModel::base_success(dist / p.range_ft, p) <= 0.0) {
        continue;
      }
      by_distance[std::lround(dist * 1e4)].push_back(
          m.packet_success(s, d, 1.0));
    }
  }
  std::vector<DistanceRow> rows;
  for (const auto& [key, v] : by_distance) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    const double mean = sum / static_cast<double>(v.size());
    double ss = 0.0;
    for (const double x : v) ss += (x - mean) * (x - mean);
    rows.push_back({seed, static_cast<double>(key) / 1e4, v.size(), mean,
                    std::sqrt(ss / static_cast<double>(v.size() - 1))});
  }
  return rows;
}

std::vector<DistanceRow> load_old_table() {
  std::ifstream in(std::string(MNP_TEST_DATA_DIR) +
                   "/link_success_by_distance_mt.csv");
  std::vector<DistanceRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    DistanceRow r{};
    char comma = 0;
    fields >> r.seed >> comma >> r.distance >> comma >> r.pairs >> comma >>
        r.mean >> comma >> r.spread;
    rows.push_back(r);
  }
  return rows;
}

// Mean over seeds and its standard error, from the per-seed values.
std::pair<double, double> mean_and_error(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  const auto k = static_cast<double>(xs.size());
  const double mean = sum / k;
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  return {mean, std::sqrt(ss / (k - 1) / k)};
}

TEST(EdgeNoise, LinkSuccessByDistanceMatchesTheOldModel) {
  // Per distance, the mean link success and its spread across the pairs,
  // averaged over ten seeds, agree with the mt19937_64 model within four
  // standard errors of the difference.
  const std::vector<DistanceRow> old_rows = load_old_table();
  ASSERT_EQ(old_rows.size(), 150u) << "missing or truncated table";
  std::map<long, std::vector<DistanceRow>> old_by, new_by;
  for (const DistanceRow& r : old_rows) {
    old_by[std::lround(r.distance * 1e4)].push_back(r);
  }
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const DistanceRow& r : link_success_by_distance(seed)) {
      new_by[std::lround(r.distance * 1e4)].push_back(r);
    }
  }
  ASSERT_EQ(old_by.size(), new_by.size());
  for (const auto& [key, olds] : old_by) {
    const std::vector<DistanceRow>& news = new_by[key];
    ASSERT_EQ(news.size(), olds.size()) << "distance " << key / 1e4;
    EXPECT_EQ(news.front().pairs, olds.front().pairs);
    for (const auto field : {&DistanceRow::mean, &DistanceRow::spread}) {
      std::vector<double> a, b;
      for (const DistanceRow& r : olds) a.push_back(r.*field);
      for (const DistanceRow& r : news) b.push_back(r.*field);
      const auto [old_mean, old_err] = mean_and_error(a);
      const auto [new_mean, new_err] = mean_and_error(b);
      EXPECT_NEAR(new_mean, old_mean,
                  4.0 * std::sqrt(old_err * old_err + new_err * new_err))
          << (field == &DistanceRow::mean ? "mean" : "spread")
          << " at " << key / 1e4 << " ft";
    }
  }
}

// The model's formulas, evaluated on the dense reference.
struct EmpiricalCase {
  using Model = EmpiricalLinkModel;
  static Model::Params params() { return {}; }
  static double stddev(const Model::Params& p) { return p.edge_noise_stddev; }
  static double success(const Model&, const Model::Params& p, double dist,
                        double noise, double ps) {
    const double eff = p.range_ft * ps;
    if (eff <= 0.0) return 0.0;
    const double base = Model::base_success(dist / eff, p);
    if (base <= 0.0) return 0.0;
    return std::clamp(base + noise, 0.0, 1.0);
  }
  static bool interferes(const Model&, const Model::Params& p, double dist,
                         double, double ps) {
    return dist <= p.range_ft * p.interference_factor * ps;
  }
};

template <class Case>
class SparseNoise : public ::testing::Test {
 protected:
  using Model = typename Case::Model;

  // Every (src, dst) pair, self pairs included, in an order shuffled by
  // `shuffle_seed` (0 = row-major).
  static std::vector<std::pair<NodeId, NodeId>> pairs(std::size_t n,
                                                      unsigned shuffle_seed) {
    std::vector<std::pair<NodeId, NodeId>> all;
    all.reserve(n * n);
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId d = 0; d < n; ++d) all.emplace_back(s, d);
    }
    if (shuffle_seed != 0) {
      sim::Rng rng(shuffle_seed);
      for (std::size_t i = all.size() - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i)));
        std::swap(all[i], all[j]);
      }
    }
    return all;
  }

  // Number of answers (both queries, every pair) that differ from the
  // dense reference at `ps`; `first` names the first one.
  static std::size_t mismatches(const Model& m, const Topology& t,
                                const typename Model::Params& p,
                                const std::vector<double>& ref, double ps,
                                unsigned shuffle_seed, std::string& first) {
    const std::size_t n = t.size();
    std::size_t bad = 0;
    for (const auto& [s, d] : pairs(n, shuffle_seed)) {
      double want_p = 0.0;
      bool want_i = false;
      if (s != d) {
        const double dist = t.node_distance(s, d);
        want_p = Case::success(m, p, dist, ref[s * n + d], ps);
        want_i = Case::interferes(m, p, dist, ref[s * n + d], ps);
      }
      const double got_p = m.packet_success(s, d, ps);
      const bool got_i = m.interferes(s, d, ps);
      if (got_p != want_p || got_i != want_i) {
        if (bad++ == 0) {
          first = std::to_string(s) + "->" + std::to_string(d) + " at " +
                  std::to_string(ps) + ": success " + std::to_string(got_p) +
                  " vs " + std::to_string(want_p);
        }
      }
    }
    return bad;
  }
};

using ModelCases = ::testing::Types<EmpiricalCase>;
TYPED_TEST_SUITE(SparseNoise, ModelCases);

TYPED_TEST(SparseNoise, EveryPairEqualsTheDenseReferenceAtEveryPowerScale) {
  const Topology t = Topology::grid(15, 15, 10.0);
  const auto p = TypeParam::params();
  const typename TypeParam::Model m(t, p, sim::Rng(5));
  const std::vector<double> ref = dense_noise(t.size(), 5, TypeParam::stddev(p));
  std::string first;
  for (const double ps : {0.25, 0.5, 1.0, 1.5}) {
    EXPECT_EQ(this->mismatches(m, t, p, ref, ps, 0, first), 0u) << first;
  }
}

TYPED_TEST(SparseNoise, MovesAndShuffledQueriesKeepEveryAnswerExact) {
  // noise(src, dst) depends on neither the order pairs are asked in nor
  // where the nodes stand: answers before and after 20 random moves, in
  // four shuffled orders, all equal the reference.
  Topology t = Topology::grid(12, 12, 10.0);
  const auto p = TypeParam::params();
  const typename TypeParam::Model m(t, p, sim::Rng(11));
  const std::vector<double> ref =
      dense_noise(t.size(), 11, TypeParam::stddev(p));
  const std::vector<double> before = [&] {
    std::vector<double> v;
    for (NodeId s = 0; s < t.size(); ++s) {
      for (NodeId d = 0; d < t.size(); ++d) v.push_back(m.noise().value(s, d));
    }
    return v;
  }();
  std::string first;
  EXPECT_EQ(this->mismatches(m, t, p, ref, 1.0, 3, first), 0u) << first;

  sim::Rng rng(19);
  for (int i = 0; i < 20; ++i) {
    const auto id = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(t.size()) - 1));
    const double x = rng.uniform_real(0.0, 110.0);
    t.set_position(id, {x, rng.uniform_real(0.0, 110.0)});
  }
  for (const double ps : {0.5, 1.0}) {
    EXPECT_EQ(this->mismatches(m, t, p, ref, ps, 4, first), 0u) << first;
  }
  for (const double ps : {1.0, 0.5}) {
    EXPECT_EQ(this->mismatches(m, t, p, ref, ps, 5, first), 0u) << first;
  }
  std::size_t i = 0;
  for (NodeId s = 0; s < t.size(); ++s) {
    for (NodeId d = 0; d < t.size(); ++d) {
      ASSERT_EQ(m.noise().value(s, d), before[i++]) << s << "->" << d;
    }
  }
}

}  // namespace
}  // namespace mnp::net
