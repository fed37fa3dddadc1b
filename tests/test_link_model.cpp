// Unit tests for the disk, empirical and shadowing link models and the
// sparse per-edge noise store behind the last two.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "mnp/mnp_node.hpp"
#include "net/link_model.hpp"
#include "node/network.hpp"
#include "sim/simulator.hpp"

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


TEST(ShadowingLinkModel, MarginMonotoneInDistance) {
  Topology t = line_topology(10.0, 2);
  ShadowingLinkModel m(t, {}, sim::Rng(1));
  double prev = 1e9;
  for (double d = 5.0; d <= 100.0; d += 5.0) {
    const double margin = m.margin_db(d, 1.0);
    EXPECT_LT(margin, prev);
    prev = margin;
  }
  // 0 dB exactly at the nominal range.
  ShadowingLinkModel::Params p;
  EXPECT_NEAR(m.margin_db(p.range_ft, 1.0), 0.0, 1e-9);
}

TEST(ShadowingLinkModel, SuccessFollowsMargin) {
  Topology t = line_topology(5.0, 12);
  ShadowingLinkModel::Params p;
  p.shadowing_stddev_db = 0.0;  // deterministic for this test
  ShadowingLinkModel m(t, p, sim::Rng(2));
  // Close (5 ft, margin >> 0): near-certain. Far (55 ft, margin << 0):
  // deep in the logistic tail; the hard cutoff clips the extreme tail.
  EXPECT_GT(m.packet_success(0, 1, 1.0), 0.9);
  EXPECT_LT(m.packet_success(0, 11, 1.0), 0.05);
  EXPECT_DOUBLE_EQ(m.margin_db(250.0, 1.0) > 0 ? 1.0 : 0.0, 0.0);
  // Monotone in between.
  double prev = 1.0;
  for (NodeId j = 1; j < 12; ++j) {
    const double s = m.packet_success(0, j, 1.0);
    EXPECT_LE(s, prev + 1e-12);
    prev = s;
  }
}

TEST(ShadowingLinkModel, ShadowingMakesLinksAsymmetric) {
  Topology t = line_topology(22.0, 2);
  ShadowingLinkModel::Params p;
  p.shadowing_stddev_db = 6.0;
  bool saw_asymmetry = false;
  for (std::uint64_t seed = 0; seed < 8 && !saw_asymmetry; ++seed) {
    ShadowingLinkModel m(t, p, sim::Rng(seed));
    if (std::abs(m.packet_success(0, 1, 1.0) - m.packet_success(1, 0, 1.0)) >
        1e-3) {
      saw_asymmetry = true;
    }
  }
  EXPECT_TRUE(saw_asymmetry);
}

TEST(ShadowingLinkModel, InterferenceReachesBeyondDecoding) {
  Topology t = line_topology(10.0, 8);
  ShadowingLinkModel::Params p;
  p.shadowing_stddev_db = 0.0;
  ShadowingLinkModel m(t, p, sim::Rng(3));
  // Find the farthest decodable node and verify interference reaches past.
  NodeId last_decodable = 0;
  for (NodeId j = 1; j < 8; ++j) {
    if (m.packet_success(0, j, 1.0) > 0.0) last_decodable = j;
  }
  ASSERT_GE(last_decodable, 1);
  if (last_decodable + 1 < 8) {
    EXPECT_TRUE(m.interferes(0, static_cast<NodeId>(last_decodable + 1), 1.0));
  }
}

TEST(ShadowingLinkModel, ZeroPowerIsSilent) {
  Topology t = line_topology(10.0, 2);
  ShadowingLinkModel m(t, {}, sim::Rng(4));
  EXPECT_DOUBLE_EQ(m.packet_success(0, 1, 0.0), 0.0);
  EXPECT_FALSE(m.interferes(0, 1, 0.0));
}

TEST(ShadowingIntegration, MnpCompletesOverShadowedLinks) {
  // Plug the shadowing model into a real dissemination via the Network
  // link-model factory.
  sim::Simulator sim(21);
  node::Network network(
      sim, Topology::grid(4, 4, 10.0), [&](const Topology& t) {
        ShadowingLinkModel::Params p;
        p.range_ft = 30.0;
        return std::make_unique<ShadowingLinkModel>(t, p, sim.fork_rng(77));
      });
  core::MnpConfig cfg;
  auto image = std::make_shared<const core::ProgramImage>(
      1, cfg.packets_per_segment * cfg.payload_bytes);
  for (NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<core::MnpNode>(cfg, image)
                : std::make_unique<core::MnpNode>(cfg));
  }
  network.boot_all();
  EXPECT_TRUE(sim.run_until_condition(
      sim::hours(2), [&] { return network.stats().all_completed(); }));
}

// ---- Sparse per-edge noise: exact against a dense reference -------------

// The n² stream both models draw, row by row: entry src * n + dst.
std::vector<double> dense_noise(std::size_t n, std::uint64_t seed,
                                double stddev) {
  sim::Rng rng(seed);
  std::vector<double> noise(n * n);
  for (double& v : noise) v = rng.normal(0.0, stddev);
  return noise;
}

TEST(EdgeNoise, EveryPairEqualsTheDenseStreamWhateverTheReach) {
  const Topology t = Topology::grid(6, 6, 10.0);
  const std::size_t n = t.size();
  const std::vector<double> ref = dense_noise(n, 31, 0.5);
  for (const double reach : {0.0, 15.0, 1e9}) {
    const EdgeNoise store(t, 0.5, sim::Rng(31), reach);
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId d = 0; d < n; ++d) {
        if (s == d) continue;
        ASSERT_EQ(store.value(s, d), ref[s * n + d])
            << "reach " << reach << " pair " << s << "->" << d;
      }
    }
    // Stored pairs never replay; every other pair replays exactly once.
    const std::size_t pairs = n * (n - 1);
    EXPECT_EQ(store.stored_edges(), pairs);
    if (reach > 1e6) {
      EXPECT_EQ(store.replays(), 0u);
    }
    if (reach == 0.0) {
      EXPECT_EQ(store.replays(), pairs);
    }
  }
}

// A short-range shadowing field: its interference reach (~25-30 ft at
// power scale 1) spans a few 10 ft grid hops, so most pairs of a grid lie
// outside the store and the early answers and replays are exercised.
ShadowingLinkModel::Params short_range_shadowing() {
  ShadowingLinkModel::Params p;
  p.range_ft = 10.0;
  p.shadowing_stddev_db = 2.0;
  p.interference_margin_db = 3.0;
  return p;
}

// The pre-store formulas of each model, evaluated on a dense noise matrix.
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

struct ShadowingCase {
  using Model = ShadowingLinkModel;
  static Model::Params params() { return short_range_shadowing(); }
  static double stddev(const Model::Params& p) { return p.shadowing_stddev_db; }
  static double success(const Model& m, const Model::Params& p, double dist,
                        double noise, double ps) {
    const double margin = m.margin_db(dist, ps) + noise;
    const double z = margin / p.transition_width_db;
    const double prob = 1.0 / (1.0 + std::exp(-z));
    return prob < 0.01 ? 0.0 : std::min(prob, 0.99);
  }
  static bool interferes(const Model& m, const Model::Params& p, double dist,
                         double noise, double ps) {
    return m.margin_db(dist, ps) + noise > -p.interference_margin_db;
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
      std::shuffle(all.begin(), all.end(), std::mt19937(shuffle_seed));
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

using ModelCases = ::testing::Types<EmpiricalCase, ShadowingCase>;
TYPED_TEST_SUITE(SparseNoise, ModelCases);

TYPED_TEST(SparseNoise, EveryPairEqualsTheDenseReferenceAtEveryPowerScale) {
  const Topology t = Topology::grid(15, 15, 10.0);
  const auto p = TypeParam::params();
  const typename TypeParam::Model m(t, p, sim::Rng(5));
  const std::vector<double> ref = dense_noise(t.size(), 5, TypeParam::stddev(p));
  std::string first;
  for (const double ps : {0.25, 0.5, 1.0}) {
    EXPECT_EQ(this->mismatches(m, t, p, ref, ps, 0, first), 0u) << first;
  }
  // Above power scale 1 the reach outgrows the store: the new pairs are
  // replayed, memoised, and answered from the rows the second time.
  const std::uint64_t before = m.noise().replays();
  EXPECT_EQ(this->mismatches(m, t, p, ref, 1.5, 7, first), 0u) << first;
  const std::uint64_t replayed = m.noise().replays() - before;
  EXPECT_GT(replayed, 0u);
  EXPECT_EQ(this->mismatches(m, t, p, ref, 1.5, 8, first), 0u) << first;
  EXPECT_EQ(m.noise().replays() - before, replayed);
}

TYPED_TEST(SparseNoise, MovesAndShuffledQueriesKeepEveryAnswerExact) {
  Topology t = Topology::grid(12, 12, 10.0);
  const auto p = TypeParam::params();
  const typename TypeParam::Model m(t, p, sim::Rng(11));
  const std::vector<double> ref =
      dense_noise(t.size(), 11, TypeParam::stddev(p));
  std::string first;
  EXPECT_EQ(this->mismatches(m, t, p, ref, 1.0, 3, first), 0u) << first;

  std::mt19937 rng(19);
  std::uniform_real_distribution<double> coord(0.0, 110.0);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(t.size()) - 1);
  for (int i = 0; i < 20; ++i) {
    const auto id = static_cast<NodeId>(pick(rng));
    const double x = coord(rng);
    t.set_position(id, {x, coord(rng)});
  }
  for (const double ps : {0.5, 1.0}) {
    EXPECT_EQ(this->mismatches(m, t, p, ref, ps, 4, first), 0u) << first;
  }
  const std::uint64_t replayed = m.noise().replays();
  EXPECT_GT(replayed, 0u) << "no moved node came near a new neighbour";
  // Memoised: another order asks the store nothing new.
  for (const double ps : {1.0, 0.5}) {
    EXPECT_EQ(this->mismatches(m, t, p, ref, ps, 5, first), 0u) << first;
  }
  EXPECT_EQ(m.noise().replays(), replayed);
}

TYPED_TEST(SparseNoise, StaticRowScanNeverReplaysAndRowsStaySmall) {
  // A 40x40 field, every row built as the channel builds it: interferes
  // for every pair, packet_success for the ones that interfere.
  const Topology t = Topology::grid(40, 40, 10.0);
  const typename TypeParam::Model m(t, TypeParam::params(), sim::Rng(16));
  const auto n = static_cast<NodeId>(t.size());
  std::size_t links = 0;
  for (const double ps : {1.0, 0.5}) {
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId d = 0; d < n; ++d) {
        if (m.interferes(s, d, ps) && m.packet_success(s, d, ps) > 0.0) {
          ++links;
        }
      }
    }
  }
  EXPECT_GT(links, 0u);
  EXPECT_EQ(m.noise().replays(), 0u);
  EXPECT_LE(m.noise().stored_edges(), 40u * n);
}

}  // namespace
}  // namespace mnp::net
