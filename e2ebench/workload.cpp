#include "workload.hpp"

#include <numeric>
#include <sstream>
#include <vector>

#include "scenario/scenario_parser.hpp"
#include "sim/rng.hpp"

namespace mnp::e2e {

namespace {

// Why these three (BENCHMARK.md has the long form):
//  * mnp_static_1600: the largest fault-free MNP run that fits the run
//    budget; the network-wide collision scan and 1600 dense EEPROMs
//    dominate it.
//  * deluge_static_900: radios always on, so deliveries per transmission,
//    the stats store and Trickle timer churn dominate instead.
//  * mnp_churn_mobile_900: the only run that repairs channel rows, bumps
//    link-model revisions and resumes from the EEPROM-tail journal.
constexpr Workload kWorkloads[] = {
    {"mnp_static_1600", harness::Protocol::kMnp, 40, 40, 8, 8, false},
    {"deluge_static_900", harness::Protocol::kDeluge, 30, 30, 6, 6, false},
    {"mnp_churn_mobile_900", harness::Protocol::kMnp, 30, 30, 8, 8, true},
};

// Salt separating the scenario's stream from the simulator's root stream,
// which is seeded with the same seed.
constexpr std::uint64_t kScenarioSalt = 0x5CE7A210C0FFEEULL;

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

std::string churn_scenario_text(std::uint64_t seed, std::size_t rows,
                                std::size_t cols, double spacing_ft) {
  sim::Rng rng(seed ^ kScenarioSalt);
  const std::size_t n = rows * cols;
  const std::size_t top = (rows / 2) * cols;
  const auto max_x = static_cast<std::int64_t>(
      static_cast<double>(cols - 1) * spacing_ft);
  const auto max_y = static_cast<std::int64_t>(
      static_cast<double>(rows - 1) * spacing_ft);

  std::ostringstream out;
  out << "scenario churn-mobile-" << rows << "x" << cols << "-seed" << seed
      << "\n";
  // Victims are drawn by the engine from its own fork of the run's RNG;
  // the base station is protected.
  out << "at 2min crash-fraction 0.2 down 45s\n";
  out << "at 3min partition 30s groups 0-" << top - 1 << "|" << top << "-"
      << n - 1 << "\n";

  // 5% of the nodes, never the base station, each on one waypoint move to
  // a random point inside the field (so it keeps radio neighbors).
  std::vector<net::NodeId> ids(n - 1);
  std::iota(ids.begin(), ids.end(), net::NodeId{1});
  const std::size_t movers = n / 20;
  for (std::size_t i = 0; i < movers; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(ids.size() - 1)));
    std::swap(ids[i], ids[j]);
    const std::int64_t at_s = rng.uniform_int(30, 240);
    const std::int64_t x = rng.uniform_int(0, max_x);
    const std::int64_t y = rng.uniform_int(0, max_y);
    const std::int64_t over_s = rng.uniform_int(30, 120);
    out << "at " << at_s << "s move " << ids[i] << " to " << x << " " << y
        << " over " << over_s << "s\n";
  }
  return out.str();
}

std::string digest_hex(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  static const char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[h & 0xF];
    h >>= 4;
  }
  return out;
}

bool make_config(const Workload& w, std::uint64_t seed, bool smoke,
                 harness::ExperimentConfig* cfg, std::string* scenario_text,
                 std::string* error) {
  harness::ExperimentConfig c;
  c.protocol = w.protocol;
  c.rows = smoke ? w.smoke_rows : w.rows;
  c.cols = smoke ? w.smoke_cols : w.cols;
  c.spacing_ft = 10.0;
  c.range_ft = 25.0;
  c.mac = harness::MacType::kCsma;
  c.empirical_links = true;
  c.set_program_segments(2);
  c.seed = seed;
  scenario_text->clear();
  if (w.churn) {
    *scenario_text = churn_scenario_text(seed, c.rows, c.cols, c.spacing_ft);
    scenario::ParseResult parsed =
        scenario::parse_scenario_text(*scenario_text);
    if (!parsed.ok) {
      *error = "generated scenario does not parse: " + parsed.error;
      return false;
    }
    c.scenario = std::move(parsed.scenario);
  }
  *cfg = std::move(c);
  return true;
}

}  // namespace mnp::e2e
