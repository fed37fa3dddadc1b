// The benchmark's three dissemination workloads and the seeded churn
// scenario of the mobile one. Every input a run sees is derived here from
// the workload name, the seed and the size (full or smoke).
#pragma once

#include <cstdint>
#include <string>

#include "harness/experiment.hpp"

namespace mnp::e2e {

struct Workload {
  const char* name;
  harness::Protocol protocol;
  std::size_t rows;
  std::size_t cols;
  /// Small grid of the same shape, for the smoke mode.
  std::size_t smoke_rows;
  std::size_t smoke_cols;
  /// Runs under the generated churn/partition/mobility scenario.
  bool churn;
};

/// Looks a workload up by name; null when unknown.
const Workload* find_workload(const std::string& name);

/// Comma-separated workload names, for usage messages.
std::string workload_names();

/// Scenario text for a rows x cols grid (10 ft spacing): a 20% crash wave
/// at 2 min with 45 s downtime, a 30 s top/bottom partition at 3 min, and
/// waypoint moves for 5% of the non-base nodes. Only sim::Rng seeded from
/// `seed` is drawn from, so the same arguments give byte-identical text.
std::string churn_scenario_text(std::uint64_t seed, std::size_t rows,
                                std::size_t cols, double spacing_ft);

/// FNV-1a 64 of `text`, as 16 hex digits.
std::string digest_hex(const std::string& text);

/// The full experiment configuration of one run: CSMA, empirical links,
/// 10 ft spacing, 25 ft range, a 2-segment image, and for churn workloads
/// the parsed scenario (its text is stored in `*scenario_text`).
/// Returns false with `*error` set when the scenario fails to parse.
bool make_config(const Workload& w, std::uint64_t seed, bool smoke,
                 harness::ExperimentConfig* cfg, std::string* scenario_text,
                 std::string* error);

}  // namespace mnp::e2e
