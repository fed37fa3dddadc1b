// Fig. 12: advertisements, download requests and data messages transmitted
// per one-minute window across the run, 20x20 grid, 5 segments.
//
// Paper shape: the number of data messages per minute stays roughly
// constant through the bulk of the run — a smooth pipelined flow — then
// tails off as the network completes.
#include <iostream>

#include "harness/experiment.hpp"
#include "harness/observe.hpp"
#include "harness/report.hpp"
#include "util/histogram.hpp"

int main(int argc, char** argv) {
  using namespace mnp;
  const harness::ObsCli obs_cli = harness::parse_obs_args(argc, argv);
  std::cout << "=== Fig. 12: message-type timeline, 20x20 grid, 5 segments ===\n\n";
  harness::ExperimentConfig cfg;
  cfg.rows = 20;
  cfg.cols = 20;
  cfg.set_program_segments(5);
  cfg.seed = 8;
  harness::Observation observation;
  const auto r = harness::run_experiment(
      cfg, obs_cli.enabled() ? &observation : nullptr);
  if (!harness::finish_observation(obs_cli, cfg, observation)) return 1;

  harness::print_timeline(std::cout, r);

  // Steadiness check over the core of the run (skip ramp-up minute 0 and
  // the final partial minute).
  util::RunningStats data_rate;
  const std::int64_t last_minute = r.timeline.back().first;
  for (const auto& [minute, counts] : r.timeline) {
    if (minute == 0 || minute >= last_minute - 1) continue;
    data_rate.add(static_cast<double>(counts[2]));
  }
  std::cout << "\ndata msgs/minute over the core of the run: mean "
            << data_rate.mean() << ", min " << data_rate.min() << ", max "
            << data_rate.max() << "\n";
  std::cout << "shape check (paper): the data series stays roughly constant\n"
               "during the run, indicating a smooth propagation flow.\n";
  return 0;
}
