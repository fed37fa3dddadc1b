// Tests for the observability layer (DESIGN.md section 9): the metrics
// registry, the Perfetto trace export (against a checked-in golden file),
// the run manifest, and the bit-identity of observed sweeps across job
// counts.
//
// Regenerate the golden trace after an intentional schema change with:
//   MNP_UPDATE_GOLDEN=1 ./build/tests/test_obs
// and bump obs::kTelemetrySchemaVersion if the change is breaking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/observe.hpp"
#include "harness/sweep.hpp"
#include "node/stats.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario_parser.hpp"

#ifndef MNP_TEST_DATA_DIR
#define MNP_TEST_DATA_DIR "tests/data"
#endif
#ifndef MNP_EXAMPLE_SCENARIO_DIR
#define MNP_EXAMPLE_SCENARIO_DIR "examples/scenarios"
#endif

namespace mnp {
namespace {

// ---------------------------------------------------------------- JsonWriter

TEST(JsonWriter, EscapesAndFormats) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("s");
  w.value("a\"b\\c\n\t");
  w.key("f");
  w.value(1.5);
  w.key("third");
  w.value(1.0 / 3.0);
  w.key("i");
  w.value(std::int64_t{-7});
  w.key("b");
  w.value(true);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\\t\",\"f\":1.5,"
            "\"third\":0.3333333333,\"i\":-7,\"b\":true}");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

// ----------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistry, CounterPerNodeAndTotal) {
  obs::MetricsRegistry m(3);
  auto c = m.register_counter("chan.tx", obs::Unit::kCount, /*per_node=*/true);
  m.add(c, net::NodeId{0});
  m.add(c, net::NodeId{0});
  m.add(c, net::NodeId{2}, 5);
  EXPECT_EQ(m.counter_total("chan.tx"), 7u);
  EXPECT_EQ(m.counter_node("chan.tx", 0), 2u);
  EXPECT_EQ(m.counter_node("chan.tx", 1), 0u);
  EXPECT_EQ(m.counter_node("chan.tx", 2), 5u);
}

TEST(MetricsRegistry, OutOfRangeNodeCountsTowardTotalOnly) {
  obs::MetricsRegistry m(2);
  auto c = m.register_counter("c", obs::Unit::kCount, true);
  m.add(c, net::kBroadcastId);
  EXPECT_EQ(m.counter_total("c"), 1u);
  EXPECT_EQ(m.counter_node("c", 0), 0u);
  EXPECT_EQ(m.counter_node("c", 1), 0u);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  obs::MetricsRegistry m(2);
  auto a = m.register_counter("x", obs::Unit::kBytes, true);
  auto b = m.register_counter("x", obs::Unit::kBytes, true);
  EXPECT_EQ(a.cell, b.cell);
  m.add(a, net::NodeId{1});
  m.add(b, net::NodeId{1});
  EXPECT_EQ(m.counter_node("x", 1), 2u);
}

TEST(MetricsRegistry, HistogramBuckets) {
  obs::MetricsRegistry m;
  auto h = m.register_histogram("lat", obs::Unit::kMicroseconds,
                                {10.0, 100.0});
  m.observe(h, 5.0);
  m.observe(h, 50.0);
  m.observe(h, 5000.0);  // +inf tail
  obs::JsonWriter w;
  m.write_json(w);
  EXPECT_NE(w.str().find("\"count\":3"), std::string::npos) << w.str();
  EXPECT_NE(w.str().find("\"buckets\":[1,1,1]"), std::string::npos) << w.str();
}

TEST(MetricsRegistry, MergeAccumulatesElementWise) {
  obs::MetricsRegistry a(2), b(2);
  for (auto* m : {&a, &b}) {
    auto c = m->register_counter("c", obs::Unit::kCount, true);
    auto g = m->register_gauge("g", obs::Unit::kNanoampHours, false);
    m->add(c, net::NodeId{1}, 3);
    m->set(g, 2.5);
  }
  ASSERT_TRUE(a.merge_from(b));
  EXPECT_EQ(a.counter_total("c"), 6u);
  EXPECT_EQ(a.counter_node("c", 1), 6u);
  EXPECT_DOUBLE_EQ(a.gauge_total("g"), 5.0);
}

TEST(MetricsRegistry, MergeRefusesDifferingSchemas) {
  obs::MetricsRegistry a(2), b(2);
  a.register_counter("c", obs::Unit::kCount, true);
  b.register_counter("other", obs::Unit::kCount, true);
  EXPECT_FALSE(a.merge_from(b));
}

TEST(MetricsRegistry, ExportIsSortedByName) {
  obs::MetricsRegistry m;
  m.register_counter("zeta", obs::Unit::kCount, false);
  m.register_counter("alpha", obs::Unit::kCount, false);
  obs::JsonWriter w;
  m.write_json(w);
  const std::string json = w.str();
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
}

TEST(MetricsRegistryDeathTest, NodeCountAfterRegistrationAborts) {
  // A late node count would alias per-node blocks; this must fail in every
  // build type, not only where assert() is compiled in.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  obs::MetricsRegistry m;
  m.register_counter("node.completions", obs::Unit::kCount, true);
  EXPECT_DEATH(m.set_node_count(4), "set_node_count");
}

// ------------------------------------------------------------- observed runs

harness::ExperimentConfig tiny() {
  harness::ExperimentConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.set_program_segments(1);
  cfg.max_sim_time = sim::hours(1);
  return cfg;
}

TEST(ObservedRun, PublishesMetricsTraceAndCounterTracks) {
  harness::Observation obs;
  const auto r = harness::run_experiment(tiny(), &obs);
  EXPECT_TRUE(r.all_completed);
  EXPECT_EQ(obs.node_count, 9u);
  EXPECT_EQ(obs.log.dropped(), 0u);
  EXPECT_GT(obs.log.size(), 0u);
  // One subsystem per layer: channel, MAC, protocol, energy, run summary.
  EXPECT_GT(obs.metrics.counter_total("chan.tx"), 0u);
  EXPECT_GT(obs.metrics.counter_total("mac.tx"), 0u);
  EXPECT_GT(obs.metrics.counter_total("mnp.data_sent"), 0u);
  EXPECT_GT(obs.metrics.gauge_total("energy.nah"), 0.0);
  EXPECT_DOUBLE_EQ(obs.metrics.gauge_total("run.completed_nodes"), 9.0);
  // Counter tracks: per-node energy, the two channel cache-health series,
  // then the four message-class series.
  ASSERT_EQ(obs.counters.size(), 9u + 2u + 4u);
  EXPECT_EQ(obs.counters[0].name, "energy_nah");
  EXPECT_GE(obs.counters[0].samples.size(), 2u);  // t=0 and the final sample
  EXPECT_EQ(obs.counters[9].name, "cache_repairs");
  EXPECT_EQ(obs.counters[9].process, "network");
  EXPECT_GE(obs.counters[9].samples.size(), 2u);
  EXPECT_EQ(obs.counters[10].name, "cache_invalidations");
  EXPECT_EQ(obs.counters[11].name, "msgs_per_min_adv");
  EXPECT_EQ(obs.counters[11].process, "network");
}

TEST(ObservedRun, ObservationDoesNotPerturbTheRun) {
  harness::Observation obs;
  const auto observed = harness::run_experiment(tiny(), &obs);
  const auto plain = harness::run_experiment(tiny());
  EXPECT_EQ(observed.completion_time, plain.completion_time);
  EXPECT_EQ(observed.transmissions, plain.transmissions);
  EXPECT_EQ(observed.collisions, plain.collisions);
}

TEST(ObservedRun, DroppedEventsSurfaceInTheManifest) {
  harness::Observation obs(/*trace_capacity=*/10);
  const auto cfg = tiny();
  harness::run_experiment(cfg, &obs);
  EXPECT_GT(obs.log.dropped(), 0u);
  std::ostringstream manifest;
  harness::write_run_manifest(manifest, cfg, cfg.seed, 1, obs);
  const std::string expected =
      "\"dropped_events\":" + std::to_string(obs.log.dropped());
  EXPECT_NE(manifest.str().find(expected), std::string::npos);
  // And the trace header carries the same count.
  std::ostringstream trace;
  harness::write_trace_json(trace, obs);
  EXPECT_NE(trace.str().find(expected), std::string::npos);
}

// Satellite guarantee: the figure configurations must fit the default ring
// (their telemetry is the paper's evaluation; dropping any of it silently
// would corrupt the figures). 20x20 configs are exercised by the benches
// themselves; this covers the indoor figure class at test speed.
TEST(ObservedRun, FigureConfigsDropNoEvents) {
  for (const double range_ft : {9.0, 6.0}) {  // Fig. 5's two power levels
    harness::ExperimentConfig cfg;
    cfg.rows = 5;
    cfg.cols = 4;
    cfg.spacing_ft = 3.0;
    cfg.range_ft = range_ft;
    cfg.mnp.pipelining = false;
    cfg.mnp.packets_per_segment = 200;
    cfg.program_bytes = 200 * 22;
    cfg.seed = 11;
    harness::Observation obs;
    harness::run_experiment(cfg, &obs);
    EXPECT_EQ(obs.log.dropped(), 0u) << "range " << range_ft;
  }
}

// ------------------------------------------------------------ sweep identity

TEST(ObservedSweep, ExportsBitIdenticalAcrossJobCounts) {
  const auto cfg = tiny();
  const std::size_t runs = 4;

  const auto observe_with_jobs = [&](std::size_t jobs) {
    harness::Observation obs;
    harness::SweepOptions options;
    options.jobs = jobs;
    options.allow_oversubscribe = true;  // exercise the pool on any host
    options.observe = &obs;
    harness::run_sweep(cfg, runs, cfg.seed, options);
    std::ostringstream manifest, trace;
    harness::write_run_manifest(manifest, cfg, cfg.seed, runs, obs);
    harness::write_trace_json(trace, obs);
    return std::make_pair(manifest.str(), trace.str());
  };

  const auto sequential = observe_with_jobs(1);
  const auto parallel = observe_with_jobs(4);
  EXPECT_EQ(sequential.first, parallel.first);    // manifest
  EXPECT_EQ(sequential.second, parallel.second);  // representative trace
}

TEST(ObservedSweep, MergesMetricsOverAllSeeds) {
  const auto cfg = tiny();
  harness::Observation obs;
  harness::SweepOptions options;
  options.observe = &obs;
  harness::run_sweep(cfg, 3, cfg.seed, options);
  // Each of the 3 seeds completes all 9 nodes; gauges merge by summing.
  EXPECT_DOUBLE_EQ(obs.metrics.gauge_total("run.completed_nodes"), 27.0);
  harness::Observation single;
  harness::run_experiment(cfg, &single);
  EXPECT_GT(obs.metrics.counter_total("chan.tx"),
            single.metrics.counter_total("chan.tx"));
}

// ----------------------------------------------- one traffic-counter store

/// The chan.*, node.* and energy.* metrics of an observed run must agree,
/// per node, with the RunResult and with the run's own event trace.
void expect_counters_agree(const harness::Observation& obs,
                           const harness::RunResult& r,
                           const std::string& label) {
  SCOPED_TRACE(label);
  const obs::MetricsRegistry& m = obs.metrics;
  ASSERT_EQ(obs.log.dropped(), 0u);
  ASSERT_EQ(m.node_count(), r.nodes.size());
  EXPECT_EQ(m.counter_total("chan.tx"), r.transmissions);
  EXPECT_EQ(m.counter_total("chan.delivered"), r.deliveries);
  EXPECT_EQ(m.counter_total("chan.collisions"), r.collisions);
  EXPECT_EQ(m.counter_total("chan.bulk_overlaps"), r.bulk_overlaps);

  // Independent recount from the trace: sent packets by class, and the
  // distinct segments each node completed.
  std::vector<std::uint64_t> adv(r.nodes.size()), data(r.nodes.size());
  for (const auto& e : obs.log.of_kind(trace::EventKind::kPacketSent)) {
    for (std::size_t t = 0; t < net::kPacketTypeCount; ++t) {
      const auto type = static_cast<net::PacketType>(t);
      if (e.detail != net::type_name(type)) continue;
      const node::MsgClass c = node::classify(type);
      if (c == node::MsgClass::kAdvertisement) ++adv[e.node];
      if (c == node::MsgClass::kData) ++data[e.node];
    }
  }
  std::set<std::pair<net::NodeId, std::string>> segments;
  for (const auto& e : obs.log.of_kind(trace::EventKind::kSegmentCompleted)) {
    segments.emplace(e.node, e.detail);
  }

  for (net::NodeId id = 0; id < r.nodes.size(); ++id) {
    SCOPED_TRACE("node " + std::to_string(id));
    const harness::NodeResult& n = r.nodes[id];
    EXPECT_EQ(m.counter_node("chan.tx", id), n.tx_total);
    EXPECT_EQ(m.counter_node("energy.tx_packets", id), n.tx_total);
    EXPECT_EQ(m.counter_node("chan.delivered", id), n.rx_total);
    EXPECT_EQ(m.counter_node("energy.rx_packets", id), n.rx_total);
    EXPECT_EQ(m.counter_node("chan.collisions", id), n.collisions_suffered);
    EXPECT_EQ(m.counter_node("node.completions", id),
              n.completion >= 0 ? 1u : 0u);
    const auto completed = static_cast<std::uint64_t>(std::count_if(
        segments.begin(), segments.end(),
        [id](const auto& s) { return s.first == id; }));
    EXPECT_EQ(m.counter_node("node.segments_completed", id), completed);
    EXPECT_LE(n.tx_adv + n.tx_data, n.tx_total);
    EXPECT_EQ(n.tx_adv, adv[id]);
    EXPECT_EQ(n.tx_data, data[id]);
  }
}

TEST(CounterStore, RegistryMatchesRunResultForEveryProtocol) {
  for (const auto protocol :
       {harness::Protocol::kMnp, harness::Protocol::kDeluge,
        harness::Protocol::kMoap, harness::Protocol::kXnp,
        harness::Protocol::kNcast}) {
    harness::ExperimentConfig cfg;
    cfg.protocol = protocol;
    cfg.rows = 5;
    cfg.cols = 5;
    cfg.set_program_segments(2);
    cfg.max_sim_time = sim::hours(2);
    harness::Observation obs;
    const auto r = harness::run_experiment(cfg, &obs);
    EXPECT_GT(r.transmissions, 0u);
    expect_counters_agree(obs, r, harness::protocol_name(protocol));
  }
}

TEST(CounterStore, RegistryMatchesRunResultUnderChurnAndMobility) {
  const auto parsed = scenario::load_scenario_file(
      std::string(MNP_EXAMPLE_SCENARIO_DIR) + "/churn_partition_mobility.scn");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  harness::ExperimentConfig cfg;
  cfg.scenario = parsed.scenario;
  cfg.set_program_segments(2);
  harness::Observation obs;
  const auto r = harness::run_experiment(cfg, &obs);
  ASSERT_TRUE(r.scenario_error.empty()) << r.scenario_error;
  EXPECT_GT(r.scenario_injected, 0u);
  expect_counters_agree(obs, r, "churn_partition_mobility");
}

// -------------------------------------------------------------- golden trace

harness::ExperimentConfig golden_config() {
  harness::ExperimentConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.mnp.packets_per_segment = 16;  // keeps the checked-in snapshot small
  cfg.set_program_segments(1);
  cfg.max_sim_time = sim::hours(1);
  cfg.seed = 42;
  return cfg;
}

TEST(TraceGolden, MatchesCheckedInSnapshot) {
  harness::Observation obs;
  harness::run_experiment(golden_config(), &obs);
  ASSERT_EQ(obs.log.dropped(), 0u);
  std::ostringstream rendered;
  harness::write_trace_json(rendered, obs);

  const std::string path =
      std::string(MNP_TEST_DATA_DIR) + "/golden_trace_3x3.json";
  if (std::getenv("MNP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << rendered.str();
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (regenerate with MNP_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  // Byte equality: the export is deterministic by design — any diff is
  // either a real schema change (bump kTelemetrySchemaVersion, regenerate)
  // or a determinism regression.
  EXPECT_EQ(rendered.str(), expected.str());
}

}  // namespace
}  // namespace mnp
