// mnp_e2e: one complete dissemination per process, assembled from the
// public API, for the end-to-end benchmark (run.py drives it; BENCHMARK.md
// documents the metrics).
//
//   mnp_e2e run --workload NAME --seed N --mode plain|traced|reference
//               [--smoke]
//   mnp_e2e scenario --workload NAME --seed N [--smoke]
//
// `run` prints one JSON object. `plain` times setup, the event loop and
// verification of the benchmark's own assembly; `traced` is the same
// assembly with forwarding proxies around every layer (tracing.hpp);
// `reference` is harness::run_experiment on the same config, for the
// cross-check. `scenario` prints the generated scenario text.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/deluge_node.hpp"
#include "harness/experiment.hpp"
#include "mnp/mnp_node.hpp"
#include "mnp/program_image.hpp"
#include "net/csma_mac.hpp"
#include "net/link_model.hpp"
#include "net/topology.hpp"
#include "node/network.hpp"
#include "scenario/scenario_engine.hpp"
#include "scenario/scenario_link_model.hpp"
#include "service/wallclock.hpp"
#include "sim/simulator.hpp"
#include "tracing.hpp"
#include "workload.hpp"

namespace mnp::e2e {
namespace {

/// A /proc/self/status field ("VmHWM:", "VmRSS:") in MiB; 0 if absent.
double proc_status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Flat JSON object writer: one line, keys in insertion order.
class JsonLine {
 public:
  JsonLine& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  JsonLine& raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }
  std::string body_;
};

/// Outcome counts every mode reports; the cross-checks compare them.
void add_outcome(JsonLine& j, sim::Time completion, std::uint64_t tx,
                 std::uint64_t deliveries, std::uint64_t collisions,
                 std::size_t verified, double msgs_per_node,
                 double active_radio_s, std::uint64_t injected) {
  j.num("sim_completion_s", sim::to_seconds(completion))
      .num("sim_msgs_per_node", msgs_per_node)
      .num("sim_active_radio_s", active_radio_s)
      .count("transmissions", tx)
      .count("deliveries", deliveries)
      .count("collisions", collisions)
      .count("verified", verified)
      .count("scenario_injected", injected);
}

std::unique_ptr<node::Application> make_app(
    const harness::ExperimentConfig& cfg, bool is_base,
    const std::shared_ptr<const core::ProgramImage>& image) {
  if (cfg.protocol == harness::Protocol::kDeluge) {
    return is_base ? std::make_unique<baselines::DelugeNode>(cfg.deluge, image)
                   : std::make_unique<baselines::DelugeNode>(cfg.deluge);
  }
  return is_base ? std::make_unique<core::MnpNode>(cfg.mnp, image)
                 : std::make_unique<core::MnpNode>(cfg.mnp);
}

double percentile_ms(std::vector<sim::Time>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return sim::to_ms(v[k]);
}

/// One dissemination from config to verified images, built the way
/// harness::run_experiment builds it (same RNG fork order, same run-end
/// predicate), so both must agree bit for bit. With a tracer, every layer
/// boundary is proxied and each scheduler step is a span.
int run_assembly(const harness::ExperimentConfig& config,
                 const std::string& scenario_digest, Tracer* tracer) {
  const double t0 = service::wall_ms();
  harness::ExperimentConfig cfg = config;
  const bool scenario_active = !cfg.scenario.empty();
  if (scenario_active) {
    // Rebooted nodes resume from their EEPROM journal, as in run_experiment.
    cfg.mnp.journal_progress = true;
    cfg.deluge.journal_progress = true;
  }

  sim::Simulator sim(cfg.seed);
  net::Topology topo = net::Topology::grid(cfg.rows, cfg.cols, cfg.spacing_ft);
  const double t_topology = service::wall_ms();

  scenario::ScenarioLinkModel* scenario_links = nullptr;
  const node::Network::LinkModelFactory link_factory =
      [&](const net::Topology& owned) -> std::unique_ptr<net::LinkModel> {
    net::EmpiricalLinkModel::Params lp;
    lp.range_ft = cfg.range_ft;
    lp.interference_factor = cfg.interference_factor;
    lp.edge_noise_stddev = cfg.link_noise_stddev;
    std::unique_ptr<net::LinkModel> links =
        std::make_unique<net::EmpiricalLinkModel>(owned, lp,
                                                  sim.fork_rng(0x11A7ULL));
    if (scenario_active) {
      auto wrapped = std::make_unique<scenario::ScenarioLinkModel>(
          std::move(links), owned.size());
      scenario_links = wrapped.get();
      links = std::move(wrapped);
    }
    if (tracer) {
      links = std::make_unique<LinkModelProxy>(std::move(links), *tracer);
    }
    return links;
  };
  node::Node::MacFactory mac_factory;  // null => the Node's default CSMA
  if (tracer) {
    mac_factory = [tracer](net::NodeId id, net::Radio& radio,
                           sim::Simulator& s) -> std::unique_ptr<net::Mac> {
      // Same RNG fork, in the same order, as Node's default CSMA MAC.
      auto csma = std::make_unique<net::CsmaMac>(radio, s.scheduler(),
                                                 s.fork_rng(0x3A5Cu + id));
      return std::make_unique<MacProxy>(std::move(csma), id, s.scheduler(),
                                        *tracer);
    };
  }
  node::Network network(sim, std::move(topo), link_factory, cfg.channel, {},
                        mac_factory);
  std::optional<ObserverProxy> observer;
  if (tracer) {
    observer.emplace(network.stats(), *tracer);
    network.channel().set_observer(&*observer);
  }
  const double t_network = service::wall_ms();

  auto image = std::make_shared<const core::ProgramImage>(
      cfg.program_id, cfg.program_bytes,
      harness::image_packets_per_segment(cfg),
      harness::image_payload_bytes(cfg));
  for (net::NodeId id = 0; id < network.size(); ++id) {
    std::unique_ptr<node::Application> app =
        make_app(cfg, id == cfg.base, image);
    if (tracer) {
      app = std::make_unique<ApplicationProxy>(std::move(app), *tracer);
    }
    network.node(id).set_application(std::move(app));
  }
  const double t_install = service::wall_ms();
  const double setup_rss_mb = proc_status_mb("VmRSS:");
  network.boot_all(cfg.boot_jitter);
  const double t_boot = service::wall_ms();

  // ---- event loop: run_experiment's run_until_condition, step by step ----
  std::optional<scenario::ScenarioEngine> engine;
  if (scenario_active) {
    engine.emplace(cfg.scenario, network, scenario_links, cfg.base);
    std::string error;
    if (!engine->arm(&error)) {
      std::fprintf(stderr, "scenario does not arm: %s\n", error.c_str());
      return 1;
    }
  }
  node::StatsCollector& stats = network.stats();
  sim::Scheduler& scheduler = sim.scheduler();
  const auto keep_running = [&] {
    if (engine ? engine->converged() : stats.all_completed()) return false;
    if (scheduler.empty() || sim.now() >= cfg.max_sim_time) return false;
    const sim::Time next = scheduler.next_event_time();
    return next != sim::kNever && next <= cfg.max_sim_time;
  };
  std::uint64_t events = 0;
  if (tracer) {
    events = tracer->run_loop(scheduler, keep_running);
  } else {
    while (keep_running()) {
      scheduler.step();
      ++events;
    }
  }
  const double t_loop = service::wall_ms();

  // ---- outcome, then byte-exact image check of every non-base node ------
  const sim::Time end = sim.now();
  double msgs = 0.0;
  double art = 0.0;
  std::uint64_t eeprom_writes = 0;
  std::uint64_t eeprom_reads = 0;
  std::uint64_t eeprom_bytes = 0;
  std::uint64_t mac_drops = 0;
  std::uint64_t dead_at_end = 0;
  for (net::NodeId id = 0; id < network.size(); ++id) {
    node::Node& n = network.node(id);
    msgs += static_cast<double>(stats.node(id).total_sent());
    art += sim::to_seconds(n.meter().active_radio_time(end));
    eeprom_writes += n.eeprom().total_writes();
    eeprom_reads += n.eeprom().total_reads();
    eeprom_bytes += n.eeprom().bytes_written();
    mac_drops += n.mac().packets_dropped();
    if (n.is_dead()) ++dead_at_end;
  }
  const auto node_count = static_cast<double>(network.size());
  std::size_t verified_non_base = 0;
  for (net::NodeId id = 0; id < network.size(); ++id) {
    if (id == cfg.base) continue;
    const std::vector<std::uint8_t> stored =
        network.node(id).eeprom().read(0, image->total_bytes());
    if (image->matches(stored)) ++verified_non_base;
  }
  const double t_verify = service::wall_ms();

  JsonLine j;
  j.str("mode", tracer ? "traced" : "plain")
      .count("nodes", network.size())
      .count("non_base", network.size() - 1)
      .count("verified_non_base", verified_non_base)
      .str("scenario_digest", scenario_digest);
  add_outcome(j, stats.completion_time(), network.channel().transmissions(),
              network.channel().deliveries(), network.channel().collisions(),
              verified_non_base + 1, msgs / node_count, art / node_count,
              engine ? engine->injected() : 0);
  j.num("wall_s", (t_verify - t0) / 1e3)
      .num("setup_s", (t_boot - t0) / 1e3)
      .num("peak_rss_mb", proc_status_mb("VmHWM:"))
      .num("harness.setup.topology_s", (t_topology - t0) / 1e3)
      .num("harness.setup.network_s", (t_network - t_topology) / 1e3)
      .num("harness.setup.install_s", (t_install - t_network) / 1e3)
      .num("harness.setup_rss_mb", setup_rss_mb)
      .num("harness.loop_s", (t_loop - t_boot) / 1e3)
      .num("harness.verify_s", (t_verify - t_loop) / 1e3)
      .count("sim.events", events)
      .num("sim.end_s", sim::to_seconds(end))
      .count("net.channel.cache_repairs", network.channel().cache_repairs())
      .count("net.channel.cache_invalidations",
             network.channel().cache_invalidations())
      .count("net.mac.drops", mac_drops)
      .count("storage.eeprom.writes", eeprom_writes)
      .count("storage.eeprom.reads", eeprom_reads)
      .count("storage.eeprom.bytes_written", eeprom_bytes);
  if (tracer) {
    const Tracer& t = *tracer;
    j.num("harness.loop_check_s", t.loop_check_s())
        .num("trace.step_span_s", t.step_span_s())
        .count("net.channel.tx_begin_steps", t.step_count(StepClass::kTxBegin))
        .num("net.channel.tx_begin_self_s", t.step_self_s(StepClass::kTxBegin))
        .count("net.channel.rx_end_steps", t.step_count(StepClass::kRxEnd))
        .num("net.channel.rx_end_self_s", t.step_self_s(StepClass::kRxEnd))
        .count("protocol.timer_steps", t.step_count(StepClass::kTimer))
        .num("protocol.timer_step_self_s", t.step_self_s(StepClass::kTimer))
        .count("net.link_model.calls", t.layer_calls(Layer::kLinkModel))
        .num("net.link_model.s", t.layer_self_s(Layer::kLinkModel))
        .count("net.mac.sends", t.layer_calls(Layer::kMac))
        .num("net.mac.send_s", t.layer_self_s(Layer::kMac))
        .num("net.mac.queue_wait_sim_ms_p50",
             percentile_ms(tracer->queue_waits(), 0.50))
        .num("net.mac.queue_wait_sim_ms_p99",
             percentile_ms(tracer->queue_waits(), 0.99))
        .count("protocol.on_packet_calls", t.layer_calls(Layer::kProtocol))
        .num("protocol.on_packet_s", t.layer_self_s(Layer::kProtocol))
        .count("node.stats.calls", t.layer_calls(Layer::kStats))
        .num("node.stats.s", t.layer_self_s(Layer::kStats))
        .count("scenario.injected", engine ? engine->injected() : 0)
        // Nodes the scenario took down: rebooted ones plus any still dead.
        .count("scenario.dead_nodes", t.reboots() + dead_at_end);
  }
  j.print();
  return 0;
}

int run_reference(const harness::ExperimentConfig& cfg,
                  const std::string& scenario_digest) {
  const harness::RunResult r = harness::run_experiment(cfg);
  if (!r.scenario_error.empty()) {
    std::fprintf(stderr, "scenario does not arm: %s\n",
                 r.scenario_error.c_str());
    return 1;
  }
  JsonLine j;
  j.str("mode", "reference").str("scenario_digest", scenario_digest);
  add_outcome(j, r.completion_time, r.transmissions, r.deliveries, r.collisions,
              r.verified_count(), r.avg_messages_sent(), r.avg_active_radio_s(),
              r.scenario_injected);
  j.print();
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: mnp_e2e run --workload NAME --seed N "
               "--mode plain|traced|reference [--smoke]\n"
               "       mnp_e2e scenario --workload NAME --seed N [--smoke]\n"
               "workloads: %s\n",
               workload_names().c_str());
  return 2;
}

int main_impl(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::string workload_name;
  std::string mode;
  std::string seed_text;
  bool smoke = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed_text = argv[++i];
    } else if (arg == "--mode" && has_value) {
      mode = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(workload_name);
  char* seed_end = nullptr;
  const unsigned long long seed =
      seed_text.empty() ? 0 : std::strtoull(seed_text.c_str(), &seed_end, 10);
  if (w == nullptr || seed_text.empty() || *seed_end != '\0') return usage();

  harness::ExperimentConfig cfg;
  std::string scenario_text;
  std::string error;
  if (!make_config(*w, seed, smoke, &cfg, &scenario_text, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (command == "scenario") {
    std::fputs(scenario_text.c_str(), stdout);
    return 0;
  }
  if (command != "run") return usage();
  const std::string digest = digest_hex(scenario_text);
  if (mode == "plain") return run_assembly(cfg, digest, nullptr);
  if (mode == "traced") {
    Tracer tracer;
    return run_assembly(cfg, digest, &tracer);
  }
  if (mode == "reference") return run_reference(cfg, digest);
  return usage();
}

}  // namespace
}  // namespace mnp::e2e

int main(int argc, char** argv) { return mnp::e2e::main_impl(argc, argv); }
