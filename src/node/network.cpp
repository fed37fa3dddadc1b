#include "node/network.hpp"

#include <utility>

namespace mnp::node {

Network::Network(sim::Simulator& sim, net::Topology topology,
                 const LinkModelFactory& make_links,
                 net::Channel::Params channel_params,
                 energy::EnergyModel energy_model,
                 const Node::MacFactory& mac_factory)
    : sim_(sim),
      topology_(std::move(topology)),
      links_(make_links(topology_)),
      stats_(topology_.size()),
      channel_(sim, topology_, *links_, channel_params) {
  channel_.set_observer(&stats_);
  nodes_.reserve(topology_.size());
  for (std::size_t i = 0; i < topology_.size(); ++i) {
    nodes_.push_back(std::make_unique<Node>(
        static_cast<net::NodeId>(i), sim, channel_, stats_, energy_model,
        storage::Eeprom::kDefaultCapacity, mac_factory));
  }
}

void Network::boot_all(sim::Time max_jitter) {
  sim::Rng boot_rng = sim_.fork_rng(0xB007ULL);
  for (auto& n : nodes_) {
    const sim::Time offset = boot_rng.uniform_int(0, max_jitter);
    Node* raw = n.get();
    sim_.scheduler().post_after(offset, [raw] { raw->boot(); });
  }
}

void Network::attach_observability(trace::EventLog* log,
                                   obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  stats_.set_event_log(log);
  if (metrics) {
    metrics->set_node_count(size());
    stats_.set_metrics(metrics);
    const auto counter = [metrics](const char* name, bool per_node) {
      return metrics->register_counter(name, obs::Unit::kCount, per_node);
    };
    const auto gauge = [metrics](const char* name) {
      return metrics->register_gauge(name, obs::Unit::kCount, false);
    };
    run_metrics_.tx = counter("chan.tx", true);
    run_metrics_.delivered = counter("chan.delivered", true);
    run_metrics_.collisions = counter("chan.collisions", true);
    run_metrics_.bulk_overlaps = counter("chan.bulk_overlaps", false);
    run_metrics_.cache_invalidations =
        counter("chan.cache_invalidations", false);
    run_metrics_.cache_repairs = counter("chan.cache_repairs", false);
    run_metrics_.grid_cells = gauge("chan.grid_cells");
    run_metrics_.grid_max_occupancy = gauge("chan.grid_max_occupancy");
    run_metrics_.completions = counter("node.completions", true);
    run_metrics_.segments_completed = counter("node.segments_completed", true);
  }
  for (auto& n : nodes_) {
    if (metrics) n->mac().attach_metrics(*metrics);
    if (log) {
      const net::NodeId id = n->id();
      n->radio().set_state_listener([log, id](bool on, sim::Time now) {
        log->record(now, id,
                    on ? trace::EventKind::kRadioOn
                       : trace::EventKind::kRadioOff);
      });
    }
  }
}

void Network::publish_metrics(sim::Time now) {
  if (!metrics_) return;
  obs::MetricsRegistry& m = *metrics_;
  const RunMetrics& h = run_metrics_;
  for (auto& n : nodes_) {
    const net::NodeId id = n->id();
    const NodeStats& s = stats_.node(id);
    m.add(h.tx, id, s.total_sent());
    m.add(h.delivered, id, s.total_received());
    m.add(h.collisions, id, s.collisions_suffered);
    m.add(h.completions, id, s.completion_time >= 0 ? 1 : 0);
    m.add(h.segments_completed, id, s.segments_completed());
    n->meter().publish(m, id, now);
  }
  m.add(h.bulk_overlaps, channel_.concurrent_bulk_overlaps());
  m.add(h.cache_invalidations, channel_.cache_invalidations());
  m.add(h.cache_repairs, channel_.cache_repairs());
  m.set(h.grid_cells, static_cast<double>(channel_.grid_cells()));
  m.set(h.grid_max_occupancy,
        static_cast<double>(channel_.grid_max_occupancy()));
}

std::size_t Network::complete_image_count() const {
  std::size_t count = 0;
  for (const auto& n : nodes_) {
    const Application* app = n->application();
    if (app && app->has_complete_image()) ++count;
  }
  return count;
}

}  // namespace mnp::node
