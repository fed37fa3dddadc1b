// Network: the full assembly — topology, link model, channel, stats and
// one Node per position. This is the object examples and benches build.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/topology.hpp"
#include "node/node.hpp"
#include "node/stats.hpp"
#include "sim/simulator.hpp"

namespace mnp::node {

class Network {
 public:
  /// The link model is created *after* the network owns the topology (link
  /// models hold a reference to it), hence the factory.
  using LinkModelFactory =
      std::function<std::unique_ptr<net::LinkModel>(const net::Topology&)>;

  Network(sim::Simulator& sim, net::Topology topology,
          const LinkModelFactory& make_links,
          net::Channel::Params channel_params = {},
          energy::EnergyModel energy_model = {},
          const Node::MacFactory& mac_factory = nullptr);

  std::size_t size() const { return nodes_.size(); }
  Node& node(net::NodeId id) { return *nodes_.at(id); }
  const Node& node(net::NodeId id) const { return *nodes_.at(id); }

  const net::Topology& topology() const { return topology_; }
  /// Scenario mobility hook: moves one node. Topology::version() bumps,
  /// so the channel's cached adjacency rebuilds on its next query instead
  /// of silently keeping stale reach bitsets.
  void move_node(net::NodeId id, net::Position p) {
    topology_.set_position(id, p);
  }
  net::Channel& channel() { return channel_; }
  StatsCollector& stats() { return stats_; }
  const StatsCollector& stats() const { return stats_; }
  sim::Simulator& simulator() { return sim_; }

  /// Boots every node, each at an independent random offset within
  /// [0, max_jitter] — motes in the field never power up simultaneously.
  void boot_all(sim::Time max_jitter = sim::msec(500));

  /// Wires the whole assembly for telemetry in one call (DESIGN.md
  /// section 9): the stats collector records into `log` (nullable), every
  /// MAC publishes into `metrics` (nullable; node count set here, before
  /// any registration), the chan.* and node.* names are registered for
  /// publish_metrics(), and every radio logs its on/off flips so the
  /// trace exporter can draw radio-duty slices. Call before boot_all();
  /// attaching mid-run loses prior trace history.
  void attach_observability(trace::EventLog* log,
                            obs::MetricsRegistry* metrics);

  /// End-of-run capture, called once: writes the chan.* and node.*
  /// metrics from the stats collector and the channel, and every node's
  /// energy.* gauges and counters at time `now`, into the attached
  /// registry. No-op when metrics were never attached.
  void publish_metrics(sim::Time now);

  /// Number of nodes whose application reports a complete image.
  std::size_t complete_image_count() const;

 private:
  sim::Simulator& sim_;
  net::Topology topology_;
  std::unique_ptr<net::LinkModel> links_;
  StatsCollector stats_;
  net::Channel channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Handles publish_metrics() fills; registered at attach time so a run
  /// that never reaches the end still exports the same metric names.
  struct RunMetrics {
    obs::MetricsRegistry::Counter tx, delivered, collisions, bulk_overlaps,
        cache_invalidations, cache_repairs, completions, segments_completed;
    obs::MetricsRegistry::Gauge grid_cells, grid_max_occupancy;
  } run_metrics_;
};

}  // namespace mnp::node
