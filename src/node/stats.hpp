// Run-wide statistics: everything the paper's evaluation section measures.
//
// The collector observes the channel (per-type tx/rx counts, collisions,
// per-minute message timeline — Figs. 11 and 12) and receives protocol
// callbacks (completion times, parents, sender order — Figs. 5-7 and 13;
// active radio time comes from the per-node EnergyMeter at read-out).
// It is the one per-node traffic store: RunResult reads it, and the
// registry's chan.tx/delivered/collisions and node.* counters are filled
// from it once, at run end (DESIGN.md section 9).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "net/channel.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "trace/event_log.hpp"

namespace mnp::node {

struct NodeStats {
  // Per-type traffic counts, indexed by PacketType.
  std::array<std::uint64_t, net::kPacketTypeCount> sent{};
  std::array<std::uint64_t, net::kPacketTypeCount> received{};
  std::uint64_t collisions_suffered = 0;

  sim::Time completion_time = sim::kNever;  // full image verified
  sim::Time became_sender = sim::kNever;    // first entered Forward
  int parent = -1;                          // last parent set (-1: none)
  std::vector<sim::Time> segment_completion;  // index = segment-1

  std::uint64_t total_sent() const;
  std::uint64_t total_received() const;
  std::uint64_t sent_of(net::PacketType t) const;
  std::uint64_t received_of(net::PacketType t) const;
  /// Segments with a recorded completion time.
  std::uint64_t segments_completed() const;
};

/// Message categories for the Fig.-12 per-minute timeline.
enum class MsgClass : std::size_t { kAdvertisement = 0, kRequest = 1, kData = 2, kOther = 3 };
MsgClass classify(net::PacketType t);

class StatsCollector final : public net::ChannelObserver {
 public:
  explicit StatsCollector(std::size_t node_count);

  // --- ChannelObserver -----------------------------------------------------
  void on_transmit(net::NodeId src, const net::Packet& pkt, sim::Time now) override;
  void on_deliver(net::NodeId src, net::NodeId dst, const net::Packet& pkt,
                  sim::Time now) override;
  void on_collision(net::NodeId victim, sim::Time now) override;

  // --- protocol hooks ------------------------------------------------------
  void on_completed(net::NodeId id, sim::Time now);
  void on_segment_completed(net::NodeId id, std::uint16_t seg, sim::Time now);
  void on_parent_set(net::NodeId id, net::NodeId parent);
  void on_became_sender(net::NodeId id, sim::Time now);

  /// Optional protocol event log; when attached, traffic and completion
  /// events are recorded (protocols add their own state transitions).
  /// Receive events carry the sender in the detail ("Data<5") so the trace
  /// exporter can draw flow arrows.
  void set_event_log(trace::EventLog* log) { event_log_ = log; }
  trace::EventLog* event_log() const { return event_log_; }

  /// Optional metrics registry. Protocols reach it here (via
  /// Node::stats()) to register their own handles; the collector's own
  /// counts are written into it once, at run end (Network::publish_metrics).
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // --- queries ---------------------------------------------------------
  const NodeStats& node(net::NodeId id) const { return nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }

  /// Number of nodes holding the complete image.
  std::size_t completed_count() const { return completed_; }
  bool all_completed() const { return completed_ == nodes_.size(); }
  /// Time the last node completed (kNever until all_completed()).
  sim::Time completion_time() const;

  /// Nodes in the order they first became senders (paper Figs. 5-7 mark
  /// this order on the grid).
  const std::vector<net::NodeId>& sender_order() const { return sender_order_; }

  /// Per-minute transmitted-message counts by class (Fig. 12).
  /// timeline()[minute][class]; trailing minutes may be absent.
  const std::map<std::int64_t, std::array<std::uint64_t, 4>>& timeline() const {
    return timeline_;
  }

 private:
  trace::EventLog* event_log_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::vector<NodeStats> nodes_;
  std::size_t completed_ = 0;
  std::vector<net::NodeId> sender_order_;
  std::map<std::int64_t, std::array<std::uint64_t, 4>> timeline_;
};

}  // namespace mnp::node
