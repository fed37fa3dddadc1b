#include "node/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace mnp::node {

std::uint64_t NodeStats::total_sent() const {
  return std::accumulate(sent.begin(), sent.end(), std::uint64_t{0});
}

std::uint64_t NodeStats::total_received() const {
  return std::accumulate(received.begin(), received.end(), std::uint64_t{0});
}

std::uint64_t NodeStats::sent_of(net::PacketType t) const {
  return sent[static_cast<std::size_t>(t)];
}

std::uint64_t NodeStats::received_of(net::PacketType t) const {
  return received[static_cast<std::size_t>(t)];
}

std::uint64_t NodeStats::segments_completed() const {
  return static_cast<std::uint64_t>(
      std::count_if(segment_completion.begin(), segment_completion.end(),
                    [](sim::Time t) { return t >= 0; }));
}

MsgClass classify(net::PacketType t) {
  using net::PacketType;
  switch (t) {
    case PacketType::kAdvertisement:
    case PacketType::kDelugeSummary:
    case PacketType::kMoapPublish:
    case PacketType::kNcastAdv:
      return MsgClass::kAdvertisement;
    case PacketType::kDownloadRequest:
    case PacketType::kRepairRequest:
    case PacketType::kDelugeRequest:
    case PacketType::kMoapSubscribe:
    case PacketType::kMoapNack:
    case PacketType::kXnpFixRequest:
    case PacketType::kNcastRequest:
      return MsgClass::kRequest;
    case PacketType::kData:
    case PacketType::kDelugeData:
    case PacketType::kMoapData:
    case PacketType::kXnpData:
    case PacketType::kNcastCoded:
      return MsgClass::kData;
    default:
      return MsgClass::kOther;
  }
}

StatsCollector::StatsCollector(std::size_t node_count) : nodes_(node_count) {}

void StatsCollector::on_transmit(net::NodeId src, const net::Packet& pkt,
                                 sim::Time now) {
  if (src < nodes_.size()) {
    ++nodes_[src].sent[static_cast<std::size_t>(pkt.type())];
  }
  const std::int64_t minute = now / sim::minutes(1);
  ++timeline_[minute][static_cast<std::size_t>(classify(pkt.type()))];
  if (event_log_) {
    event_log_->record(now, src, trace::EventKind::kPacketSent,
                       std::string_view(net::type_name(pkt.type())));
  }
}

void StatsCollector::on_deliver(net::NodeId src, net::NodeId dst,
                                const net::Packet& pkt, sim::Time now) {
  if (dst < nodes_.size()) {
    ++nodes_[dst].received[static_cast<std::size_t>(pkt.type())];
  }
  if (event_log_) {
    // "Data<5" — type plus sender, so the trace exporter can pair this
    // delivery with node 5's transmission and draw a flow arrow. Stack
    // buffer: fits kInlineDetail, never allocates.
    char detail[trace::EventLog::kInlineDetail + 1];
    int len = std::snprintf(detail, sizeof(detail), "%s<%u",
                            net::type_name(pkt.type()),
                            static_cast<unsigned>(src));
    if (len < 0) len = 0;
    if (static_cast<std::size_t>(len) >= sizeof(detail)) {
      len = static_cast<int>(sizeof(detail) - 1);
    }
    event_log_->record(now, dst, trace::EventKind::kPacketReceived,
                       std::string_view(detail, static_cast<std::size_t>(len)));
  }
}

void StatsCollector::on_collision(net::NodeId victim, sim::Time /*now*/) {
  if (victim < nodes_.size()) ++nodes_[victim].collisions_suffered;
}

void StatsCollector::on_completed(net::NodeId id, sim::Time now) {
  if (id >= nodes_.size()) return;
  NodeStats& n = nodes_[id];
  if (n.completion_time >= 0) return;  // already recorded
  n.completion_time = now;
  ++completed_;
  if (event_log_) {
    event_log_->record(now, id, trace::EventKind::kImageCompleted);
  }
}

void StatsCollector::on_segment_completed(net::NodeId id, std::uint16_t seg,
                                          sim::Time now) {
  if (id >= nodes_.size() || seg == 0) return;
  auto& v = nodes_[id].segment_completion;
  if (v.size() < seg) v.resize(seg, sim::kNever);
  if (v[seg - 1] < 0) v[seg - 1] = now;
  if (event_log_) {
    event_log_->record(now, id, trace::EventKind::kSegmentCompleted,
                       static_cast<std::uint64_t>(seg));
  }
}

void StatsCollector::on_parent_set(net::NodeId id, net::NodeId parent) {
  if (id < nodes_.size()) nodes_[id].parent = static_cast<int>(parent);
}

void StatsCollector::on_became_sender(net::NodeId id, sim::Time now) {
  if (id >= nodes_.size()) return;
  NodeStats& n = nodes_[id];
  if (n.became_sender >= 0) return;
  n.became_sender = now;
  sender_order_.push_back(id);
}

sim::Time StatsCollector::completion_time() const {
  if (completed_ != nodes_.size()) return sim::kNever;
  sim::Time latest = 0;
  for (const auto& n : nodes_) latest = std::max(latest, n.completion_time);
  return latest;
}

}  // namespace mnp::node
