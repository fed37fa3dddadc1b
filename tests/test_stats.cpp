// StatsCollector unit tests.
#include <gtest/gtest.h>

#include "node/stats.hpp"

namespace mnp::node {
namespace {

net::Packet make_packet(net::Payload payload) {
  net::Packet pkt;
  pkt.payload = std::move(payload);
  return pkt;
}

TEST(Classify, MessageClasses) {
  EXPECT_EQ(classify(net::PacketType::kAdvertisement), MsgClass::kAdvertisement);
  EXPECT_EQ(classify(net::PacketType::kDelugeSummary), MsgClass::kAdvertisement);
  EXPECT_EQ(classify(net::PacketType::kMoapPublish), MsgClass::kAdvertisement);
  EXPECT_EQ(classify(net::PacketType::kDownloadRequest), MsgClass::kRequest);
  EXPECT_EQ(classify(net::PacketType::kRepairRequest), MsgClass::kRequest);
  EXPECT_EQ(classify(net::PacketType::kData), MsgClass::kData);
  EXPECT_EQ(classify(net::PacketType::kXnpData), MsgClass::kData);
  EXPECT_EQ(classify(net::PacketType::kStartDownload), MsgClass::kOther);
  EXPECT_EQ(classify(net::PacketType::kQuery), MsgClass::kOther);
}

TEST(StatsCollector, CountsPerTypeAndTimeline) {
  StatsCollector stats(3);
  stats.on_transmit(0, make_packet(net::AdvertisementMsg{}), sim::sec(10));
  stats.on_transmit(0, make_packet(net::DataMsg{}), sim::sec(70));
  stats.on_transmit(1, make_packet(net::DataMsg{}), sim::sec(80));
  stats.on_deliver(0, 1, make_packet(net::DataMsg{}), sim::sec(70));

  EXPECT_EQ(stats.node(0).sent_of(net::PacketType::kAdvertisement), 1u);
  EXPECT_EQ(stats.node(0).sent_of(net::PacketType::kData), 1u);
  EXPECT_EQ(stats.node(0).total_sent(), 2u);
  EXPECT_EQ(stats.node(1).received_of(net::PacketType::kData), 1u);
  EXPECT_EQ(stats.node(1).total_received(), 1u);

  const auto& timeline = stats.timeline();
  ASSERT_EQ(timeline.size(), 2u);  // minute 0 and minute 1
  EXPECT_EQ(timeline[0].first, 0);
  EXPECT_EQ(timeline[0].second[static_cast<std::size_t>(MsgClass::kAdvertisement)], 1u);
  EXPECT_EQ(timeline[1].first, 1);
  EXPECT_EQ(timeline[1].second[static_cast<std::size_t>(MsgClass::kData)], 2u);
}

TEST(StatsCollector, CompletionBookkeeping) {
  StatsCollector stats(2);
  EXPECT_EQ(stats.completed_count(), 0u);
  EXPECT_FALSE(stats.all_completed());
  EXPECT_EQ(stats.completion_time(), sim::kNever);

  stats.on_completed(0, sim::sec(5));
  stats.on_completed(0, sim::sec(50));  // duplicate: ignored
  EXPECT_EQ(stats.completed_count(), 1u);
  EXPECT_EQ(stats.node(0).completion_time, sim::sec(5));

  stats.on_completed(1, sim::sec(9));
  EXPECT_TRUE(stats.all_completed());
  EXPECT_EQ(stats.completion_time(), sim::sec(9));
}

TEST(StatsCollector, SegmentCompletionGrowsVector) {
  StatsCollector stats(1);
  stats.on_segment_completed(0, 3, sim::sec(30));
  stats.on_segment_completed(0, 1, sim::sec(10));
  stats.on_segment_completed(0, 1, sim::sec(99));  // duplicate: ignored
  const auto& v = stats.node(0).segment_completion;
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], sim::sec(10));
  EXPECT_EQ(v[1], sim::kNever);
  EXPECT_EQ(v[2], sim::sec(30));
}

TEST(StatsCollector, SenderOrderRecordsFirstForwardOnly) {
  StatsCollector stats(4);
  stats.on_became_sender(2, sim::sec(1));
  stats.on_became_sender(0, sim::sec(2));
  stats.on_became_sender(2, sim::sec(3));  // repeat: ignored
  ASSERT_EQ(stats.sender_order().size(), 2u);
  EXPECT_EQ(stats.sender_order()[0], 2);
  EXPECT_EQ(stats.sender_order()[1], 0);
  EXPECT_EQ(stats.node(2).became_sender, sim::sec(1));
}

TEST(StatsCollector, ParentAndCollisions) {
  StatsCollector stats(2);
  stats.on_parent_set(1, 0);
  EXPECT_EQ(stats.node(1).parent, 0);
  stats.on_collision(1, sim::sec(1));
  stats.on_collision(1, sim::sec(2));
  EXPECT_EQ(stats.node(1).collisions_suffered, 2u);
}

TEST(StatsCollector, OutOfRangeIdsAreIgnored) {
  StatsCollector stats(1);
  stats.on_completed(7, sim::sec(1));
  stats.on_parent_set(7, 0);
  stats.on_became_sender(7, sim::sec(1));
  stats.on_collision(7, sim::sec(1));
  EXPECT_EQ(stats.completed_count(), 0u);
  EXPECT_TRUE(stats.sender_order().empty());
}

}  // namespace
}  // namespace mnp::node
