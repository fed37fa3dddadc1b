// Shared-frame flyweight tests: FramePtr refcounting, FramePool recycling,
// and the end-to-end claims — on a full MNP dissemination, every receiver
// of the one shared (and recycled) frame reads exactly the bytes that
// were sent, and checking that changes no metric and no trace line.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel_oracle.hpp"
#include "mnp/mnp_node.hpp"
#include "net/frame.hpp"
#include "node/network.hpp"
#include "sim/simulator.hpp"
#include "trace/event_log.hpp"

namespace mnp::net {
namespace {

Packet data_packet(std::size_t payload_bytes = 22) {
  DataMsg d;
  d.payload.assign(payload_bytes, 0x5A);
  Packet pkt;
  pkt.payload = std::move(d);
  return pkt;
}

TEST(FramePtr, SharesOnePacketByRefcount) {
  FramePool pool;
  FramePtr a = pool.adopt(data_packet());
  ASSERT_TRUE(a);
  EXPECT_EQ(a.use_count(), 1u);

  FramePtr b = a;  // copy bumps the count, no Packet copy
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(a.get(), b.get());  // literally the same Packet

  FramePtr c = std::move(b);  // move steals the reference
  EXPECT_FALSE(b);
  EXPECT_EQ(a.use_count(), 2u);

  c.reset();
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(pool.live_frames(), 1u);
  a.reset();
  EXPECT_EQ(pool.live_frames(), 0u);
}

TEST(FramePool, SteadyStateStopsAllocating) {
  FramePool pool;
  for (int i = 0; i < 100; ++i) {
    FramePtr f = pool.adopt(data_packet());
    FramePtr extra = f;  // a second holder, like the channel's Active record
  }
  // One node allocation serviced all 100 transmissions.
  EXPECT_EQ(pool.node_allocations(), 1u);
  EXPECT_EQ(pool.pooled_nodes(), 1u);
}

TEST(FramePool, ReclaimsDataPayloadCapacity) {
  FramePool pool;
  {
    Packet pkt;
    DataMsg d;
    d.payload = pool.acquire_payload();  // empty: pool starts cold
    d.payload.assign(64, 0xAB);
    pkt.payload = std::move(d);
    FramePtr f = pool.adopt(std::move(pkt));
  }  // frame dies; the 64-byte capacity goes back to the pool
  EXPECT_EQ(pool.pooled_payloads(), 1u);

  std::vector<std::uint8_t> buf = pool.acquire_payload();
  EXPECT_TRUE(buf.empty());
  EXPECT_GE(buf.capacity(), 64u);  // recycled, not freshly allocated
  EXPECT_EQ(pool.pooled_payloads(), 0u);
}

TEST(FramePool, FrameMayOutliveThePool) {
  FramePtr survivor;
  {
    FramePool pool;
    survivor = pool.adopt(data_packet());
  }  // pool destroyed first; the frame's shared state keeps release safe
  ASSERT_TRUE(survivor);
  EXPECT_EQ(std::get<DataMsg>(survivor->payload).payload.size(), 22u);
  survivor.reset();  // must not touch freed pool memory (ASan-checked in CI)
}

// --- shared frames on a full dissemination --------------------------------
//
// MNP over lossy empirical links on a grid. With the channel oracle between
// the channel and the network's stats collector, frames are pooled and
// recycled, payload buffers are stolen back from dead frames, and every
// delivery must still re-encode to the bytes its sender put on the air —
// the bytes a per-receiver copy would have carried.

/// What one dissemination produced: every metric the stats collector and
/// the channel keep, the rendered trace when asked for, and what the
/// oracle checked (all zero when it was not attached).
struct DisseminationRun {
  bool all_completed = false;
  sim::Time completion_time = sim::kNever;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t bulk_overlaps = 0;
  std::uint64_t node_allocations = 0;
  std::vector<NodeId> sender_order;
  std::vector<node::NodeStats> nodes;
  std::string trace;
  ChannelOracle::Counts checked;
};

DisseminationRun disseminate(std::uint64_t seed, std::size_t side,
                             bool with_oracle, bool with_trace) {
  sim::Simulator sim(seed);
  const LinkModel* links = nullptr;
  node::Network network(
      sim, Topology::grid(side, side, 10.0), [&links, seed](const Topology& t) {
        auto model = std::make_unique<EmpiricalLinkModel>(
            t, EmpiricalLinkModel::Params{}, sim::Rng(seed));
        links = model.get();
        return model;
      });
  std::optional<ChannelOracle> oracle;
  if (with_oracle) {
    oracle.emplace(
        network.channel(), network.topology(), *links,
        [&network](NodeId id) { return network.node(id).radio().is_listening(); },
        &network.stats());
  }
  trace::EventLog log;
  if (with_trace) network.stats().set_event_log(&log);
  core::MnpConfig cfg;
  auto image = std::make_shared<const core::ProgramImage>(
      1, 2 * cfg.packets_per_segment * cfg.payload_bytes);
  for (NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<core::MnpNode>(cfg, image)
                : std::make_unique<core::MnpNode>(cfg));
  }
  network.boot_all();
  sim.run_until_condition(sim::hours(2),
                          [&] { return network.stats().all_completed(); });

  DisseminationRun run;
  if (oracle) {
    oracle->finish();
    run.checked = oracle->counts();
  }
  const node::StatsCollector& stats = network.stats();
  run.all_completed = stats.all_completed();
  run.completion_time = stats.completion_time();
  run.transmissions = network.channel().transmissions();
  run.deliveries = network.channel().deliveries();
  run.collisions = network.channel().collisions();
  run.bulk_overlaps = network.channel().concurrent_bulk_overlaps();
  run.node_allocations = network.channel().frame_pool().node_allocations();
  run.sender_order = stats.sender_order();
  for (NodeId id = 0; id < network.size(); ++id) run.nodes.push_back(stats.node(id));
  // Render the *whole* log — the default 200-line cap would hide drift in
  // the bulk of the trace.
  if (with_trace) run.trace = log.render(kBroadcastId, log.size() + 1);
  return run;
}

void expect_runs_identical(const DisseminationRun& a,
                           const DisseminationRun& b) {
  EXPECT_EQ(a.all_completed, b.all_completed);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.bulk_overlaps, b.bulk_overlaps);
  EXPECT_EQ(a.node_allocations, b.node_allocations);
  EXPECT_EQ(a.sender_order, b.sender_order);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(a.nodes[i].sent, b.nodes[i].sent);
    EXPECT_EQ(a.nodes[i].received, b.nodes[i].received);
    EXPECT_EQ(a.nodes[i].collisions_suffered, b.nodes[i].collisions_suffered);
    EXPECT_EQ(a.nodes[i].completion_time, b.nodes[i].completion_time);
    EXPECT_EQ(a.nodes[i].became_sender, b.nodes[i].became_sender);
    EXPECT_EQ(a.nodes[i].parent, b.nodes[i].parent);
    EXPECT_EQ(a.nodes[i].segment_completion, b.nodes[i].segment_completion);
  }
}

TEST(SharedFrameDelivery, MnpDisseminationDeliversTheSentBytes) {
  for (const std::uint64_t seed : {3ull, 21ull, 57ull, 777ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DisseminationRun run = disseminate(seed, 4, true, false);

    EXPECT_TRUE(run.all_completed);
    EXPECT_EQ(run.checked.deliveries, run.deliveries);
    EXPECT_GT(run.checked.deliveries, 1000u);
    EXPECT_GT(run.checked.collisions, 0u);
    // Frames really were recycled while all this was checked.
    EXPECT_LT(run.node_allocations, run.transmissions);
  }
}

// --- zero-copy equivalence ------------------------------------------------
//
// The oracle is a pure observer, so a run it byte-checks must be
// bit-identical to the same seed without it. Then the production run's
// shared frames carried, delivery for delivery, the bytes that per-receiver
// copies would have: "same bytes out", not "statistically similar".

TEST(ZeroCopyEquivalence, MetricsBitIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 57ull, 302ull, 9001ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DisseminationRun plain = disseminate(seed, 4, false, false);
    const DisseminationRun checked = disseminate(seed, 4, true, false);
    EXPECT_TRUE(plain.all_completed);
    EXPECT_EQ(checked.checked.deliveries, plain.deliveries);
    EXPECT_GT(checked.checked.deliveries, 0u);
    expect_runs_identical(plain, checked);
  }
}

TEST(ZeroCopyEquivalence, RenderedTracesBitIdentical) {
  for (const std::uint64_t seed : {3ull, 21ull, 777ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DisseminationRun plain = disseminate(seed, 3, false, true);
    const DisseminationRun checked = disseminate(seed, 3, true, true);
    EXPECT_GT(checked.checked.deliveries, 0u);
    EXPECT_FALSE(plain.trace.empty());
    EXPECT_EQ(plain.trace, checked.trace);
  }
}

}  // namespace
}  // namespace mnp::net
