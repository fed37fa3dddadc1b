// Channel semantics: delivery, half-duplex, collisions (including hidden
// terminals), carrier sense, and the concurrent-bulk-sender monitor; then
// the production channel checked against the brute-force oracle on random
// topologies, under churn and with an unbounded interference radius.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "channel_oracle.hpp"
#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/radio.hpp"
#include "scenario/scenario_link_model.hpp"
#include "sim/simulator.hpp"

namespace mnp::net {
namespace {

// Line of nodes 10 ft apart; disk range 15 ft => only adjacent nodes hear
// each other (interference_factor widens that in specific tests).
class ChannelTest : public ::testing::Test {
 protected:
  void build(std::size_t n, double range, double interference = 1.0,
             double spacing = 10.0) {
    topo_ = std::make_unique<Topology>();
    for (std::size_t i = 0; i < n; ++i) {
      topo_->add({static_cast<double>(i) * spacing, 0.0});
    }
    links_ = std::make_unique<DiskLinkModel>(*topo_, range, interference);
    channel_ = std::make_unique<Channel>(sim_, *topo_, *links_);
    received_.assign(n, {});
    for (std::size_t i = 0; i < n; ++i) {
      meters_.push_back(std::make_unique<energy::EnergyMeter>());
      radios_.push_back(std::make_unique<Radio>(
          static_cast<NodeId>(i), sim_.scheduler(), *channel_, *meters_[i]));
      channel_->register_radio(*radios_[i]);
      radios_[i]->set_receive_handler([this, i](const Packet& pkt) {
        received_[i].push_back(pkt);
      });
      radios_[i]->turn_on();
    }
  }

  static Packet data_packet() {
    DataMsg d;
    d.payload.assign(22, 0x5A);
    Packet pkt;
    pkt.payload = std::move(d);
    return pkt;
  }

  static Packet adv_packet() {
    Packet pkt;
    pkt.payload = AdvertisementMsg{};
    return pkt;
  }

  sim::Simulator sim_{1};
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<DiskLinkModel> links_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<energy::EnergyMeter>> meters_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::vector<Packet>> received_;
};

TEST_F(ChannelTest, DeliversToNeighborsOnly) {
  build(4, 15.0);
  Packet pkt = adv_packet();
  pkt.src = 1;
  EXPECT_TRUE(radios_[1]->start_transmission(pkt));
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_TRUE(received_[3].empty());  // 20 ft away
  EXPECT_TRUE(received_[1].empty());  // sender does not hear itself
}

TEST_F(ChannelTest, AirtimeMatchesBitrate) {
  build(2, 15.0);
  const Packet pkt = adv_packet();
  // 19.2 kbps: airtime_us = bytes*8/19200*1e6.
  const auto expected = static_cast<sim::Time>(
      static_cast<double>(pkt.wire_bytes()) * 8.0 / 19200.0 * 1e6);
  EXPECT_EQ(channel_->airtime(pkt), expected);
}

TEST_F(ChannelTest, OffRadioReceivesNothing) {
  build(2, 15.0);
  radios_[1]->turn_off();
  radios_[0]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(ChannelTest, TurningOnMidPacketMissesIt) {
  build(2, 15.0);
  radios_[1]->turn_off();
  radios_[0]->start_transmission(adv_packet());
  // Turn on halfway through the preamble: decode must fail.
  sim_.scheduler().schedule_after(channel_->airtime(adv_packet()) / 2,
                                  [&] { radios_[1]->turn_on(); });
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(ChannelTest, TurningOffMidPacketLosesIt) {
  build(2, 15.0);
  radios_[0]->start_transmission(adv_packet());
  sim_.scheduler().schedule_after(channel_->airtime(adv_packet()) / 2,
                                  [&] { radios_[1]->turn_off(); });
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(ChannelTest, OverlappingTransmissionsCollideAtCommonListener) {
  build(3, 15.0);
  // 0 and 2 both reach 1; they cannot hear each other (20 ft apart) —
  // the canonical hidden-terminal scenario.
  radios_[0]->start_transmission(adv_packet());
  radios_[2]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[1].empty());
  EXPECT_GE(channel_->collisions(), 1u);
}

TEST_F(ChannelTest, StaggeredTransmissionsBothArrive) {
  build(3, 15.0);
  radios_[0]->start_transmission(adv_packet());
  const sim::Time airtime = channel_->airtime(adv_packet());
  sim_.scheduler().schedule_after(airtime + sim::msec(1), [&] {
    radios_[2]->start_transmission(adv_packet());
  });
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(received_[1].size(), 2u);
  EXPECT_EQ(channel_->collisions(), 0u);
}

TEST_F(ChannelTest, PartialOverlapStillCorruptsBoth) {
  build(3, 15.0);
  radios_[0]->start_transmission(adv_packet());
  sim_.scheduler().schedule_after(channel_->airtime(adv_packet()) - 100, [&] {
    radios_[2]->start_transmission(adv_packet());
  });
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(ChannelTest, InterferenceWithoutDecodabilityStillCorrupts) {
  // Node 2 is inside node 0's interference range but outside its decode
  // range; 0's energy must still destroy 1->2 packets at node 2.
  build(3, 15.0, /*interference=*/1.8);  // decode 15 ft, interfere 27 ft
  radios_[0]->start_transmission(adv_packet());  // 0 is 20 ft from 2
  radios_[1]->start_transmission(data_packet()); // 1 is 10 ft from 2
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[2].empty());
}

TEST_F(ChannelTest, HalfDuplexSenderMissesIncomingPackets) {
  build(2, 15.0);
  radios_[0]->start_transmission(adv_packet());
  radios_[1]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[0].empty());
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(ChannelTest, CarrierSenseSeesNeighborTransmission) {
  build(3, 15.0);
  EXPECT_FALSE(channel_->carrier_busy(1));
  radios_[0]->start_transmission(adv_packet());
  EXPECT_TRUE(channel_->carrier_busy(1));   // neighbor
  EXPECT_TRUE(channel_->carrier_busy(0));   // own transmission
  EXPECT_FALSE(channel_->carrier_busy(2));  // out of range
  sim_.run_until(sim::sec(1));
  EXPECT_FALSE(channel_->carrier_busy(1));
}

TEST_F(ChannelTest, BulkOverlapMonitorCountsConcurrentDataSenders) {
  build(3, 15.0);
  radios_[0]->start_transmission(data_packet());
  radios_[2]->start_transmission(data_packet());  // shares victim node 1
  sim_.run_until(sim::sec(1));
  EXPECT_GE(channel_->concurrent_bulk_overlaps(), 1u);
}

TEST_F(ChannelTest, BulkOverlapIgnoresControlTraffic) {
  build(3, 15.0);
  radios_[0]->start_transmission(adv_packet());
  radios_[2]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(channel_->concurrent_bulk_overlaps(), 0u);
}

TEST_F(ChannelTest, DistantBulkSendersDoNotCount) {
  build(6, 15.0);
  radios_[0]->start_transmission(data_packet());
  radios_[5]->start_transmission(data_packet());  // 50 ft away, no shared victim
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(channel_->concurrent_bulk_overlaps(), 0u);
}

TEST_F(ChannelTest, ReceptionChargesTheMeter) {
  build(2, 15.0);
  radios_[0]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(meters_[1]->rx_packets(), 1u);
  EXPECT_EQ(meters_[0]->tx_packets(), 1u);
}

TEST_F(ChannelTest, ObserverSeesTrafficAndCollisions) {
  struct Observer : ChannelObserver {
    int transmits = 0, delivers = 0, collisions = 0;
    void on_transmit(NodeId, const Packet&, sim::Time) override { ++transmits; }
    void on_deliver(NodeId, NodeId, const Packet&, sim::Time) override { ++delivers; }
    void on_collision(NodeId, sim::Time) override { ++collisions; }
  } observer;
  build(3, 15.0);
  channel_->set_observer(&observer);
  radios_[0]->start_transmission(adv_packet());
  radios_[2]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(observer.transmits, 2);
  EXPECT_EQ(observer.delivers, 0);
  EXPECT_GE(observer.collisions, 1);
}

TEST_F(ChannelTest, PendingOffDeferredUntilTransmissionEnds) {
  build(2, 15.0);
  radios_[0]->start_transmission(adv_packet());
  radios_[0]->turn_off();  // mid-transmission: deferred
  EXPECT_EQ(radios_[0]->state(), Radio::State::kTransmitting);
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(radios_[0]->state(), Radio::State::kOff);
  // The packet still went out intact.
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(ChannelTest, CannotTransmitWhileOffOrBusy) {
  build(2, 15.0);
  radios_[0]->turn_off();
  EXPECT_FALSE(radios_[0]->start_transmission(adv_packet()));
  radios_[0]->turn_on();
  EXPECT_TRUE(radios_[0]->start_transmission(adv_packet()));
  EXPECT_FALSE(radios_[0]->start_transmission(adv_packet()));  // busy
}

// --- production channel vs. the brute-force oracle -----------------------
//
// One production stack with ChannelOracle attached: every row, candidate
// set, collision victim, delivery and carrier-sense answer is checked
// against a from-scratch link-model scan while the traffic runs.
// `Links` is the link model type, so tests can drive its own knobs
// (partition windows, link flips).
template <typename Links>
class OracleStack {
 public:
  /// `n` nodes placed uniformly in [0, extent)^2 by `place_seed`;
  /// `make_links(topology)` builds the link model.
  template <typename MakeLinks>
  OracleStack(std::uint64_t sim_seed, std::size_t n, double extent,
              std::uint64_t place_seed, MakeLinks make_links)
      : OracleStack(sim_seed, place(n, extent, place_seed), make_links) {}

  /// One node at each of `at`.
  template <typename MakeLinks>
  OracleStack(std::uint64_t sim_seed, const std::vector<Position>& at,
              MakeLinks make_links)
      : sim_(sim_seed) {
    for (const Position& p : at) topo_.add(p);
    const std::size_t n = at.size();
    links_ = make_links(topo_);
    channel_ = std::make_unique<Channel>(sim_, topo_, *links_);
    for (std::size_t i = 0; i < n; ++i) {
      meters_.push_back(std::make_unique<energy::EnergyMeter>());
      radios_.push_back(std::make_unique<Radio>(
          static_cast<NodeId>(i), sim_.scheduler(), *channel_, *meters_[i]));
      channel_->register_radio(*radios_[i]);
      radios_[i]->turn_on();
    }
    oracle_ = std::make_unique<ChannelOracle>(
        *channel_, topo_, *links_,
        [this](NodeId id) { return radios_[id]->is_listening(); });
  }

  static std::vector<Position> place(std::size_t n, double extent,
                                     std::uint64_t seed) {
    sim::Rng rng(seed);
    std::vector<Position> at;
    for (std::size_t i = 0; i < n; ++i) {
      at.push_back({rng.uniform_real(0.0, extent), rng.uniform_real(0.0, extent)});
    }
    return at;
  }

  std::int64_t last_id() const {
    return static_cast<std::int64_t>(radios_.size()) - 1;
  }

  /// `who` broadcasts a data (bulk) or advertisement packet at `scale`.
  void transmit_at(sim::Time at, NodeId who, bool bulk, double scale) {
    sim_.scheduler().schedule_at(at, [this, who, bulk, scale] {
      Packet pkt;
      if (bulk) {
        DataMsg d;
        d.payload.assign(22, 0x5A);
        pkt.payload = std::move(d);
      } else {
        pkt.payload = AdvertisementMsg{};
      }
      pkt.src = who;
      pkt.power_scale = scale;
      radios_[who]->start_transmission(pkt);
    });
  }

  /// `victim`'s radio goes off at `at` and back on 48 ms later.
  void toggle_at(sim::Time at, NodeId victim) {
    sim_.scheduler().schedule_at(at, [this, victim] { radios_[victim]->turn_off(); });
    sim_.scheduler().schedule_at(at + 48000,
                                 [this, victim] { radios_[victim]->turn_on(); });
  }

  void move_at(sim::Time at, NodeId mover, Position to) {
    sim_.scheduler().schedule_at(at,
                                 [this, mover, to] { topo_.set_position(mover, to); });
  }

  /// Every row at every power scale seen, and carrier sense everywhere.
  void check_at(sim::Time at) {
    sim_.scheduler().schedule_at(at, [this] { oracle_->check_now(); });
  }

  void run_until(sim::Time end) {
    sim_.run_until(end);
    oracle_->finish();
  }

  sim::Simulator sim_;
  Topology topo_;
  std::unique_ptr<Links> links_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<energy::EnergyMeter>> meters_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::unique_ptr<ChannelOracle> oracle_;
};

/// Empirical links over a 120 ft square; deterministic traffic: staggered,
/// overlapping transmissions (data + adv) from scattered sources, two
/// power scales, radios toggling off mid-run and periodic oracle probes.
std::unique_ptr<OracleStack<EmpiricalLinkModel>> drive_random_topology(
    std::size_t n) {
  auto stack = std::make_unique<OracleStack<EmpiricalLinkModel>>(
      99, n, 120.0, 1234, [](const Topology& t) {
        return std::make_unique<EmpiricalLinkModel>(
            t, EmpiricalLinkModel::Params{}, sim::Rng(777));
      });
  sim::Rng traffic(4242);
  for (int burst = 0; burst < 40; ++burst) {
    const auto at = static_cast<sim::Time>(traffic.uniform_int(0, 900000));
    const auto who = static_cast<NodeId>(traffic.uniform_int(0, stack->last_id()));
    const bool bulk = traffic.bernoulli(0.5);
    const double scale = traffic.bernoulli(0.25) ? 0.5 : 1.0;
    stack->transmit_at(at, who, bulk, scale);
    if (burst % 5 == 0) {
      stack->toggle_at(at + 2000,
                       static_cast<NodeId>(traffic.uniform_int(0, stack->last_id())));
    }
    stack->check_at(at + 1000);
  }
  stack->run_until(sim::sec(2));
  return stack;
}

TEST(ChannelNeighborCache, MatchesBruteForceOnRandomTopology) {
  const auto stack = drive_random_topology(48);
  const Channel& channel = *stack->channel_;
  const ChannelOracle::Counts& checked = stack->oracle_->counts();
  EXPECT_EQ(checked.transmissions, channel.transmissions());
  EXPECT_GT(checked.candidates, 0u);
  EXPECT_GT(checked.carrier_probes, 0u);
  // The run exercised delivery and collisions, at two power scales.
  EXPECT_GT(channel.deliveries(), 0u);
  EXPECT_GT(channel.collisions(), 0u);
  EXPECT_EQ(checked.collisions, channel.collisions());
  EXPECT_EQ(channel.cached_power_scales(), 2u);
  // Rows were materialized on demand through the grid.
  EXPECT_GT(channel.cache_repairs(), 0u);
  EXPECT_GT(channel.grid_cells(), 0u);
}

TEST(ChannelNeighborCache, PairwiseQueriesMatchLinkModel) {
  // The sparse reach rows and per-edge success cache must agree with the
  // link model for every directed pair, at a non-default power scale too.
  const auto stack = drive_random_topology(24);
  const std::uint64_t before = stack->oracle_->counts().rows;
  stack->oracle_->check_now();
  EXPECT_EQ(stack->oracle_->counts().rows - before, 2u * 24u);
}

// --- under churn: mobility, partitions, degrade windows -------------------
//
// The world itself changes mid-run: nodes teleport between waypoints
// (Topology::set_position, exactly what the scenario engine's mobility
// interpolation calls) and a ScenarioLinkModel opens partition and
// degrade windows. The channel repairs its rows incrementally; the oracle
// consults the model live.
std::unique_ptr<OracleStack<scenario::ScenarioLinkModel>> drive_churn(
    std::size_t n, std::uint64_t seed) {
  auto stack = std::make_unique<OracleStack<scenario::ScenarioLinkModel>>(
      99 + seed, n, 150.0, 1234 + seed, [n](const Topology& t) {
        return std::make_unique<scenario::ScenarioLinkModel>(
            std::make_unique<DiskLinkModel>(t, 25.0, 1.5), n);
      });
  sim::Rng traffic(4242 + seed);
  for (int burst = 0; burst < 60; ++burst) {
    const auto at = static_cast<sim::Time>(traffic.uniform_int(0, 1800000));
    const auto who = static_cast<NodeId>(traffic.uniform_int(0, stack->last_id()));
    const bool bulk = traffic.bernoulli(0.5);
    const double scale = traffic.bernoulli(0.25) ? 0.5 : 1.0;
    stack->transmit_at(at, who, bulk, scale);
    if (burst % 4 == 0) {  // waypoint hop between two transmissions
      const auto mover = static_cast<NodeId>(traffic.uniform_int(0, stack->last_id()));
      const double nx = traffic.uniform_real(0.0, 150.0);
      const double ny = traffic.uniform_real(0.0, 150.0);
      stack->move_at(at + 500, mover, {nx, ny});
    }
    if (burst % 7 == 0) stack->check_at(at + 1000);
  }
  auto& sched = stack->sim_.scheduler();
  auto* links = stack->links_.get();
  sched.schedule_at(400000, [links] {
    links->set_partition({{0, 1, 2, 3, 4}, {5, 6, 7}});
  });
  sched.schedule_at(900000, [links] { links->clear_partition(); });
  sched.schedule_at(1100000, [links] { links->begin_degrade(0.5, {2, 9, 11}); });
  sched.schedule_at(1500000, [links] { links->end_degrade(0.5, {2, 9, 11}); });
  for (const sim::Time at : {400001, 900001, 1100001, 1500001}) {
    stack->check_at(at);
  }
  stack->run_until(sim::sec(3));
  return stack;
}

TEST(ChannelGridChurn, MatchesOracleUnderMobilityAndPartitions) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto stack = drive_churn(32, seed);
    const Channel& channel = *stack->channel_;
    EXPECT_EQ(stack->oracle_->counts().transmissions, channel.transmissions());
    // The run exercised delivery and the incremental-repair machinery.
    EXPECT_GT(channel.deliveries(), 0u);
    EXPECT_GT(channel.cache_invalidations(), 0u);
    EXPECT_GT(channel.cache_repairs(), 0u);
  }
}

TEST(ChannelGridChurn, CarrierSenseStaysExactAfterMoves) {
  // Regression for the carrier-sense path: it must consult the *repaired*
  // reach rows after a move, never a stale row and never a full scan that
  // disagrees with delivery. Node 2 starts out of range of 0, walks into
  // range mid-transmission-gap, and back out.
  sim::Simulator sim(3);
  Topology topo;
  topo.add({0.0, 0.0});
  topo.add({10.0, 0.0});
  topo.add({100.0, 0.0});
  DiskLinkModel links(topo, 15.0);
  Channel channel(sim, topo, links);
  energy::EnergyMeter m0, m1, m2;
  Radio r0(0, sim.scheduler(), channel, m0);
  Radio r1(1, sim.scheduler(), channel, m1);
  Radio r2(2, sim.scheduler(), channel, m2);
  for (Radio* r : {&r0, &r1, &r2}) {
    channel.register_radio(*r);
    r->turn_on();
  }
  Packet pkt;
  pkt.payload = AdvertisementMsg{};

  r0.start_transmission(pkt);
  EXPECT_TRUE(channel.carrier_busy(1));
  EXPECT_FALSE(channel.carrier_busy(2));  // 100 ft away
  sim.run_until(sim::sec(1));

  topo.set_position(2, {12.0, 0.0});  // walks next to the source
  r0.start_transmission(pkt);
  EXPECT_TRUE(channel.carrier_busy(2));
  sim.run_until(sim::sec(2));
  EXPECT_GE(channel.cache_invalidations(), 1u);

  topo.set_position(2, {100.0, 0.0});  // and back out of range
  r0.start_transmission(pkt);
  EXPECT_FALSE(channel.carrier_busy(2));
  sim.run_until(sim::sec(3));
}

// --- world changes with transmissions in flight ---------------------------
//
// The per-listener in-flight index stores each transmission's reach; when
// the world changes mid-flight it must answer from the *current* rows, as
// a fresh link-model scan would. A line of nodes 10 ft apart (disk range
// 15 ft: neighbors only); while two data packets are in the air, a source
// and a listener move and a partition opens, then new transmissions begin
// over them. The oracle checks carrier sense at every node, the
// cross-corruption victims (and their order) and the listener losses.
TEST(ChannelInFlight, WorldChangesMidFlightMatchTheOracle) {
  std::vector<Position> line;
  for (int i = 0; i < 8; ++i) line.push_back({10.0 * i, 0.0});
  OracleStack<scenario::ScenarioLinkModel> stack(
      11, line, [](const Topology& t) {
        return std::make_unique<scenario::ScenarioLinkModel>(
            std::make_unique<DiskLinkModel>(t, 15.0), t.size());
      });
  Channel& channel = *stack.channel_;
  auto& sched = stack.sim_.scheduler();
  std::vector<std::size_t> in_flight_at_change;
  const auto world_change = [&](auto change) {
    return [&, change] {
      in_flight_at_change.push_back(channel.in_flight_for_test().size());
      change();
    };
  };

  stack.transmit_at(1000, 0, /*bulk=*/true, 1.0);  // heard by 1
  stack.transmit_at(1000, 5, /*bulk=*/true, 1.0);  // heard by 4 and 6
  bool busy_1_before = false, busy_3_before = true;
  bool busy_1_after = true, busy_3_after = false, busy_7_after = false;
  sched.schedule_at(2000, [&] {
    busy_1_before = channel.carrier_busy(1);
    busy_3_before = channel.carrier_busy(3);
  });
  // Source 0 glides to x=36 mid-packet: it now reaches 3, 4 and 5 and no
  // longer 1.
  sched.schedule_at(3000, world_change([&] {
    stack.topo_.set_position(0, {36.0, 0.0});
  }));
  sched.schedule_at(3500, [&] {
    busy_1_after = channel.carrier_busy(1);
    busy_3_after = channel.carrier_busy(3);
  });
  stack.check_at(3600);
  // Listener 7 walks into source 5's reach.
  sched.schedule_at(4000, world_change([&] {
    stack.topo_.set_position(7, {62.0, 0.0});
  }));
  sched.schedule_at(4500, [&] { busy_7_after = channel.carrier_busy(7); });
  stack.check_at(4600);
  // Node 2 starts over all of that: its listener 3 is reached by the moved
  // source 0, and 0's candidate 1 is reached by 2.
  stack.transmit_at(5000, 2, /*bulk=*/true, 1.0);
  // A partition splits the line while three packets are in the air.
  sched.schedule_at(6000, world_change([&] {
    stack.links_->set_partition({{0, 1, 2, 3}, {4, 5, 6, 7}});
  }));
  stack.check_at(6500);
  // Listener 4 goes deaf mid-packet, then 6 starts sending (and so stops
  // listening to 5); 3 sends into the partitioned world.
  sched.schedule_at(7000, [&] { stack.radios_[4]->turn_off(); });
  stack.transmit_at(8000, 6, /*bulk=*/true, 1.0);
  stack.transmit_at(8500, 3, /*bulk=*/false, 1.0);
  sched.schedule_at(9000, world_change([&] { stack.links_->clear_partition(); }));
  stack.check_at(9500);
  stack.transmit_at(10000, 1, /*bulk=*/true, 1.0);
  stack.run_until(sim::sec(1));

  ASSERT_EQ(in_flight_at_change.size(), 4u);
  for (const std::size_t n : in_flight_at_change) EXPECT_GE(n, 2u);
  EXPECT_TRUE(busy_1_before);
  EXPECT_FALSE(busy_3_before);
  EXPECT_FALSE(busy_1_after);
  EXPECT_TRUE(busy_3_after);
  EXPECT_TRUE(busy_7_after);
  const ChannelOracle::Counts& checked = stack.oracle_->counts();
  EXPECT_EQ(checked.transmissions, 6u);
  EXPECT_EQ(channel.transmissions(), 6u);
  EXPECT_GT(checked.carrier_probes, 0u);
  EXPECT_GT(channel.collisions(), 0u);
  EXPECT_EQ(checked.collisions, channel.collisions());
  EXPECT_GT(channel.concurrent_bulk_overlaps(), 0u);
  EXPECT_EQ(channel.cache_invalidations(), 4u);
}

// --- cache staleness: world mutations must invalidate ---------------------

TEST_F(ChannelTest, MovingANodeInvalidatesTheNeighborCache) {
  build(4, 15.0);
  Packet pkt = adv_packet();
  pkt.src = 1;
  radios_[1]->start_transmission(pkt);
  sim_.run_until(sim::sec(1));
  ASSERT_EQ(received_[3].size(), 0u);  // 20 ft away at (30, 0)
  ASSERT_EQ(channel_->cached_power_scales(), 1u);
  EXPECT_EQ(channel_->cache_invalidations(), 0u);

  // Node 3 walks next door to node 1. Without invalidation, the cached
  // reach bitset would keep saying 1 cannot reach 3.
  topo_->set_position(3, {15.0, 0.0});
  radios_[1]->start_transmission(pkt);
  sim_.run_until(sim::sec(2));
  EXPECT_EQ(channel_->cache_invalidations(), 1u);
  EXPECT_EQ(received_[3].size(), 1u);

  // No further churn: the rebuilt cache sticks.
  radios_[1]->start_transmission(pkt);
  sim_.run_until(sim::sec(3));
  EXPECT_EQ(channel_->cache_invalidations(), 1u);
  EXPECT_EQ(received_[3].size(), 2u);
}

// A LinkModel whose answers can be toggled off (a stand-in for the
// scenario decorator's partition windows), advertised via revision().
class SwitchableLinkModel final : public LinkModel {
 public:
  explicit SwitchableLinkModel(std::unique_ptr<LinkModel> inner)
      : inner_(std::move(inner)) {}

  double packet_success(NodeId src, NodeId dst, double ps) const override {
    return severed_ ? 0.0 : inner_->packet_success(src, dst, ps);
  }
  bool interferes(NodeId src, NodeId dst, double ps) const override {
    return severed_ ? false : inner_->interferes(src, dst, ps);
  }
  std::uint64_t revision() const override { return revision_; }

  void set_severed(bool severed) {
    severed_ = severed;
    ++revision_;
  }

 private:
  std::unique_ptr<LinkModel> inner_;
  bool severed_ = false;
  std::uint64_t revision_ = 0;
};

TEST(ChannelLinkRevision, RevisionBumpInvalidatesTheNeighborCache) {
  sim::Simulator sim(7);
  Topology topo;
  topo.add({0.0, 0.0});
  topo.add({10.0, 0.0});
  SwitchableLinkModel links(std::make_unique<DiskLinkModel>(topo, 15.0));
  Channel channel(sim, topo, links);
  energy::EnergyMeter m0, m1;
  Radio r0(0, sim.scheduler(), channel, m0);
  Radio r1(1, sim.scheduler(), channel, m1);
  channel.register_radio(r0);
  channel.register_radio(r1);
  std::size_t heard = 0;
  r1.set_receive_handler([&heard](const Packet&) { ++heard; });
  r0.turn_on();
  r1.turn_on();

  Packet pkt;
  pkt.payload = AdvertisementMsg{};
  r0.start_transmission(pkt);
  sim.run_until(sim::sec(1));
  ASSERT_EQ(heard, 1u);

  links.set_severed(true);
  r0.start_transmission(pkt);
  sim.run_until(sim::sec(2));
  EXPECT_EQ(heard, 1u);  // the severed link must not deliver
  EXPECT_EQ(channel.cache_invalidations(), 1u);

  links.set_severed(false);
  r0.start_transmission(pkt);
  sim.run_until(sim::sec(3));
  EXPECT_EQ(heard, 2u);
  EXPECT_EQ(channel.cache_invalidations(), 2u);
}

// --- unbounded interference radius ----------------------------------------
//
// SwitchableLinkModel reports no finite interference range, so no grid is
// built and every row is a linear scan. Rows still build lazily and moves
// still repair incrementally (every row turns dirty); a link flip has no
// enumerable change set and discards the caches. A check right after each
// world change makes every change its own invalidation.
struct UnboundedRun {
  std::unique_ptr<OracleStack<SwitchableLinkModel>> stack;
  std::uint64_t world_changes = 0;
  std::uint64_t severed_tx = 0;          // transmissions begun while severed
  std::uint64_t severed_deliveries = 0;  // deliveries of those
};

UnboundedRun drive_unbounded(bool mobile) {
  UnboundedRun run;
  run.stack = std::make_unique<OracleStack<SwitchableLinkModel>>(
      5, 24, 100.0, 77, [](const Topology& t) {
        return std::make_unique<SwitchableLinkModel>(
            std::make_unique<DiskLinkModel>(t, 25.0, 1.5));
      });
  OracleStack<SwitchableLinkModel>& stack = *run.stack;
  auto& sched = stack.sim_.scheduler();
  sim::Rng traffic(31);
  for (int burst = 0; burst < 60; ++burst) {
    const auto at = static_cast<sim::Time>(traffic.uniform_int(0, 1800000));
    const auto who = static_cast<NodeId>(traffic.uniform_int(0, stack.last_id()));
    stack.transmit_at(at, who, traffic.bernoulli(0.5),
                      traffic.bernoulli(0.25) ? 0.5 : 1.0);
    if (burst % 6 == 0) {
      stack.toggle_at(at + 2000,
                      static_cast<NodeId>(traffic.uniform_int(0, stack.last_id())));
    }
    if (mobile && burst % 4 == 0) {
      const auto mover = static_cast<NodeId>(traffic.uniform_int(0, stack.last_id()));
      const Position to{traffic.uniform_real(0.0, 100.0),
                        traffic.uniform_real(0.0, 100.0)};
      stack.move_at(at + 500, mover, to);
      stack.check_at(at + 501);
      ++run.world_changes;
    }
  }
  // Severed from 600 ms to 1 s. Transmissions begun before the flip may
  // still land; count only those begun in [700 ms, 1 s).
  SwitchableLinkModel* links = stack.links_.get();
  const Channel* channel = stack.channel_.get();
  sched.schedule_at(600000, [links] { links->set_severed(true); });
  sched.schedule_at(1000000, [links] { links->set_severed(false); });
  stack.check_at(600001);
  stack.check_at(1000001);
  run.world_changes += 2;
  std::uint64_t tx0 = 0, del0 = 0;
  sched.schedule_at(700000, [&, channel] {
    tx0 = channel->transmissions();
    del0 = channel->deliveries();
  });
  sched.schedule_at(1000000, [&, channel] {
    run.severed_tx = channel->transmissions() - tx0;
    run.severed_deliveries = channel->deliveries() - del0;
  });
  stack.run_until(sim::sec(3));
  return run;
}

void expect_unbounded_run_exact(const UnboundedRun& run) {
  const Channel& channel = *run.stack->channel_;
  EXPECT_EQ(run.stack->oracle_->counts().transmissions, channel.transmissions());
  EXPECT_GT(run.stack->oracle_->counts().rows, 0u);
  EXPECT_GT(run.stack->oracle_->counts().carrier_probes, 0u);
  EXPECT_GT(channel.deliveries(), 0u);
  EXPECT_GT(channel.collisions(), 0u);
  // Linear-scan rows: no spatial index, yet still built lazily.
  EXPECT_EQ(channel.grid_cells(), 0u);
  EXPECT_GT(channel.cache_repairs(), 0u);
  EXPECT_EQ(channel.cache_invalidations(), run.world_changes);
  // The flip was noticed: nothing begun while severed was delivered.
  EXPECT_GT(run.severed_tx, 0u);
  EXPECT_EQ(run.severed_deliveries, 0u);
}

TEST(ChannelUnboundedRadius, StaticWorldMatchesOracle) {
  const UnboundedRun run = drive_unbounded(/*mobile=*/false);
  expect_unbounded_run_exact(run);
  EXPECT_EQ(run.world_changes, 2u);  // the two link flips
}

TEST(ChannelUnboundedRadius, MovingWorldMatchesOracle) {
  const UnboundedRun run = drive_unbounded(/*mobile=*/true);
  expect_unbounded_run_exact(run);
  EXPECT_GT(run.world_changes, 2u);
}

}  // namespace
}  // namespace mnp::net
