// Brute-force oracle for net::Channel.
//
// Installed as the channel's observer, the oracle recomputes every channel
// decision from the LinkModel with plain O(N) scans — no neighbor rows, no
// grid, no dirty bits — and checks the channel's answer as it is made:
//  * every neighbor row at the power scale of each transmission,
//  * each transmission's candidate set (ascending) and decode
//    probabilities,
//  * the collision victims, in the order the channel reports them, and the
//    concurrent-bulk-sender count,
//  * carrier_busy() for every node,
//  * every delivery: the receiver was a listening, uncorrupted candidate,
//    and the delivered frame still encodes to the bytes that were sent.
// Listening state comes from the radios' own state machines, not from the
// channel's mirror of it. Every callback is forwarded to an inner observer
// (a network's StatsCollector), so a full protocol run behaves as it would
// without the oracle. Mismatches are reported as gtest failures.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "net/codec.hpp"
#include "net/link_model.hpp"
#include "net/topology.hpp"

namespace mnp::net {

class ChannelOracle final : public ChannelObserver {
 public:
  /// Radio::is_listening() of node `id`.
  using ListeningFn = std::function<bool(NodeId)>;

  /// How much the oracle has checked; tests assert these are non-zero so a
  /// vacuous run cannot pass.
  struct Counts {
    std::uint64_t transmissions = 0;
    std::uint64_t rows = 0;
    std::uint64_t candidates = 0;
    std::uint64_t collisions = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t carrier_probes = 0;
  };

  /// Attaches to `channel` as its observer. `forward` (nullable) receives
  /// every callback after it has been checked. Every query is an O(N)
  /// scan, so keep `topo` small (and under 2^16 nodes: NodeId is 16-bit).
  ChannelOracle(Channel& channel, const Topology& topo, const LinkModel& links,
                ListeningFn listening, ChannelObserver* forward = nullptr)
      : channel_(channel),
        topo_(topo),
        links_(links),
        listening_(std::move(listening)),
        forward_(forward),
        base_tx_(channel.transmissions()),
        base_delivered_(channel.deliveries()),
        base_collisions_(channel.collisions()),
        base_bulk_(channel.concurrent_bulk_overlaps()) {
    channel_.set_observer(this);
  }

  ChannelOracle(const ChannelOracle&) = delete;
  ChannelOracle& operator=(const ChannelOracle&) = delete;

  const Counts& counts() const { return counts_; }

  /// Checks every row of every power scale seen so far and carrier sense
  /// at every node. Transmissions check their own scale's rows already;
  /// call this at quiet points, e.g. right after a world change.
  void check_now() {
    for (const double ps : scales_) check_rows(ps);
    check_carrier_sense();
  }

  /// End-of-run check: totals agree and nothing the oracle expected is
  /// still outstanding.
  void finish() {
    settle();
    check_now();
  }

  void on_transmit(NodeId src, const Packet& pkt, sim::Time now) override {
    ++counts_.transmissions;  // the channel has counted it already
    settle();
    const auto& flight = channel_.in_flight_for_test();
    if (flight.empty() || flight.back()->src != src ||
        &flight.back()->pkt() != &pkt) {
      fail("on_transmit: the new transmission is not the last in flight");
    } else {
      scales_.insert(pkt.power_scale);
      check_rows(pkt.power_scale);
      check_listener_losses(flight);
      check_carrier_sense();
      expect_begin(src, pkt, flight);
    }
    if (forward_) forward_->on_transmit(src, pkt, now);
  }

  void on_deliver(NodeId src, NodeId dst, const Packet& pkt,
                  sim::Time now) override {
    ++counts_.deliveries;
    const auto it = records_.find(&pkt);
    if (it == records_.end() || it->second.src != src) {
      fail("delivery " + edge(src, dst) + " of a frame never transmitted");
    } else {
      Record& rec = it->second;
      const auto c =
          std::lower_bound(rec.candidates.begin(), rec.candidates.end(), dst);
      const std::size_t i = static_cast<std::size_t>(c - rec.candidates.begin());
      if (c == rec.candidates.end() || *c != dst) {
        fail("delivery " + edge(src, dst) + " to a non-candidate");
      } else if (rec.corrupted[i]) {
        fail("delivery " + edge(src, dst) + " of a corrupted packet");
      } else if (rec.delivered[i]) {
        fail("delivery " + edge(src, dst) + " made twice");
      } else {
        rec.delivered[i] = true;
      }
      if (!listening_(dst)) {
        fail("delivery " + edge(src, dst) + " to a radio not listening");
      }
      if (encode(pkt) != rec.bytes || pkt.power_scale != rec.power_scale) {
        fail("delivery " + edge(src, dst) + ": frame differs from the sent bytes");
      }
    }
    if (forward_) forward_->on_deliver(src, dst, pkt, now);
  }

  void on_collision(NodeId victim, sim::Time now) override {
    ++counts_.collisions;
    if (next_victim_ >= victims_.size()) {
      fail("unexpected collision at node " + std::to_string(victim));
    } else if (victims_[next_victim_++] != victim) {
      fail("collision at node " + std::to_string(victim) + ", expected " +
           std::to_string(victims_[next_victim_ - 1]));
    }
    if (forward_) forward_->on_collision(victim, now);
  }

 private:
  /// What the oracle knows about one transmitted frame, keyed by the
  /// address of its Packet (unique among live frames; a recycled frame
  /// node replaces the record of the dead frame it used to hold).
  struct Record {
    NodeId src = 0;
    double power_scale = 1.0;
    std::vector<std::uint8_t> bytes;
    std::vector<NodeId> candidates;
    std::vector<bool> corrupted;
    std::vector<bool> delivered;
  };

  bool reaches(NodeId from, NodeId to, double ps) const {
    const std::size_t n = topo_.size();
    return from != to && from < n && to < n && links_.interferes(from, to, ps);
  }

  void check_rows(double ps) {
    const auto n = static_cast<NodeId>(topo_.size());
    for (NodeId src = 0; src < n; ++src) {
      std::vector<NodeId> ids;
      std::vector<double> success;
      for (NodeId dst = 0; dst < n; ++dst) {
        if (!reaches(src, dst, ps)) continue;
        ids.push_back(dst);
        success.push_back(links_.packet_success(src, dst, ps));
      }
      const auto row = channel_.neighbor_row_for_test(ps, src);
      ++counts_.rows;
      if (row.first != ids || row.second != success) {
        fail("row of node " + std::to_string(src) + " at power scale " +
             std::to_string(ps) + " differs from the link model");
      }
    }
  }

  void check_carrier_sense() {
    const auto& flight = channel_.in_flight_for_test();
    const auto n = static_cast<NodeId>(topo_.size());
    for (NodeId l = 0; l < n; ++l) {
      bool busy = false;
      for (const auto& tx : flight) {
        busy = busy || tx->src == l || reaches(tx->src, l, tx->pkt().power_scale);
      }
      ++counts_.carrier_probes;
      if (channel_.carrier_busy(l) != busy) {
        fail("carrier_busy(" + std::to_string(l) + ") should be " +
             (busy ? "true" : "false"));
      }
    }
  }

  /// A candidate that stopped listening mid-packet has lost it: the
  /// channel must have marked it corrupted. Adopts those marks so a later
  /// delivery to it is caught.
  void check_listener_losses(
      const std::vector<std::unique_ptr<Channel::Active>>& flight) {
    for (std::size_t k = 0; k + 1 < flight.size(); ++k) {
      const Channel::Active& tx = *flight[k];
      const auto it = records_.find(&tx.pkt());
      for (std::size_t i = 0; i < tx.candidates.size(); ++i) {
        if (!listening_(tx.candidates[i]) && !tx.corrupted[i]) {
          fail("node " + std::to_string(tx.candidates[i]) +
               " stopped listening but keeps its packet from " +
               std::to_string(tx.src));
        }
        if (tx.corrupted[i] && it != records_.end() &&
            i < it->second.corrupted.size()) {
          it->second.corrupted[i] = true;
        }
      }
    }
  }

  /// The new transmission is `flight.back()`: checks its candidates, then
  /// queues the collision victims and bulk overlaps its cross-corruption
  /// pass must produce.
  void expect_begin(NodeId src, const Packet& pkt,
                    const std::vector<std::unique_ptr<Channel::Active>>& flight) {
    const double ps = pkt.power_scale;
    Record rec;
    rec.src = src;
    rec.power_scale = ps;
    rec.bytes = encode(pkt);
    std::vector<double> success;
    const auto n = static_cast<NodeId>(topo_.size());
    for (NodeId id = 0; id < n; ++id) {
      if (!listening_(id) || !reaches(src, id, ps)) continue;
      rec.candidates.push_back(id);
      success.push_back(links_.packet_success(src, id, ps));
    }
    const Channel::Active& tx = *flight.back();
    counts_.candidates += rec.candidates.size();
    if (tx.candidates != rec.candidates || tx.success != success ||
        std::count(tx.corrupted.begin(), tx.corrupted.end(), true) != 0) {
      fail("candidates of the transmission from " + std::to_string(src) +
           " differ from the link-model scan");
    }
    rec.corrupted.assign(rec.candidates.size(), false);
    rec.delivered.assign(rec.candidates.size(), false);

    victims_.clear();
    next_victim_ = 0;
    const bool bulk = is_bulk_data(pkt.type());
    for (std::size_t k = 0; k + 1 < flight.size(); ++k) {
      const Channel::Active& other = *flight[k];
      const double ops = other.pkt().power_scale;
      for (std::size_t i = 0; i < rec.candidates.size(); ++i) {
        if (!rec.corrupted[i] && reaches(other.src, rec.candidates[i], ops)) {
          rec.corrupted[i] = true;
          victims_.push_back(rec.candidates[i]);
        }
      }
      const auto it = records_.find(&other.pkt());
      for (std::size_t i = 0; i < other.candidates.size(); ++i) {
        if (!other.corrupted[i] && reaches(src, other.candidates[i], ps)) {
          victims_.push_back(other.candidates[i]);
          if (it != records_.end() && i < it->second.corrupted.size()) {
            it->second.corrupted[i] = true;
          }
        }
      }
      if (bulk && other.bulk) {
        bool overlap = reaches(src, other.src, ps) || reaches(other.src, src, ops);
        for (const NodeId r : rec.candidates) {
          overlap = overlap || reaches(other.src, r, ops);
        }
        if (overlap) ++expected_bulk_;
      }
    }
    expected_collisions_ += victims_.size();
    records_[&pkt] = std::move(rec);
  }

  /// Everything expected from earlier callbacks has happened, and the
  /// channel's counters agree with what the oracle saw.
  void settle() {
    if (next_victim_ != victims_.size()) {
      fail(std::to_string(victims_.size() - next_victim_) +
           " expected collisions never reported");
      next_victim_ = victims_.size();
    }
    const auto expect_count = [this](const char* what, std::uint64_t got,
                                     std::uint64_t want) {
      if (got != want) {
        fail(std::string(what) + " counter " + std::to_string(got) +
             ", oracle saw " + std::to_string(want));
      }
    };
    expect_count("transmissions", channel_.transmissions() - base_tx_,
                 counts_.transmissions);
    expect_count("deliveries", channel_.deliveries() - base_delivered_,
                 counts_.deliveries);
    expect_count("collisions", channel_.collisions() - base_collisions_,
                 expected_collisions_);
    expect_count("bulk-overlap",
                 channel_.concurrent_bulk_overlaps() - base_bulk_,
                 expected_bulk_);
  }

  static std::string edge(NodeId src, NodeId dst) {
    std::ostringstream os;
    os << src << "->" << dst;
    return os.str();
  }

  void fail(const std::string& what) {
    // The first few mismatches carry the story; the rest are echoes.
    if (++mismatches_ <= 10) ADD_FAILURE() << "channel oracle: " << what;
  }

  Channel& channel_;
  const Topology& topo_;
  const LinkModel& links_;
  ListeningFn listening_;
  ChannelObserver* forward_;
  std::uint64_t base_tx_;
  std::uint64_t base_delivered_;
  std::uint64_t base_collisions_;
  std::uint64_t base_bulk_;

  Counts counts_;
  std::set<double> scales_;
  std::map<const Packet*, Record> records_;
  std::vector<NodeId> victims_;  // expected on_collision order, current begin
  std::size_t next_victim_ = 0;
  std::uint64_t expected_collisions_ = 0;
  std::uint64_t expected_bulk_ = 0;
  std::uint64_t mismatches_ = 0;
};

}  // namespace mnp::net
