// Result structures produced by the experiment harness.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace mnp::harness {

struct NodeResult {
  sim::Time completion = sim::kNever;
  sim::Time active_radio = 0;                   // Fig. 8
  sim::Time active_radio_after_first_adv = 0;   // Fig. 9
  int parent = -1;                              // Figs. 5-7
  sim::Time became_sender = sim::kNever;

  std::uint64_t tx_total = 0;   // Fig. 11 (left)
  std::uint64_t rx_total = 0;   // Fig. 11 (right)
  std::uint64_t tx_data = 0;     // sent packets node::classify()s as data
  std::uint64_t tx_adv = 0;      // ... and as advertisements
  std::uint64_t eeprom_writes = 0;
  std::uint64_t collisions_suffered = 0;
  double energy_nah = 0.0;      // Table-1 pricing of the whole run
  bool image_verified = false;  // byte-exact against the oracle
};

struct RunResult {
  std::size_t rows = 0;
  std::size_t cols = 0;

  bool all_completed = false;
  std::size_t completed_count = 0;
  /// Time the last node completed; kNever if not everyone did.
  sim::Time completion_time = sim::kNever;
  /// Simulation clock when metrics were captured (== completion_time on a
  /// fully successful run).
  sim::Time measured_at = 0;

  std::vector<NodeResult> nodes;
  std::vector<net::NodeId> sender_order;
  /// timeline[minute][class]: transmitted messages per minute per class
  /// (0 = advertisement-like, 1 = request-like, 2 = data, 3 = other).
  std::map<std::int64_t, std::array<std::uint64_t, 4>> timeline;

  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  /// Concurrent bulk-sender overlaps (the sender-selection invariant).
  std::uint64_t bulk_overlaps = 0;

  // --- scenario outcomes (zero on fault-free runs) ---------------------
  /// Nodes still dead when the run ended.
  std::size_t dead_nodes = 0;
  /// World mutations the scenario engine injected.
  std::uint64_t scenario_injected = 0;
  /// Non-empty when the scenario failed validation; the run is aborted
  /// before boot and every other field is default.
  std::string scenario_error;

  // --- aggregates -----------------------------------------------------
  double avg_active_radio_s() const;
  double avg_active_radio_after_adv_s() const;
  double avg_messages_sent() const;
  double total_energy_nah() const;
  std::size_t verified_count() const;
};

}  // namespace mnp::harness
