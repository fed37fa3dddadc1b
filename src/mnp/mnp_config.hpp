// Tunables of the MNP protocol. Defaults follow the paper where it gives
// numbers and the TinyOS implementation's spirit where it does not; every
// knob is exercised by the ablation bench.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace mnp::core {

struct MnpConfig {
  // --- segment geometry (protocol constants, shared network-wide) ---------
  /// Packets per segment; at most 128 so the MissingVector fits in one
  /// radio packet.
  std::uint16_t packets_per_segment = 128;
  /// Code bytes per data packet.
  std::size_t payload_bytes = 22;

  // --- sender selection ------------------------------------------------
  /// K: advertisements sent continuously (without sleeping) before the
  /// source decides to forward (if ReqCtr > 0) or slow down.
  int adv_rounds_before_decision = 5;
  /// Advertisements go out every random interval in [min, max] while the
  /// neighborhood is actively updating.
  sim::Time adv_interval_min = sim::msec(500);
  sim::Time adv_interval_max = sim::msec(1000);
  /// With no requesters the interval doubles per round up to this cap
  /// ("advertise with reduced frequency ... saves energy when the network
  /// is stable").
  sim::Time adv_interval_cap = sim::sec(32);

  // --- pipelining --------------------------------------------------------
  /// Segment pipelining on/off (off = the basic hop-by-hop protocol of
  /// section 3.1.1, used for the paper's mote experiments).
  bool pipelining = true;
  /// Rule 4 of section 3.1.2: a source advertising segment x sleeps when
  /// it hears an advertisement for segment y < x whose source already has
  /// at least this many requesters.
  std::uint8_t lower_segment_priority_threshold = 2;

  // --- pre-wave duty cycling ----------------------------------------------
  /// The paper (Fig. 9 discussion): nodes far from the base keep their
  /// radio on while waiting for the propagation wave; an S-MAC/SS-TDMA
  /// style scheme would let them sleep until it arrives. This implements
  /// that proposal: a node that has never heard an advertisement duty-
  /// cycles its radio (listen `pre_wave_duty_cycle` of each
  /// `pre_wave_period`). 0 disables (the paper's measured configuration).
  double pre_wave_duty_cycle = 0.0;
  sim::Time pre_wave_period = sim::msec(1500);

  // --- quiescent duty cycling ---------------------------------------------
  /// Once a fully-updated source has backed its advertisement interval off
  /// to at least `nap_threshold` with no requesters, it turns the radio
  /// off between advertisements ("after a node has got the code, it spends
  /// most of the time in sleeping state"). After each advertisement it
  /// listens for `post_adv_listen` to catch late requesters before napping.
  bool nap_between_advertisements = true;
  sim::Time nap_threshold = sim::sec(4);
  sim::Time post_adv_listen = sim::msec(400);

  // --- sleeping ---------------------------------------------------------
  /// Sleep duration = multiplier x expected one-segment transfer time
  /// ("the sleeping period ... lasts for approximately the expected code
  /// transmission time").
  double sleep_multiplier = 1.0;
  /// Estimated per-packet service time (airtime + MAC overhead) used to
  /// size sleeps and forwarding paces.
  sim::Time per_packet_time_estimate = sim::msec(40);

  // --- downloading ------------------------------------------------------
  /// A node waiting for the next packet from its parent gives up (fail
  /// state) after this long without progress.
  sim::Time download_idle_timeout = sim::sec(4);
  /// Pacing of the forwarding loop: the sender tops up its MAC queue at
  /// this period.
  sim::Time forward_pump_interval = sim::msec(10);

  // --- requester behaviour --------------------------------------------------
  /// Download requests answering an advertisement are delayed by a random
  /// amount in [0, this] so a crowd of requesters does not answer in the
  /// same instant.
  sim::Time request_delay_max = sim::msec(150);

  // --- query/update phase (optional in the paper) -------------------------
  bool query_update_enabled = true;
  /// The paper: query/update "is desirable in cases where the number of
  /// packets lost by the receiver is less than a given threshold". With
  /// more residual loss than this the node fails the segment and
  /// re-requests it through normal sender selection instead.
  std::size_t update_missing_threshold = 8;
  /// Sender: no repair request for this long ends the query phase.
  sim::Time query_idle_timeout = sim::msec(1500);
  /// Receiver in update state: no retransmission for this long => fail.
  sim::Time update_idle_timeout = sim::sec(3);

  // --- extensions ----------------------------------------------------------
  /// Battery-aware advertising (paper section 6): advertisement transmit
  /// power is scaled by the node's remaining battery fraction, so drained
  /// nodes attract fewer requesters and lose the sender election.
  bool battery_aware = false;

  /// Subset dissemination (paper section 6): several programs may flow to
  /// disjoint or overlapping subsets of the network. 0 = accept whatever
  /// program is heard first (the paper's measured single-program mode);
  /// nonzero = participate only in that program id. Transfers of foreign
  /// programs are "not of interest", so the node sleeps through them —
  /// the same energy rule that drives segment-level sleeping.
  std::uint16_t target_program = 0;

  /// If set, a node that has the full image and sent K advertisements of
  /// the highest segment with no request records that its neighborhood
  /// looks complete (the paper's *local estimation* reboot signal; actual
  /// reboot still waits for the external start signal).
  bool estimate_neighborhood_completion = true;

  /// Crash-safe progress journaling (boot::ProgressJournal): every
  /// completed segment is appended to the EEPROM tail, and start()
  /// replays the journal so a rebooted node resumes instead of
  /// re-downloading. Off by default — it adds one EEPROM write per
  /// segment, which the write-accounting tests pin down exactly; the
  /// harness enables it whenever a scenario injects churn.
  bool journal_progress = false;

  /// Expected time to push one full segment to a neighborhood.
  sim::Time expected_segment_transfer_time(std::uint16_t packets_per_segment) const {
    return per_packet_time_estimate * packets_per_segment;
  }
};

}  // namespace mnp::core
