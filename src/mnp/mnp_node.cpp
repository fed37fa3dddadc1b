#include "mnp/mnp_node.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "boot/progress_journal.hpp"
#include "node/stats.hpp"
#include "sim/audit.hpp"
#include "util/log.hpp"

namespace mnp::core {

using net::Packet;
using net::PacketType;

MnpNode::MnpNode(MnpConfig config) : config_(config) {}

MnpNode::MnpNode(MnpConfig config, std::shared_ptr<const ProgramImage> image)
    : config_(config), image_(std::move(image)) {
  assert(image_);
  // The image geometry is a network-wide protocol constant; the base's
  // image must agree with the configuration every other node runs.
  assert(image_->packets_per_segment() == config_.packets_per_segment);
  assert(image_->payload_bytes() == config_.payload_bytes);
}

void MnpNode::start(node::Node& node) {
  // Entry guard: nodes boot in Idle. Also anchors mnp_lint's transition
  // extraction, which resolves the enter_* calls below against Idle.
  assert(state_ == State::kIdle);
  node_ = &node;
  if ((metrics_ = node_->stats().metrics()) != nullptr) {
    // One entry counter per state; registration is idempotent, so all
    // nodes share the same cells. Names match DESIGN.md section 9.
    for (std::size_t s = 0; s < 7; ++s) {
      char name[40];
      char* p = name;
      for (const char* c = "mnp.state_entries."; *c != '\0';) *p++ = *c++;
      for (const char* c = state_cname(static_cast<State>(s)); *c != '\0';) {
        *p++ = *c++;
      }
      m_state_entries_[s] = metrics_->register_counter(
          std::string_view(name, static_cast<std::size_t>(p - name)),
          obs::Unit::kCount, true);
    }
    m_requests_sent_ = metrics_->register_counter("mnp.requests_sent",
                                                  obs::Unit::kCount, true);
    m_data_sent_ =
        metrics_->register_counter("mnp.data_sent", obs::Unit::kCount, true);
  }
  // Pipelined segments must keep their MissingVector inside one radio
  // packet; only the basic protocol may use larger (EEPROM-tracked)
  // segments.
  assert(!config_.pipelining ||
         config_.packets_per_segment <= ProgramImage::kMaxPacketsPerSegment);
  if (image_) {
    program_id_ = image_->id();
    program_bytes_ = static_cast<std::uint32_t>(image_->total_bytes());
    known_segments_ = image_->num_segments();
    rvd_seg_ = known_segments_;
    node_->stats().on_completed(node_->id(), node_->now());
    enter_advertise(/*reset_interval=*/true);
  } else if (recover_journal()) {
    // Rebooted mid-download: the journal restored the received-segment
    // prefix, so rejoin as a source of what we have (or as a complete
    // node) instead of starting from scratch.
    if (has_complete_image()) {
      node_->stats().on_completed(node_->id(), node_->now());
    }
    if (can_advertise()) {
      adv_seg_ = rvd_seg_;
      enter_advertise(/*reset_interval=*/true);
    } else {
      enter_idle();
    }
  } else {
    enter_idle();
  }
}

void MnpNode::journal_segment(std::uint16_t seg) {
  if (!config_.journal_progress) return;
  boot::ProgressJournal journal(node_->eeprom());
  if (!journal.usable(program_bytes_)) return;
  journal.append(program_id_, program_bytes_, seg);
}

bool MnpNode::recover_journal() {
  if (!config_.journal_progress) return false;
  boot::ProgressJournal journal(node_->eeprom());
  auto rec = journal.recover();
  if (!rec || rec->units.empty()) return false;
  if (!accepts_program(rec->program_id)) return false;
  // Geometry is derivable: segment size is a network-wide protocol
  // constant, so the journaled byte count fixes the segment count.
  const std::size_t seg_bytes =
      static_cast<std::size_t>(config_.packets_per_segment) *
      config_.payload_bytes;
  program_id_ = rec->program_id;
  program_bytes_ = rec->program_bytes;
  known_segments_ =
      static_cast<std::uint16_t>((rec->program_bytes + seg_bytes - 1) / seg_bytes);
  // MNP downloads segments strictly in order, so journaled units are the
  // prefix 1..k; take the longest contiguous run in case of anomalies.
  std::uint16_t contiguous = 0;
  for (std::uint16_t unit : rec->units) {
    if (unit == contiguous + 1) contiguous = unit;
  }
  rvd_seg_ = contiguous;
  return rvd_seg_ > 0;
}

void MnpNode::reset_for_reboot() {
  // Everything in RAM dies with the mote. Timers first (including the
  // request timer cancel_timers() deliberately keeps), then the protocol
  // state machine and all download/source bookkeeping.
  request_timer_.cancel();
  cancel_timers();
  if (state_ != State::kIdle) {
    change_state(State::kIdle);
  }
  program_id_ = 0;
  program_bytes_ = 0;
  known_segments_ = 0;
  rvd_seg_ = 0;
  missing_ = util::BigBitmap{};
  missing_for_seg_ = 0;
  parent_ = -1;
  downloading_seg_ = 0;
  adv_seg_ = 0;
  req_ctr_ = 0;
  requesters_.clear();
  forward_vector_ = util::BigBitmap{};
  adv_count_ = 0;
  adv_interval_hi_ = 0;
  forward_cursor_ = 0;
  end_download_sent_ = false;
  fail_count_ = 0;
  neighborhood_complete_ = false;
  rebooted_ = false;
  // battery_level_ is physical, not RAM: it survives the power cycle.
}

std::uint64_t MnpNode::audit_digest() const {
  std::uint64_t h = sim::kFnvOffset;
  h = sim::fnv1a(h, static_cast<std::uint64_t>(state_));
  h = sim::fnv1a(h, program_id_);
  h = sim::fnv1a(h, known_segments_);
  h = sim::fnv1a(h, rvd_seg_);
  h = sim::fnv1a(h, missing_for_seg_);
  h = sim::fnv1a(h, static_cast<std::uint64_t>(parent_));
  h = sim::fnv1a(h, downloading_seg_);
  h = sim::fnv1a(h, adv_seg_);
  h = sim::fnv1a(h, req_ctr_);
  h = sim::fnv1a(h, requesters_.size());
  h = sim::fnv1a(h, forward_cursor_);
  h = sim::fnv1a(h, fail_count_);
  return h;
}

const char* MnpNode::state_cname(State s) {
  switch (s) {
    case State::kIdle: return "Idle";
    case State::kDownload: return "Download";
    case State::kAdvertise: return "Advertise";
    case State::kForward: return "Forward";
    case State::kQuery: return "Query";
    case State::kUpdate: return "Update";
    case State::kSleep: return "Sleep";
  }
  return "?";
}

std::string MnpNode::state_name(State s) { return state_cname(s); }

void MnpNode::set_battery_level(double fraction) {
  battery_level_ = std::clamp(fraction, 0.0, 1.0);
}

bool MnpNode::reboot(const ProgramImage& oracle) {
  if (rebooted_) return true;
  if (!has_complete_image()) return false;
  if (image_) {  // base station: verify directly against its own image
    rebooted_ = oracle.matches(image_->bytes());
    return rebooted_;
  }
  auto stored = node_->eeprom().read(0, program_bytes_);
  rebooted_ = oracle.matches(stored);
  return rebooted_;
}

// --------------------------------------------------------------------------
// helpers
// --------------------------------------------------------------------------

bool MnpNode::can_advertise() const {
  if (known_segments_ == 0) return false;
  return config_.pipelining ? rvd_seg_ >= 1 : rvd_seg_ == known_segments_;
}

std::uint16_t MnpNode::packets_in(std::uint16_t seg) const {
  if (seg == 0 || seg > known_segments_) return 0;
  if (seg < known_segments_) return config_.packets_per_segment;
  const std::size_t seg_bytes =
      static_cast<std::size_t>(config_.packets_per_segment) * config_.payload_bytes;
  const std::size_t last_bytes =
      program_bytes_ - seg_bytes * static_cast<std::size_t>(known_segments_ - 1);
  return static_cast<std::uint16_t>((last_bytes + config_.payload_bytes - 1) /
                                    config_.payload_bytes);
}

std::size_t MnpNode::eeprom_offset(std::uint16_t seg, std::uint16_t pkt) const {
  return (static_cast<std::size_t>(seg - 1) * config_.packets_per_segment +
          pkt) *
         config_.payload_bytes;
}

std::size_t MnpNode::payload_len(std::uint16_t seg, std::uint16_t pkt) const {
  const std::size_t rel = eeprom_offset(seg, pkt);
  if (rel >= program_bytes_) return 0;
  return std::min(config_.payload_bytes, program_bytes_ - rel);
}

void MnpNode::ensure_missing_vector(std::uint16_t seg) {
  // Never cache a vector before the program geometry is known — a zero-
  // sized MissingVector would make the segment "complete" vacuously.
  if (known_segments_ == 0 || packets_in(seg) == 0) return;
  if (missing_for_seg_ == seg && missing_.size() == packets_in(seg)) return;
  missing_ = util::BigBitmap::all_set(packets_in(seg));
  missing_for_seg_ = seg;
}

sim::Time MnpNode::segment_transfer_estimate() const {
  const std::uint16_t pkts =
      known_segments_ ? config_.packets_per_segment : std::uint16_t{128};
  return static_cast<sim::Time>(
      config_.sleep_multiplier *
      static_cast<double>(config_.expected_segment_transfer_time(pkts)));
}

bool MnpNode::loses_to(std::uint8_t their_req_ctr, net::NodeId their_id) const {
  if (their_req_ctr > req_ctr_) return true;
  return their_req_ctr == req_ctr_ && their_id > node_->id();
}

void MnpNode::cancel_timers() {
  // Note: request_timer_ is deliberately NOT cancelled here — a pending
  // download request must survive the transition into the waiting state
  // it causes. Sleeping cancels it explicitly (the radio goes off).
  pre_wave_timer_.cancel();
  nap_timer_.cancel();
  adv_timer_.cancel();
  sleep_timer_.cancel();
  download_timer_.cancel();
  forward_timer_.cancel();
  query_timer_.cancel();
  update_timer_.cancel();
}

bool MnpNode::accepts_program(std::uint16_t program_id) const {
  if (config_.target_program != 0) return program_id == config_.target_program;
  // No explicit subscription: locked to whatever program was heard first.
  return known_segments_ == 0 || program_id == program_id_;
}

void MnpNode::change_state(State next) {
  if (next != state_ && node_ != nullptr) {
    if (auto* log = node_->stats().event_log()) {
      // Format "Old->New" in a stack buffer; the log copies it inline.
      char buf[2 * 16 + 2];
      char* p = buf;
      for (const char* s = state_cname(state_); *s != '\0';) *p++ = *s++;
      *p++ = '-';
      *p++ = '>';
      for (const char* s = state_cname(next); *s != '\0';) *p++ = *s++;
      log->record(node_->now(), node_->id(), trace::EventKind::kStateChange,
                  std::string_view(buf, static_cast<std::size_t>(p - buf)));
    }
    if (metrics_) {
      metrics_->add(m_state_entries_[static_cast<std::size_t>(next)],
                    node_->id());
    }
  }
  state_ = next;
}

void MnpNode::learn_program(const net::AdvertisementMsg& adv) {
  if (known_segments_ == 0 && adv.program_segments > 0 &&
      accepts_program(adv.program_id)) {
    program_id_ = adv.program_id;
    program_bytes_ = adv.program_bytes;
    known_segments_ = adv.program_segments;
  }
}

// --------------------------------------------------------------------------
// state transitions
// --------------------------------------------------------------------------

void MnpNode::enter_idle() {
  cancel_timers();
  change_state(State::kIdle);
  node_->radio_on();  // idle listening: the energy cost Fig. 8 measures
  req_ctr_ = 0;
  requesters_.clear();
  if (config_.pre_wave_duty_cycle > 0.0 && known_segments_ == 0) {
    schedule_pre_wave_cycle();
  }
}

void MnpNode::schedule_pre_wave_cycle() {
  // Listen for a fraction of the period, sleep the rest, repeat until the
  // first advertisement is heard (learning the program cancels the cycle
  // because every state transition cancels this timer).
  const double duty = std::clamp(config_.pre_wave_duty_cycle, 0.01, 1.0);
  const auto listen =
      static_cast<sim::Time>(static_cast<double>(config_.pre_wave_period) * duty);
  pre_wave_timer_ = node_->schedule(listen, [this] {
    if (state_ != State::kIdle || known_segments_ != 0) return;
    node_->radio_off();
    const auto listen_span = static_cast<sim::Time>(
        static_cast<double>(config_.pre_wave_period) *
        std::clamp(config_.pre_wave_duty_cycle, 0.01, 1.0));
    pre_wave_timer_ =
        node_->schedule(config_.pre_wave_period - listen_span, [this] {
          if (state_ != State::kIdle || known_segments_ != 0) return;
          node_->radio_on();
          schedule_pre_wave_cycle();
        });
  });
}

void MnpNode::enter_download(net::NodeId parent, std::uint16_t seg) {
  cancel_timers();
  change_state(State::kDownload);
  parent_ = parent;
  downloading_seg_ = seg;
  ensure_missing_vector(seg);
  node_->stats().on_parent_set(node_->id(), parent);
  arm_download_timeout();
}

void MnpNode::enter_advertise(bool reset_interval) {
  cancel_timers();
  change_state(State::kAdvertise);
  node_->radio_on();
  req_ctr_ = 0;
  requesters_.clear();
  adv_count_ = 0;
  adv_seg_ = std::clamp<std::uint16_t>(adv_seg_, 1, rvd_seg_);
  if (adv_seg_ == 0) adv_seg_ = rvd_seg_;
  forward_vector_ = util::BigBitmap(packets_in(adv_seg_));
  if (reset_interval || adv_interval_hi_ == 0) {
    adv_interval_hi_ = config_.adv_interval_max;
  }
  schedule_next_advertisement();
}

void MnpNode::enter_forward() {
  cancel_timers();
  change_state(State::kForward);
  node_->stats().on_became_sender(node_->id(), node_->now());
  forward_cursor_ = 0;
  end_download_sent_ = false;
  Packet pkt;
  pkt.payload = net::StartDownloadMsg{
      program_id_, adv_seg_, packets_in(adv_seg_)};
  node_->send(std::move(pkt));
  forward_timer_ = node_->schedule(config_.forward_pump_interval,
                                   [this] { pump_forward_queue(); });
}

void MnpNode::enter_query() {
  cancel_timers();
  change_state(State::kQuery);
  Packet pkt;
  pkt.payload = net::QueryMsg{adv_seg_};
  node_->send(std::move(pkt));
  query_timer_ =
      node_->schedule(config_.query_idle_timeout, [this] { enter_sleep(); });
}

void MnpNode::enter_update() {
  cancel_timers();
  change_state(State::kUpdate);
  update_timer_ =
      node_->schedule(config_.update_idle_timeout, [this] { fail(); });
}

void MnpNode::enter_wait_for_transfer() {
  // Requester variant of yielding: the node stops competing as a source
  // but keeps the radio on to catch the imminent StartDownload. If the
  // transfer never materializes, fall back to advertising.
  cancel_timers();
  change_state(State::kIdle);
  req_ctr_ = 0;
  requesters_.clear();
  sleep_timer_ = node_->schedule(2 * segment_transfer_estimate(), [this] {
    if (state_ == State::kIdle && can_advertise()) {
      enter_advertise(/*reset_interval=*/true);
    }
  });
}

void MnpNode::enter_sleep() {
  request_timer_.cancel();
  cancel_timers();
  change_state(State::kSleep);
  req_ctr_ = 0;
  requesters_.clear();
  node_->radio_off();
  sleep_timer_ = node_->schedule(segment_transfer_estimate(), [this] {
    node_->radio_on();
    if (can_advertise()) {
      enter_advertise(/*reset_interval=*/true);
    } else {
      enter_idle();
    }
  });
}

void MnpNode::fail() {
  // Transient fail state: release the download session and return to the
  // protocol's resting state. (The paper sends failed nodes to Idle; a
  // pipelined node that already owns segments rests in Advertise, which
  // plays the Idle role for sources.)
  ++fail_count_;
  cancel_timers();
  if (can_advertise()) {
    enter_advertise(/*reset_interval=*/true);
  } else {
    enter_idle();
  }
}

// --------------------------------------------------------------------------
// advertising / sender selection
// --------------------------------------------------------------------------

void MnpNode::send_advertisement() {
  Packet pkt;
  net::AdvertisementMsg adv;
  adv.program_id = program_id_;
  adv.program_bytes = program_bytes_;
  adv.program_segments = known_segments_;
  adv.seg_id = adv_seg_;
  adv.req_ctr = req_ctr_;
  pkt.payload = adv;
  if (config_.battery_aware) {
    // Weak batteries whisper: fewer listeners => fewer requesters => the
    // node loses the election and keeps its remaining charge.
    pkt.power_scale = std::max(0.25, battery_level_);
  }
  node_->send(std::move(pkt));
}

void MnpNode::schedule_next_advertisement() {
  const sim::Time delay =
      node_->rng().uniform_int(config_.adv_interval_min, adv_interval_hi_);
  adv_timer_ = node_->schedule(delay, [this] {
    if (state_ != State::kAdvertise) return;
    node_->radio_on();  // wake from a quiescent nap, if any
    send_advertisement();
    ++adv_count_;
    if (adv_count_ >= config_.adv_rounds_before_decision) {
      if (req_ctr_ > 0) {
        enter_forward();
        return;
      }
      // No requesters for this segment.
      if (config_.estimate_neighborhood_completion && !needs_code() &&
          adv_seg_ == known_segments_) {
        neighborhood_complete_ = true;
      }
      if (adv_seg_ < rvd_seg_) {
        // Rule 5: nobody wants this segment; offer the next one.
        ++adv_seg_;
        forward_vector_ = util::BigBitmap(packets_in(adv_seg_));
        adv_count_ = 0;
      } else {
        // Stable neighborhood: advertise with reduced frequency.
        adv_interval_hi_ =
            std::min(adv_interval_hi_ * 2, config_.adv_interval_cap);
        adv_count_ = 0;
      }
    }
    schedule_next_advertisement();
    maybe_nap();
  });
}

void MnpNode::maybe_nap() {
  // Quiescent duty cycling: a fully-updated source whose advertisements
  // draw no interest sleeps between them, waking only to advertise. It
  // stays listening for a short window after each advertisement so a late
  // requester can still be heard (which resets the interval and ends the
  // napping regime).
  if (!config_.nap_between_advertisements) return;
  if (needs_code() || req_ctr_ > 0) return;
  if (adv_interval_hi_ < config_.nap_threshold) return;
  nap_timer_ = node_->schedule(config_.post_adv_listen, [this] {
    if (state_ == State::kAdvertise && req_ctr_ == 0 && !needs_code()) {
      node_->radio_off();
    }
  });
}

void MnpNode::send_download_request(net::NodeId dest, std::uint8_t req_ctr_echo) {
  // Randomly delayed so a neighborhood of requesters does not answer the
  // same advertisement in one burst; one pending request at a time.
  if (request_timer_.pending()) return;
  const sim::Time delay = node_->rng().uniform_int(0, config_.request_delay_max);
  request_timer_ = node_->schedule(delay, [this, dest, req_ctr_echo] {
    if (state_ != State::kIdle && state_ != State::kAdvertise) return;
    if (!needs_code() || known_segments_ == 0) return;
    ensure_missing_vector(expected_seg());
    Packet pkt;
    net::DownloadRequestMsg req;
    req.dest = dest;
    req.program_id = program_id_;
    req.seg_id = expected_seg();
    req.req_ctr_echo = req_ctr_echo;
    // With pipelining, segments are <= 128 packets and one window covers
    // everything. The basic protocol's large segments ship the first
    // missing window (the EEPROM-backed variant of section 3.3); the
    // common everything-missing case is flagged instead of enumerated.
    if (missing_.count() == missing_.size()) {
      req.request_all = true;
      req.window_base = 0;
    } else {
      const std::size_t first = missing_.find_first_set();
      req.window_base = static_cast<std::uint16_t>(first);
      req.missing = missing_.window(first);
    }
    pkt.payload = req;
    if (node_->send(std::move(pkt)) && metrics_) {
      metrics_->add(m_requests_sent_, node_->id());
    }
  });
}

void MnpNode::handle_advertisement(const Packet& pkt,
                                   const net::AdvertisementMsg& adv) {
  learn_program(adv);
  node_->meter().mark_first_advertisement(node_->now());

  // As a requester we only act on advertisements of OUR program (subset
  // dissemination: foreign programs are not of interest). Competition
  // still spans programs — there is only one channel.
  const bool ours =
      known_segments_ != 0 && adv.program_id == program_id_;

  switch (state_) {
    case State::kIdle:
      if (ours && needs_code() && adv.seg_id > rvd_seg_) {
        send_download_request(pkt.src, adv.req_ctr);
      }
      break;
    case State::kAdvertise: {
      // Competition: a source with more requesters wins; ties break
      // toward the higher node id.
      if (adv.req_ctr > 0 && loses_to(adv.req_ctr, pkt.src)) {
        if (ours && needs_code() && adv.seg_id == expected_seg()) {
          // The winner is offering exactly the segment we need: stop
          // competing but stay awake as a requester, or we would sleep
          // through our own download.
          enter_wait_for_transfer();
          send_download_request(pkt.src, adv.req_ctr);
        } else {
          enter_sleep();
        }
        return;
      }
      // Pipelining rule 4: yield to a busy source of a *lower* segment.
      if (ours && config_.pipelining && adv.seg_id < adv_seg_ &&
          adv.req_ctr >= config_.lower_segment_priority_threshold) {
        enter_sleep();
        return;
      }
      // A pipelined source may still be a requester for its next segment.
      if (ours && needs_code() && adv.seg_id > rvd_seg_) {
        send_download_request(pkt.src, adv.req_ctr);
      }
      break;
    }
    case State::kDownload:
    case State::kForward:
    case State::kQuery:
    case State::kUpdate:
    case State::kSleep:
      break;  // busy or radio off
  }
}

void MnpNode::merge_request(const net::DownloadRequestMsg& req) {
  if (req.request_all) {
    forward_vector_.set_all();
  } else {
    forward_vector_.merge_window(req.window_base, req.missing);
  }
}

void MnpNode::handle_download_request(const Packet& pkt,
                                      const net::DownloadRequestMsg& req) {
  if (state_ == State::kForward) {
    // Late joiner while streaming: merge its needs; packets the cursor has
    // already passed surface in the next round instead.
    if (req.dest == node_->id() && req.seg_id == adv_seg_) {
      merge_request(req);
    }
    return;
  }
  if (state_ != State::kAdvertise) return;

  // Rule 3: a request for an older segment of OUR program (even one
  // destined elsewhere) pulls this source down to advertise that segment.
  if (req.program_id == program_id_ && req.seg_id >= 1 &&
      req.seg_id < adv_seg_ && req.seg_id <= rvd_seg_) {
    adv_seg_ = req.seg_id;
    forward_vector_ = util::BigBitmap(packets_in(adv_seg_));
    req_ctr_ = 0;
    requesters_.clear();
    adv_count_ = 0;
  }

  if (req.dest == node_->id() && req.program_id == program_id_) {
    if (req.seg_id == adv_seg_) {
      if (requesters_.insert(pkt.src).second && req_ctr_ < 255) {
        ++req_ctr_;
        // The neighborhood is actively updating: advertise at full rate.
        adv_interval_hi_ = config_.adv_interval_max;
      }
      merge_request(req);
    } else if (req.seg_id > adv_seg_ && req.seg_id <= rvd_seg_ &&
               req_ctr_ == 0) {
      // Everyone near us is past adv_seg_; jump forward to what was asked.
      adv_seg_ = req.seg_id;
      forward_vector_ = util::BigBitmap(packets_in(adv_seg_));
      if (requesters_.insert(pkt.src).second) req_ctr_ = 1;
      merge_request(req);
    }
    return;
  }

  // Overheard request destined to another source: hidden-terminal defence.
  // The echoed ReqCtr tells us how busy that source is.
  if (req.req_ctr_echo > 0 && loses_to(req.req_ctr_echo, req.dest)) {
    if (needs_code() && req.seg_id == expected_seg()) {
      // That busier source is about to transmit the segment we need.
      enter_wait_for_transfer();
    } else {
      enter_sleep();
    }
  }
}

// --------------------------------------------------------------------------
// downloading
// --------------------------------------------------------------------------

void MnpNode::arm_download_timeout() {
  download_timer_.cancel();
  download_timer_ =
      node_->schedule(config_.download_idle_timeout, [this] { fail(); });
}

void MnpNode::handle_start_download(const Packet& pkt,
                                    const net::StartDownloadMsg& msg) {
  switch (state_) {
    case State::kIdle:
    case State::kAdvertise:
      if (needs_code() && known_segments_ != 0 &&
          msg.program_id == program_id_ && msg.seg_id == expected_seg()) {
        enter_download(pkt.src, msg.seg_id);
      } else {
        // A neighbor is about to stream a segment we cannot use: turn the
        // radio off for the duration instead of overhearing all of it.
        enter_sleep();
      }
      break;
    default:
      break;
  }
}

void MnpNode::handle_data(const Packet& pkt, const net::DataMsg& msg) {
  switch (state_) {
    case State::kDownload:
      if (msg.program_id == program_id_ && msg.seg_id == downloading_seg_) {
        store_data_packet(msg);
        arm_download_timeout();
        if (missing_.none()) complete_current_segment();
      }
      break;
    case State::kUpdate:
      if (msg.program_id == program_id_ && msg.seg_id == downloading_seg_) {
        store_data_packet(msg);
        if (missing_.none()) {
          complete_current_segment();
        } else {
          send_next_repair_request();
          update_timer_.cancel();
          update_timer_ = node_->schedule(config_.update_idle_timeout,
                                          [this] { fail(); });
        }
      }
      break;
    case State::kIdle:
    case State::kAdvertise:
      if (needs_code() && known_segments_ != 0 &&
          msg.program_id == program_id_ && msg.seg_id == expected_seg()) {
        // Missed the StartDownload but the stream is for us: join it.
        enter_download(pkt.src, msg.seg_id);
        store_data_packet(msg);
      } else {
        enter_sleep();  // not of interest: save the overhearing energy
      }
      break;
    default:
      break;
  }
}

void MnpNode::store_data_packet(const net::DataMsg& msg) {
  ensure_missing_vector(msg.seg_id);
  if (!missing_.test(msg.pkt_id)) return;  // duplicate: EEPROM untouched
  // A data packet must carry exactly the bytes this slot expects; an
  // empty or short payload (malformed sender) must not mark the packet
  // as received.
  if (msg.payload.size() != payload_len(msg.seg_id, msg.pkt_id)) return;
  node_->eeprom().write(eeprom_offset(msg.seg_id, msg.pkt_id), msg.payload);
  missing_.clear(msg.pkt_id);
}

void MnpNode::complete_current_segment() {
  rvd_seg_ = downloading_seg_;
  journal_segment(rvd_seg_);
  node_->stats().on_segment_completed(node_->id(), rvd_seg_, node_->now());
  if (has_complete_image()) {
    node_->stats().on_completed(node_->id(), node_->now());
  }
  cancel_timers();
  if (can_advertise()) {
    adv_seg_ = rvd_seg_;  // offer the newest segment; requests pull it down
    enter_advertise(/*reset_interval=*/true);
  } else {
    enter_idle();
  }
}

void MnpNode::handle_end_download(const Packet& pkt,
                                  const net::EndDownloadMsg& msg) {
  if (state_ != State::kDownload) return;
  if (msg.seg_id != downloading_seg_) return;
  if (static_cast<int>(pkt.src) != parent_) return;
  if (missing_.none()) {
    complete_current_segment();
  } else if (config_.query_update_enabled &&
             missing_.count() <= config_.update_missing_threshold) {
    enter_update();
  } else {
    // Too much residual loss for packet-at-a-time repair: re-request the
    // segment (our MissingVector shapes the next sender's ForwardVector).
    fail();
  }
}

void MnpNode::handle_query(const Packet& pkt, const net::QueryMsg& msg) {
  const bool from_parent = static_cast<int>(pkt.src) == parent_;
  if (state_ == State::kDownload && from_parent &&
      msg.seg_id == downloading_seg_) {
    // The EndDownload was lost; the query tells the same story.
    if (missing_.none()) {
      complete_current_segment();
    } else if (config_.query_update_enabled &&
               missing_.count() <= config_.update_missing_threshold) {
      enter_update();
      send_next_repair_request();
    } else {
      fail();
    }
    return;
  }
  if (state_ == State::kUpdate && from_parent &&
      msg.seg_id == downloading_seg_) {
    send_next_repair_request();
  }
}

void MnpNode::send_next_repair_request() {
  const std::size_t pkt_id = missing_.find_first_set();
  if (pkt_id >= missing_.size()) return;
  Packet pkt;
  net::RepairRequestMsg req;
  req.dest = static_cast<net::NodeId>(parent_);
  req.seg_id = downloading_seg_;
  req.pkt_id = static_cast<std::uint16_t>(pkt_id);
  pkt.payload = req;
  node_->send(std::move(pkt));
}

// --------------------------------------------------------------------------
// forwarding
// --------------------------------------------------------------------------

void MnpNode::send_data_packet(std::uint16_t seg, std::uint16_t pkt_id) {
  Packet pkt;
  net::DataMsg data;
  data.program_id = program_id_;
  data.seg_id = seg;
  data.pkt_id = pkt_id;
  // Payload buffer comes from the frame pool: its capacity is recycled
  // from an earlier data frame instead of heap-allocated per packet.
  data.payload = node_->frame_pool().acquire_payload();
  if (image_) {
    image_->packet_payload_into(seg, pkt_id, data.payload);
  } else {
    node_->eeprom().read_into(eeprom_offset(seg, pkt_id),
                              payload_len(seg, pkt_id), data.payload);
  }
  pkt.payload = std::move(data);
  if (node_->send(std::move(pkt)) && metrics_) {
    metrics_->add(m_data_sent_, node_->id());
  }
}

void MnpNode::pump_forward_queue() {
  if (state_ != State::kForward) return;
  // Keep a couple of packets queued at the MAC; deeper queues would defeat
  // carrier-sense fairness without improving throughput.
  while (node_->mac().queue_depth() < 2) {
    const std::size_t next = forward_vector_.find_first_set(forward_cursor_);
    if (next < forward_vector_.size()) {
      send_data_packet(adv_seg_, static_cast<std::uint16_t>(next));
      forward_cursor_ = static_cast<std::uint16_t>(next + 1);
      continue;
    }
    if (!end_download_sent_) {
      Packet pkt;
      pkt.payload = net::EndDownloadMsg{adv_seg_};
      node_->send(std::move(pkt));
      end_download_sent_ = true;
    }
    break;
  }
  if (end_download_sent_ && node_->mac().idle()) {
    // Whole segment (plus EndDownload) is on the air.
    if (config_.query_update_enabled) {
      enter_query();
    } else {
      enter_sleep();
    }
    return;
  }
  forward_timer_ = node_->schedule(config_.forward_pump_interval,
                                   [this] { pump_forward_queue(); });
}

void MnpNode::handle_repair_request(const Packet& pkt,
                                    const net::RepairRequestMsg& msg) {
  (void)pkt;
  if (state_ != State::kQuery) return;
  if (msg.dest != node_->id() || msg.seg_id != adv_seg_) return;
  send_data_packet(msg.seg_id, msg.pkt_id);
  query_timer_.cancel();
  query_timer_ =
      node_->schedule(config_.query_idle_timeout, [this] { enter_sleep(); });
}

// --------------------------------------------------------------------------
// dispatch
// --------------------------------------------------------------------------

void MnpNode::on_packet(const Packet& pkt) {
  if (const auto* adv = pkt.as<net::AdvertisementMsg>()) {
    handle_advertisement(pkt, *adv);
  } else if (const auto* req = pkt.as<net::DownloadRequestMsg>()) {
    handle_download_request(pkt, *req);
  } else if (const auto* sd = pkt.as<net::StartDownloadMsg>()) {
    handle_start_download(pkt, *sd);
  } else if (const auto* data = pkt.as<net::DataMsg>()) {
    handle_data(pkt, *data);
  } else if (const auto* end = pkt.as<net::EndDownloadMsg>()) {
    handle_end_download(pkt, *end);
  } else if (const auto* query = pkt.as<net::QueryMsg>()) {
    handle_query(pkt, *query);
  } else if (const auto* repair = pkt.as<net::RepairRequestMsg>()) {
    handle_repair_request(pkt, *repair);
  }
  // Foreign-protocol packets (baseline types) are ignored.
}

}  // namespace mnp::core
