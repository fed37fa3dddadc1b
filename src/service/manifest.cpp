#include "service/manifest.hpp"

#include "obs/json_writer.hpp"
#include "scenario/scenario.hpp"

namespace mnp::service {

namespace {

const char* mac_name(harness::MacType m) {
  return m == harness::MacType::kTdma ? "tdma" : "csma";
}

void write_node_list(obs::JsonWriter& w, const std::vector<net::NodeId>& ids) {
  w.begin_array();
  for (const net::NodeId id : ids) w.value(static_cast<std::uint64_t>(id));
  w.end_array();
}

/// Canonical rendering of one parsed scenario event. Every field is
/// emitted (defaults included) so the shape never depends on the kind.
void write_event(obs::JsonWriter& w, const scenario::ScenarioEvent& e) {
  w.begin_object();
  w.key("at");
  w.value(static_cast<std::int64_t>(e.at));
  w.key("kind");
  w.value(scenario::to_string(e.kind));
  w.key("node");
  w.value(static_cast<std::uint64_t>(e.node));
  w.key("value");
  w.value(e.value);
  w.key("duration");
  w.value(static_cast<std::int64_t>(e.duration));
  w.key("x");
  w.value(e.x);
  w.key("y");
  w.value(e.y);
  w.key("groups");
  w.begin_array();
  for (const auto& group : e.groups) write_node_list(w, group);
  w.end_array();
  w.key("nodes");
  write_node_list(w, e.nodes);
  w.end_object();
}

}  // namespace

std::string canonical_manifest(const harness::ExperimentConfig& cfg,
                               std::uint64_t seed) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("manifest_version");
  w.value(2);

  w.key("config");
  w.begin_object();
  w.key("protocol");
  w.value(harness::protocol_name(cfg.protocol));
  w.key("mac");
  w.value(mac_name(cfg.mac));
  w.key("rows");
  w.value(static_cast<std::uint64_t>(cfg.rows));
  w.key("cols");
  w.value(static_cast<std::uint64_t>(cfg.cols));
  w.key("spacing_ft");
  w.value(cfg.spacing_ft);
  w.key("base");
  w.value(static_cast<std::uint64_t>(cfg.base));
  w.key("tdma_slot_us");
  w.value(static_cast<std::int64_t>(cfg.tdma_slot));
  w.key("range_ft");
  w.value(cfg.range_ft);
  w.key("interference_factor");
  w.value(cfg.interference_factor);
  w.key("empirical_links");
  w.value(cfg.empirical_links);
  w.key("link_noise_stddev");
  w.value(cfg.link_noise_stddev);
  w.key("chan_bitrate_bps");
  w.value(cfg.channel.bitrate_bps);
  w.key("program_id");
  w.value(static_cast<std::uint64_t>(cfg.program_id));
  w.key("program_bytes");
  w.value(static_cast<std::uint64_t>(cfg.program_bytes));
  w.key("seed");
  w.value(seed);
  w.key("max_sim_time_us");
  w.value(static_cast<std::int64_t>(cfg.max_sim_time));
  w.key("boot_jitter_us");
  w.value(static_cast<std::int64_t>(cfg.boot_jitter));
  w.key("tie_break");
  w.value(cfg.tie_break == sim::TieBreak::kFifo ? "fifo" : "lifo");

  // Protocol knobs on the service request surface, plus every field that
  // shapes the disseminated image's segment geometry (those decide the
  // simulation even when the protocol in question is not selected for
  // this run — image geometry is resolved per protocol).
  w.key("mnp_packets_per_segment");
  w.value(static_cast<std::uint64_t>(cfg.mnp.packets_per_segment));
  w.key("mnp_payload_bytes");
  w.value(static_cast<std::uint64_t>(cfg.mnp.payload_bytes));
  w.key("mnp_pipelining");
  w.value(cfg.mnp.pipelining);
  w.key("mnp_query_update");
  w.value(cfg.mnp.query_update_enabled);
  w.key("mnp_battery_aware");
  w.value(cfg.mnp.battery_aware);
  w.key("mnp_duty_cycle");
  w.value(cfg.mnp.pre_wave_duty_cycle);
  w.key("deluge_packets_per_page");
  w.value(static_cast<std::uint64_t>(cfg.deluge.packets_per_page));
  w.key("deluge_payload_bytes");
  w.value(static_cast<std::uint64_t>(cfg.deluge.payload_bytes));
  w.key("moap_payload_bytes");
  w.value(static_cast<std::uint64_t>(cfg.moap.payload_bytes));
  w.key("xnp_payload_bytes");
  w.value(static_cast<std::uint64_t>(cfg.xnp.payload_bytes));
  w.key("ncast_generation_size");
  w.value(static_cast<std::uint64_t>(cfg.ncast.generation_size));
  w.key("ncast_payload_bytes");
  w.value(static_cast<std::uint64_t>(cfg.ncast.payload_bytes));

  w.key("battery_levels");
  w.begin_array();
  for (const double level : cfg.battery_levels) w.value(level);
  w.end_array();
  w.end_object();

  // The *parsed* schedule, not its textual spelling: comments, blank
  // lines and equivalent time suffixes ("90s" vs "1.5min") hash alike.
  w.key("scenario");
  w.begin_object();
  w.key("name");
  w.value(cfg.scenario.name());
  w.key("events");
  w.begin_array();
  for (const scenario::ScenarioEvent& e : cfg.scenario.events()) {
    write_event(w, e);
  }
  w.end_array();
  w.end_object();

  w.end_object();
  return w.take();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t manifest_hash(const harness::ExperimentConfig& cfg,
                            std::uint64_t seed) {
  return fnv1a64(canonical_manifest(cfg, seed));
}

std::string manifest_hash_hex(std::uint64_t hash) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

}  // namespace mnp::service
