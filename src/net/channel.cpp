#include "net/channel.hpp"

#include <algorithm>
#include <utility>

#include "net/radio.hpp"

namespace mnp::net {

Channel::Channel(sim::Simulator& sim, const Topology& topo,
                 const LinkModel& links, Params params)
    : sim_(sim),
      topo_(topo),
      links_(links),
      params_(params),
      rng_(sim.fork_rng(0xC4A27EFULL)) {
  radios_.resize(topo_.size(), nullptr);
  listening_.resize(topo_.size(), 0);
}

Channel::Channel(sim::Simulator& sim, const Topology& topo,
                 const LinkModel& links)
    : Channel(sim, topo, links, Params{}) {}

void Channel::register_radio(Radio& radio) {
  if (radio.id() >= radios_.size()) {
    radios_.resize(radio.id() + 1, nullptr);
    listening_.resize(radio.id() + 1, 0);
  }
  radios_[radio.id()] = &radio;
  listening_[radio.id()] = radio.is_listening() ? 1 : 0;
}

void Channel::attach_metrics(obs::MetricsRegistry& registry) {
  metrics_ = &registry;
  m_tx_ = registry.register_counter("chan.tx", obs::Unit::kCount, true);
  m_delivered_ =
      registry.register_counter("chan.delivered", obs::Unit::kCount, true);
  m_collisions_ =
      registry.register_counter("chan.collisions", obs::Unit::kCount, true);
  m_bulk_overlaps_ = registry.register_counter("chan.bulk_overlaps",
                                               obs::Unit::kCount, false);
  m_cache_invalidations_ = registry.register_counter("chan.cache_invalidations",
                                                     obs::Unit::kCount, false);
  m_cache_repairs_ =
      registry.register_counter("chan.cache_repairs", obs::Unit::kCount, false);
  m_grid_cells_ =
      registry.register_gauge("chan.grid_cells", obs::Unit::kCount, false);
  m_grid_occupancy_ = registry.register_gauge("chan.grid_max_occupancy",
                                              obs::Unit::kCount, false);
  publish_grid_gauges();
}

sim::Time Channel::airtime(const Packet& pkt) const {
  const double bits = static_cast<double>(pkt.wire_bytes()) * 8.0;
  return static_cast<sim::Time>(bits / params_.bitrate_bps * 1e6);
}

void Channel::publish_grid_gauges() const {
  if (!metrics_) return;
  metrics_->set(m_grid_cells_, static_cast<double>(grid_.cell_count()));
  metrics_->set(m_grid_occupancy_,
                static_cast<double>(grid_.max_occupancy()));
}

void Channel::discard_caches() const {
  scales_.clear();
  scale_index_.clear();
  grid_.reset();
}

void Channel::mark_neighborhood_dirty(ScaleCache& cache, Position p) const {
  if (cache.radius < 0.0 || !grid_.valid()) {
    cache.mark_all_dirty(cache.neighbors.size());
    return;
  }
  grid_.for_each_near(p.x, p.y, cache.radius,
                      [&](NodeId s) { cache.mark_dirty(s); });
}

void Channel::apply_move(const Topology::MoveRecord& mv) const {
  // Any source whose row could gain or lose the moved node sits within the
  // scale's interference radius of one of the endpoints (interference is a
  // distance bound), so two disc queries cover exactly the affected rows.
  for (const auto& cache : scales_) {
    mark_neighborhood_dirty(*cache, mv.from);
    mark_neighborhood_dirty(*cache, mv.to);
    if (mv.node < cache->neighbors.size()) cache->mark_dirty(mv.node);
  }
  if (grid_.valid()) grid_.move(mv.node, mv.to);
}

void Channel::sync_world() const {
  const std::uint64_t tv = topo_.version();
  const std::uint64_t lr = links_.revision();
  if (tv == cache_topo_version_ && lr == cache_links_revision_) return;
  if (scales_.empty()) {
    // Nothing cached yet; a built grid would be a stale position snapshot.
    grid_.reset();
  } else {
    // Incremental repair needs a complete account of what changed: both
    // logs are bounded, and a link model may not track change sets at
    // all. Anything short of that discards the caches — correct by
    // construction, merely slower.
    move_scratch_.clear();
    link_scratch_.clear();
    const bool incremental =
        (tv == cache_topo_version_ ||
         topo_.moves_since(cache_topo_version_, move_scratch_)) &&
        (lr == cache_links_revision_ ||
         links_.changed_nodes_since(cache_links_revision_, link_scratch_));
    if (incremental) {
      for (const auto& mv : move_scratch_) apply_move(mv);
      for (const NodeId id : link_scratch_) {
        if (id >= topo_.size()) continue;
        for (const auto& cache : scales_) {
          mark_neighborhood_dirty(*cache, topo_.position(id));
          if (id < cache->neighbors.size()) cache->mark_dirty(id);
        }
      }
      publish_grid_gauges();
    } else {
      discard_caches();
    }
    ++cache_invalidations_;
    if (metrics_) metrics_->add(m_cache_invalidations_);
  }
  cache_topo_version_ = tv;
  cache_links_revision_ = lr;
}

Channel::ScaleCache& Channel::scale_for(double power_scale) const {
  sync_world();
  const auto it = std::lower_bound(
      scale_index_.begin(), scale_index_.end(), power_scale,
      [](const std::pair<double, std::uint32_t>& e, double v) {
        return e.first < v;
      });
  if (it != scale_index_.end() && it->first == power_scale) {
    return *scales_[it->second];
  }
  return build_scale(power_scale);
}

Channel::ScaleCache& Channel::build_scale(double power_scale) const {
  // First packet at this power scale: every row starts dirty and is built
  // on first touch, O(neighbors) through the grid.
  auto cache = std::make_unique<ScaleCache>();
  cache->power_scale = power_scale;
  cache->radius = links_.max_interference_range(power_scale);
  const std::size_t n = topo_.size();
  cache->neighbors.resize(n);
  cache->success.resize(n);
  if (!grid_.valid() && cache->radius > 0.0) {
    grid_.build(topo_, cache->radius);
    publish_grid_gauges();
  }
  cache->mark_all_dirty(n);
  scales_.push_back(std::move(cache));
  const auto index = static_cast<std::uint32_t>(scales_.size() - 1);
  const auto pos = std::lower_bound(
      scale_index_.begin(), scale_index_.end(), power_scale,
      [](const std::pair<double, std::uint32_t>& e, double v) {
        return e.first < v;
      });
  scale_index_.insert(pos, {power_scale, index});
  return *scales_[index];
}

void Channel::rebuild_row(ScaleCache& cache, NodeId src) const {
  std::vector<NodeId>& nbr = cache.neighbors[src];
  std::vector<double>& suc = cache.success[src];
  nbr.clear();
  suc.clear();
  const double ps = cache.power_scale;
  if (grid_.valid() && cache.radius >= 0.0) {
    // Grid superset -> exact filter -> sort: the same ascending row, self
    // excluded, that the linear scan below builds.
    row_scratch_.clear();
    grid_.for_each_near(
        grid_.x(src), grid_.y(src), cache.radius, [&](NodeId d) {
          if (d != src && links_.interferes(src, d, ps)) {
            row_scratch_.push_back(d);
          }
        });
    std::sort(row_scratch_.begin(), row_scratch_.end());
    nbr.assign(row_scratch_.begin(), row_scratch_.end());
    suc.reserve(nbr.size());
    for (const NodeId d : nbr) suc.push_back(links_.packet_success(src, d, ps));
  } else {
    // No finite interference bound: every node is a potential neighbor.
    const std::size_t n = topo_.size();
    for (std::size_t dst = 0; dst < n; ++dst) {
      const NodeId d = static_cast<NodeId>(dst);
      if (d == src || !links_.interferes(src, d, ps)) continue;
      nbr.push_back(d);
      suc.push_back(links_.packet_success(src, d, ps));
    }
  }
  cache.clear_dirty(src);
  ++cache_repairs_;
  if (metrics_) metrics_->add(m_cache_repairs_);
}

bool Channel::row_reaches(ScaleCache& cache, NodeId src, NodeId dst) const {
  if (src >= cache.neighbors.size()) return false;
  ensure_row(cache, src);
  const std::vector<NodeId>& nbr = cache.neighbors[src];
  return std::binary_search(nbr.begin(), nbr.end(), dst);
}

std::pair<std::vector<NodeId>, std::vector<double>>
Channel::neighbor_row_for_test(double power_scale, NodeId src) const {
  ScaleCache& cache = scale_for(power_scale);
  if (src >= cache.neighbors.size()) return {};
  ensure_row(cache, src);
  return {cache.neighbors[src], cache.success[src]};
}

bool Channel::carrier_busy(NodeId listener) const {
  const std::size_t n = topo_.size();
  for (const auto& tx : active_) {
    if (tx->src == listener) return true;  // own transmission in flight
    if (listener < n &&
        row_reaches(scale_for(tx->pkt().power_scale), tx->src, listener)) {
      return true;
    }
  }
  return false;
}

std::shared_ptr<Channel::Active> Channel::acquire_active() {
  // Scan for a retired record the scheduler has released (the completion
  // lambda keeps a reference until it runs; such entries sit at
  // use_count() > 1 and stay in the retired list).
  for (std::size_t i = retired_active_.size(); i-- > 0;) {
    if (retired_active_[i].use_count() == 1) {
      std::shared_ptr<Active> tx = std::move(retired_active_[i]);
      retired_active_[i] = std::move(retired_active_.back());
      retired_active_.pop_back();
      return tx;
    }
  }
  return std::make_shared<Active>();
}

void Channel::corrupt_candidate(Active& tx, std::size_t candidate_index) {
  tx.corrupted[candidate_index] = true;
}

void Channel::corrupt_listener(Active& tx, NodeId id) {
  // Candidate lists are ascending, so membership is a binary search, not a
  // scan.
  const auto it =
      std::lower_bound(tx.candidates.begin(), tx.candidates.end(), id);
  if (it != tx.candidates.end() && *it == id) {
    corrupt_candidate(
        tx, static_cast<std::size_t>(it - tx.candidates.begin()));
  }
}

void Channel::begin_transmission(NodeId src, Packet pkt) {
  begin_transmission(src, pool_.adopt(std::move(pkt)));
}

void Channel::begin_transmission(NodeId src, FramePtr frame) {
  std::shared_ptr<Active> tx = acquire_active();
  tx->src = src;
  tx->start = sim_.now();
  tx->end = sim_.now() + airtime(*frame);
  tx->bulk = is_bulk_data(frame->type());
  tx->frame = std::move(frame);
  ++transmissions_;
  if (metrics_) metrics_->add(m_tx_, src);

  // Candidate receivers: every node currently listening whose radio hears
  // this source at all (interference reach, not just decode reach). The
  // decode probability rides along so delivery never re-queries the link
  // model. Enumeration is in ascending node order, and the listening
  // filter reads the SoA byte array — no Radio dereference per neighbor.
  ScaleCache& tx_cache = scale_for(tx->pkt().power_scale);
  if (src < topo_.size()) {
    ensure_row(tx_cache, src);
    const auto& neighbors = tx_cache.neighbors[src];
    const auto& success = tx_cache.success[src];
    tx->candidates.reserve(neighbors.size());
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const NodeId id = neighbors[i];
      if (id >= listening_.size() || !listening_[id]) continue;
      tx->candidates.push_back(id);
      tx->success.push_back(success[i]);
      tx->corrupted.push_back(false);
    }
  }
  tx->index = active_.size();
  active_.push_back(tx);
  if (observer_) observer_->on_transmit(src, tx->pkt(), sim_.now());

  // Cross-corruption with every transmission already in flight (all but
  // the new tail entry): a listener reached by both sources decodes
  // neither packet.
  for (std::size_t k = 0; k + 1 < active_.size(); ++k) {
    Active& other = *active_[k];
    ScaleCache& other_cache = scale_for(other.pkt().power_scale);
    const auto other_reaches = [&](NodeId at) {
      return row_reaches(other_cache, other.src, at);
    };
    const auto tx_reaches = [&](NodeId at) {
      return row_reaches(tx_cache, src, at);
    };
    for (std::size_t i = 0; i < tx->candidates.size(); ++i) {
      const NodeId r = tx->candidates[i];
      if (!tx->corrupted[i] && other_reaches(r)) {
        corrupt_candidate(*tx, i);
        ++collisions_;
        if (metrics_) metrics_->add(m_collisions_, r);
        if (observer_) observer_->on_collision(r, sim_.now());
      }
    }
    for (std::size_t i = 0; i < other.candidates.size(); ++i) {
      const NodeId r = other.candidates[i];
      if (!other.corrupted[i] && tx_reaches(r)) {
        corrupt_candidate(other, i);
        ++collisions_;
        if (metrics_) metrics_->add(m_collisions_, r);
        if (observer_) observer_->on_collision(r, sim_.now());
      }
    }
    // Concurrent bulk-sender monitor (paper: "at most one sender active in
    // any neighborhood"): two overlapping code transmissions whose sources
    // interfere with each other or share a reachable listener.
    if (tx->bulk && other.bulk) {
      const bool mutual = tx_reaches(other.src) || other_reaches(src);
      bool shared_victim = false;
      if (!mutual) {
        for (const NodeId r : tx->candidates) {
          if (other_reaches(r)) {
            shared_victim = true;
            break;
          }
        }
      }
      if (mutual || shared_victim) {
        ++bulk_overlaps_;
        if (metrics_) metrics_->add(m_bulk_overlaps_);
      }
    }
  }

  sim_.scheduler().post_at(tx->end, [this, tx] { end_transmission(tx); });
}

void Channel::radio_started_listening(NodeId id) {
  if (id >= listening_.size()) listening_.resize(id + 1, 0);
  listening_[id] = 1;
}

void Channel::radio_stopped_listening(NodeId id) {
  if (id < listening_.size()) listening_[id] = 0;
  for (const auto& tx : active_) {
    // Mid-packet loss of the listener: the packet is gone for it.
    corrupt_listener(*tx, id);
  }
}

void Channel::unlink_active(const std::shared_ptr<Active>& tx) {
  const std::size_t idx = tx->index;
  const std::size_t last = active_.size() - 1;
  if (idx != last) {
    active_[idx] = std::move(active_[last]);
    active_[idx]->index = idx;
  }
  active_.pop_back();
}

void Channel::end_transmission(const std::shared_ptr<Active>& tx) {
  unlink_active(tx);
  for (std::size_t i = 0; i < tx->candidates.size(); ++i) {
    if (tx->corrupted[i]) continue;
    const NodeId r = tx->candidates[i];
    if (r >= listening_.size() || !listening_[r]) continue;
    Radio* radio = radios_[r];
    if (!radio) continue;
    if (!rng_.bernoulli(tx->success[i])) continue;
    ++deliveries_;
    if (metrics_) metrics_->add(m_delivered_, r);
    if (observer_) observer_->on_deliver(tx->src, r, tx->pkt(), sim_.now());
    // Every receiver reads the one shared immutable frame.
    radio->deliver(tx->pkt());
  }
  if (retired_active_.size() < 64) {
    // Park the record for reuse; capacity of the candidate vectors and the
    // shared_ptr control block survive. The completion lambda still holds
    // a reference until the scheduler drops it, which acquire_active
    // detects via use_count().
    tx->frame.reset();
    tx->candidates.clear();
    tx->success.clear();
    tx->corrupted.clear();
    retired_active_.push_back(tx);
  }
}

}  // namespace mnp::net
