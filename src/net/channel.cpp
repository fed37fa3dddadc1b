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
  listeners_.resize(topo_.size());
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

sim::Time Channel::airtime(const Packet& pkt) const {
  const double bits = static_cast<double>(pkt.wire_bytes()) * 8.0;
  return static_cast<sim::Time>(bits / params_.bitrate_bps * 1e6);
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
    } else {
      discard_caches();
    }
    ++cache_invalidations_;
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
}

std::pair<std::vector<NodeId>, std::vector<double>>
Channel::neighbor_row_for_test(double power_scale, NodeId src) const {
  ScaleCache& cache = scale_for(power_scale);
  if (src >= cache.neighbors.size()) return {};
  ensure_row(cache, src);
  return {cache.neighbors[src], cache.success[src]};
}

Channel::Heard* Channel::find_heard(NodeId at, const Active& tx) const {
  std::vector<Heard>& heard = listeners_[at].heard;
  const auto it = std::find_if(heard.begin(), heard.end(),
                               [&tx](const Heard& h) { return h.tx == &tx; });
  return it == heard.end() ? nullptr : &*it;
}

void Channel::forget_at(NodeId at, const Active& tx) const {
  Listener& l = listeners_[at];
  Heard& h = *find_heard(at, tx);
  if (h.reaches) --l.reached;
  h = l.heard.back();
  l.heard.pop_back();
}

void Channel::refresh_reach() const {
  sync_world();
  const std::uint64_t tv = topo_.version();
  const std::uint64_t lr = links_.revision();
  if (tv == reach_topo_version_ && lr == reach_links_revision_) return;
  reach_topo_version_ = tv;
  reach_links_revision_ = lr;
  // The rows changed under the transmissions in flight: their reach is
  // what their *current* rows say, as if each were asked afresh. Candidate
  // entries stay (the candidates were fixed when the packet began).
  for (const auto& tx : active_) {
    for (const NodeId d : tx->reach) {
      Heard& h = *find_heard(d, *tx);
      if (h.candidate == kNotCandidate) {
        forget_at(d, *tx);
      } else {
        h.reaches = false;
        --listeners_[d].reached;
      }
    }
    ScaleCache& cache = scale_for(tx->pkt().power_scale);
    tx->reach.clear();
    if (tx->src < cache.neighbors.size()) {
      ensure_row(cache, tx->src);
      tx->reach = cache.neighbors[tx->src];
    }
    for (const NodeId d : tx->reach) {
      if (Heard* h = find_heard(d, *tx)) {
        h->reaches = true;
      } else {
        listeners_[d].heard.push_back({tx.get(), kNotCandidate, true});
      }
      ++listeners_[d].reached;
    }
  }
}

bool Channel::carrier_busy(NodeId listener) const {
  if (active_.empty()) return false;
  refresh_reach();
  if (listener >= listeners_.size()) return false;
  const Listener& l = listeners_[listener];
  return l.own != nullptr || l.reached != 0;
}

std::unique_ptr<Channel::Active> Channel::acquire_active() {
  if (retired_active_.empty()) return std::make_unique<Active>();
  std::unique_ptr<Active> tx = std::move(retired_active_.back());
  retired_active_.pop_back();
  return tx;
}

void Channel::begin_transmission(NodeId src, Packet pkt) {
  begin_transmission(src, pool_.adopt(std::move(pkt)));
}

void Channel::begin_transmission(NodeId src, FramePtr frame) {
  refresh_reach();
  std::unique_ptr<Active> tx = acquire_active();
  Active* const self = tx.get();
  self->src = src;
  self->start = sim_.now();
  self->end = sim_.now() + airtime(*frame);
  self->bulk = is_bulk_data(frame->type());
  self->frame = std::move(frame);
  ++transmissions_;

  // Candidate receivers: every node currently listening whose radio hears
  // this source at all (interference reach, not just decode reach). The
  // decode probability rides along so delivery never re-queries the link
  // model. Enumeration is in ascending node order, and the listening
  // filter reads the SoA byte array — no Radio dereference per neighbor.
  // The same pass indexes the transmission at every node it reaches, and
  // notes whether any of them already hears another transmission.
  bool contested = false;
  ScaleCache& tx_cache = scale_for(self->pkt().power_scale);
  if (src < topo_.size()) {
    ensure_row(tx_cache, src);
    const auto& neighbors = tx_cache.neighbors[src];
    const auto& success = tx_cache.success[src];
    self->reach = neighbors;
    self->candidates.reserve(neighbors.size());
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const NodeId id = neighbors[i];
      std::uint32_t candidate = kNotCandidate;
      if (id < listening_.size() && listening_[id]) {
        candidate = static_cast<std::uint32_t>(self->candidates.size());
        self->candidates.push_back(id);
        self->success.push_back(success[i]);
        self->corrupted.push_back(false);
      }
      Listener& l = listeners_[id];
      contested = contested || !l.heard.empty();
      l.heard.push_back({self, candidate, true});
      ++l.reached;
    }
  }
  if (src >= listeners_.size()) listeners_.resize(src + 1);
  self->next_own = listeners_[src].own;
  listeners_[src].own = self;
  self->index = active_.size();
  active_.push_back(std::move(tx));
  if (observer_) observer_->on_transmit(src, self->pkt(), sim_.now());

  // Cross-corruption with the transmissions already in flight: a listener
  // reached by two sources decodes neither packet. A candidate of the new
  // transmission is lost to the oldest other transmission reaching it;
  // every uncorrupted candidate of another transmission that the new one
  // reaches is lost too. Both need a node the new transmission reaches to
  // hear another one.
  collision_scratch_.clear();
  for (std::size_t i = 0; contested && i < self->candidates.size(); ++i) {
    if (self->corrupted[i]) continue;
    const NodeId r = self->candidates[i];
    std::size_t oldest = active_.size();
    for (const Heard& h : listeners_[r].heard) {
      if (h.reaches && h.tx != self) oldest = std::min(oldest, h.tx->index);
    }
    if (oldest == active_.size()) continue;
    self->corrupted[i] = true;
    collision_scratch_.push_back({oldest, 0, static_cast<std::uint32_t>(i), r});
  }
  for (std::size_t i = 0; contested && i < self->reach.size(); ++i) {
    const NodeId r = self->reach[i];
    for (const Heard& h : listeners_[r].heard) {
      if (h.tx == self || h.candidate == kNotCandidate ||
          h.tx->corrupted[h.candidate]) {
        continue;
      }
      h.tx->corrupted[h.candidate] = true;
      collision_scratch_.push_back({h.tx->index, 1, h.candidate, r});
    }
  }
  std::sort(collision_scratch_.begin(), collision_scratch_.end());
  for (const Collision& c : collision_scratch_) {
    ++collisions_;
    if (observer_) observer_->on_collision(c.victim, sim_.now());
  }

  // Concurrent bulk-sender monitor (paper: "at most one sender active in
  // any neighborhood"): each overlapping code transmission whose source
  // interferes with the new source (either way) or reaches one of its
  // listeners counts once.
  if (self->bulk && active_.size() > 1) {
    const std::uint64_t stamp = ++visit_stamp_;
    const auto count_reaching = [&](NodeId at) {
      for (const Heard& h : listeners_[at].heard) {
        if (!h.reaches || h.tx == self || !h.tx->bulk || h.tx->visit == stamp) {
          continue;
        }
        h.tx->visit = stamp;
        ++bulk_overlaps_;
      }
    };
    count_reaching(src);
    for (const NodeId d : self->reach) {
      for (Active* other = listeners_[d].own; other; other = other->next_own) {
        if (!other->bulk || other->visit == stamp) continue;
        other->visit = stamp;
        ++bulk_overlaps_;
      }
    }
    for (const NodeId r : self->candidates) count_reaching(r);
  }

  // Two trivially copyable pointers fit std::function's inline buffer, so
  // posting the end of airtime allocates nothing; active_ owns the record.
  sim_.scheduler().post_at(self->end, [this, self] { end_transmission(*self); });
}

void Channel::radio_started_listening(NodeId id) {
  if (id >= listening_.size()) listening_.resize(id + 1, 0);
  listening_[id] = 1;
}

void Channel::radio_stopped_listening(NodeId id) {
  if (id < listening_.size()) listening_[id] = 0;
  if (id >= listeners_.size()) return;
  // Mid-packet loss of the listener: every packet in flight to it is gone.
  for (const Heard& h : listeners_[id].heard) {
    if (h.candidate != kNotCandidate) h.tx->corrupted[h.candidate] = true;
  }
}

std::unique_ptr<Channel::Active> Channel::unlink_active(Active& tx) {
  Active* const self = &tx;
  Active** link = &listeners_[self->src].own;
  while (*link != self) link = &(*link)->next_own;
  *link = self->next_own;
  self->next_own = nullptr;
  // Entries live at reach ∪ candidates; both are ascending, so one merge
  // visits each node once.
  const std::vector<NodeId>& reach = self->reach;
  const std::vector<NodeId>& cands = self->candidates;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < reach.size() || j < cands.size()) {
    NodeId at;
    if (j == cands.size() || (i < reach.size() && reach[i] < cands[j])) {
      at = reach[i++];
    } else {
      at = cands[j++];
      if (i < reach.size() && reach[i] == at) ++i;
    }
    forget_at(at, *self);
  }
  self->reach.clear();
  const std::size_t idx = self->index;
  const std::size_t last = active_.size() - 1;
  std::unique_ptr<Active> owned = std::move(active_[idx]);
  if (idx != last) {
    active_[idx] = std::move(active_[last]);
    active_[idx]->index = idx;
  }
  active_.pop_back();
  return owned;
}

void Channel::end_transmission(Active& ending) {
  std::unique_ptr<Active> tx = unlink_active(ending);
  for (std::size_t i = 0; i < tx->candidates.size(); ++i) {
    if (tx->corrupted[i]) continue;
    const NodeId r = tx->candidates[i];
    if (r >= listening_.size() || !listening_[r]) continue;
    Radio* radio = radios_[r];
    if (!radio) continue;
    if (!rng_.bernoulli(tx->success[i])) continue;
    ++deliveries_;
    if (observer_) observer_->on_deliver(tx->src, r, tx->pkt(), sim_.now());
    // Every receiver reads the one shared immutable frame.
    radio->deliver(tx->pkt());
  }
  if (retired_active_.size() < 64) {
    // Park the record for reuse with the capacity of its candidate
    // vectors; nothing else refers to it once this returns.
    tx->frame.reset();
    tx->candidates.clear();
    tx->success.clear();
    tx->corrupted.clear();
    retired_active_.push_back(std::move(tx));
  }
}

}  // namespace mnp::net
