#include "obs/metrics.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace mnp::obs {

const char* unit_name(Unit unit) {
  switch (unit) {
    case Unit::kCount: return "count";
    case Unit::kMicroseconds: return "us";
    case Unit::kBytes: return "bytes";
    case Unit::kNanoampHours: return "nAh";
  }
  return "?";
}

void MetricsRegistry::set_node_count(std::size_t n) {
  // Per-node cell blocks are sized at registration; a count set afterwards
  // would send per-node adds past a block into its neighbour's cells. The
  // check aborts in every build type, not only where assert() is live.
  if (!defs_.empty()) {
    std::fprintf(stderr,
                 "MetricsRegistry::set_node_count(%zu) after %zu metric "
                 "registration(s): the node count must be set first\n",
                 n, defs_.size());
    std::abort();
  }
  node_count_ = n;
}

const MetricsRegistry::Def* MetricsRegistry::find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &defs_[it->second];
}

std::uint32_t MetricsRegistry::intern(std::string_view name, Kind kind,
                                      Unit unit, bool per_node,
                                      std::size_t cells) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    assert(defs_[it->second].kind == kind &&
           defs_[it->second].per_node == per_node &&
           "metric re-registered with a different shape");
    (void)cells;
    return it->second;
  }
  Def def;
  def.name = std::string(name);
  def.kind = kind;
  def.unit = unit;
  def.per_node = per_node;
  if (kind == Kind::kCounter) {
    def.cell = static_cast<std::uint32_t>(counter_cells_.size());
    counter_cells_.resize(counter_cells_.size() + cells, 0);
  } else if (kind == Kind::kGauge) {
    def.cell = static_cast<std::uint32_t>(gauge_cells_.size());
    gauge_cells_.resize(gauge_cells_.size() + cells, 0.0);
  } else {
    def.cell = static_cast<std::uint32_t>(hists_.size());
  }
  const std::uint32_t idx = static_cast<std::uint32_t>(defs_.size());
  defs_.push_back(std::move(def));
  index_.emplace(defs_.back().name, idx);
  return idx;
}

MetricsRegistry::Counter MetricsRegistry::register_counter(
    std::string_view name, Unit unit, bool per_node) {
  const std::size_t cells = per_node ? 1 + node_count_ : 1;
  const std::uint32_t idx =
      intern(name, Kind::kCounter, unit, per_node, cells);
  return Counter{defs_[idx].cell};
}

MetricsRegistry::Gauge MetricsRegistry::register_gauge(std::string_view name,
                                                       Unit unit,
                                                       bool per_node) {
  const std::size_t cells = per_node ? 1 + node_count_ : 1;
  const std::uint32_t idx = intern(name, Kind::kGauge, unit, per_node, cells);
  return Gauge{defs_[idx].cell};
}

MetricsRegistry::Histogram MetricsRegistry::register_histogram(
    std::string_view name, Unit unit, std::vector<double> bounds) {
  const std::uint32_t idx = intern(name, Kind::kHistogram, unit, false, 0);
  const Def& def = defs_[idx];
  if (def.cell == hists_.size()) {  // fresh registration, not a re-lookup
    Hist h;
    h.buckets.assign(bounds.size() + 1, 0);
    h.bounds = std::move(bounds);
    hists_.push_back(std::move(h));
  }
  return Histogram{def.cell};
}

void MetricsRegistry::observe(Histogram h, double v) {
  Hist& hist = hists_[h.index];
  std::size_t bucket = hist.bounds.size();
  for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
    if (v <= hist.bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++hist.buckets[bucket];
  ++hist.count;
  hist.sum += v;
}

bool MetricsRegistry::has(std::string_view name) const {
  return find(name) != nullptr;
}

std::uint64_t MetricsRegistry::counter_total(std::string_view name) const {
  const Def* d = find(name);
  return d && d->kind == Kind::kCounter ? counter_cells_[d->cell] : 0;
}

std::uint64_t MetricsRegistry::counter_node(std::string_view name,
                                            net::NodeId node) const {
  const Def* d = find(name);
  if (!d || d->kind != Kind::kCounter || !d->per_node || node >= node_count_) {
    return 0;
  }
  return counter_cells_[d->cell + 1u + node];
}

double MetricsRegistry::gauge_total(std::string_view name) const {
  const Def* d = find(name);
  if (!d || d->kind != Kind::kGauge) return 0.0;
  if (!d->per_node) return gauge_cells_[d->cell];
  double sum = 0.0;
  for (std::size_t i = 0; i < node_count_; ++i) {
    sum += gauge_cells_[d->cell + 1u + i];
  }
  return sum;
}

bool MetricsRegistry::merge_from(const MetricsRegistry& other) {
  if (other.defs_.size() != defs_.size() ||
      other.node_count_ != node_count_ ||
      other.counter_cells_.size() != counter_cells_.size() ||
      other.gauge_cells_.size() != gauge_cells_.size() ||
      other.hists_.size() != hists_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name != other.defs_[i].name ||
        defs_[i].kind != other.defs_[i].kind) {
      return false;
    }
  }
  for (std::size_t i = 0; i < counter_cells_.size(); ++i) {
    counter_cells_[i] += other.counter_cells_[i];
  }
  for (std::size_t i = 0; i < gauge_cells_.size(); ++i) {
    gauge_cells_[i] += other.gauge_cells_[i];
  }
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    if (hists_[i].buckets.size() != other.hists_[i].buckets.size()) {
      return false;
    }
    for (std::size_t b = 0; b < hists_[i].buckets.size(); ++b) {
      hists_[i].buckets[b] += other.hists_[i].buckets[b];
    }
    hists_[i].count += other.hists_[i].count;
    hists_[i].sum += other.hists_[i].sum;
  }
  return true;
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  for (const auto& [name, idx] : index_) {  // std::map: sorted by name
    const Def& d = defs_[idx];
    w.key(name);
    w.begin_object();
    w.key("unit");
    w.value(unit_name(d.unit));
    switch (d.kind) {
      case Kind::kCounter: {
        w.key("type");
        w.value("counter");
        w.key("total");
        w.value(counter_cells_[d.cell]);
        if (d.per_node) {
          w.key("per_node");
          w.begin_array();
          for (std::size_t i = 0; i < node_count_; ++i) {
            w.value(counter_cells_[d.cell + 1u + i]);
          }
          w.end_array();
        }
        break;
      }
      case Kind::kGauge: {
        w.key("type");
        w.value("gauge");
        w.key("total");
        w.value(gauge_total(name));
        if (d.per_node) {
          w.key("per_node");
          w.begin_array();
          for (std::size_t i = 0; i < node_count_; ++i) {
            w.value(gauge_cells_[d.cell + 1u + i]);
          }
          w.end_array();
        }
        break;
      }
      case Kind::kHistogram: {
        const Hist& h = hists_[d.cell];
        w.key("type");
        w.value("histogram");
        w.key("count");
        w.value(h.count);
        w.key("sum");
        w.value(h.sum);
        w.key("bounds");
        w.begin_array();
        for (const double b : h.bounds) w.value(b);
        w.end_array();
        w.key("buckets");
        w.begin_array();
        for (const std::uint64_t b : h.buckets) w.value(b);
        w.end_array();
        break;
      }
    }
    w.end_object();
  }
  w.end_object();
}

}  // namespace mnp::obs
