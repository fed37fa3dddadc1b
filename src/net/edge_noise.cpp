#include "net/edge_noise.hpp"

#include <algorithm>

namespace mnp::net {

EdgeNoise::EdgeNoise(const Topology& topo, double stddev, sim::Rng rng,
                     double reach_ft)
    : stddev_(stddev), rows_(topo.size()) {
  const std::size_t n = topo.size();
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = topo.position(static_cast<NodeId>(i)).x;
    ys[i] = topo.position(static_cast<NodeId>(i)).y;
  }
  // Squared distances, so the n² pass adds no sqrt. The relative slack
  // keeps every pair a caller's own bound test (sqrt, division, pow) can
  // put inside the reach, whatever the rounding; an extra pair only costs
  // one entry.
  const double reach = reach_ft * (1.0 + 1e-6);
  const double reach2 = reach * reach;
  checkpoints_.reserve(n);
  std::vector<Entry> row;
  for (std::size_t src = 0; src < n; ++src) {
    checkpoints_.push_back(rng);
    row.clear();
    for (std::size_t dst = 0; dst < n; ++dst) {
      const double v = rng.normal(0.0, stddev_);
      const double dx = xs[dst] - xs[src];
      const double dy = ys[dst] - ys[src];
      if (dx * dx + dy * dy <= reach2 && dst != src) {
        row.push_back({static_cast<NodeId>(dst), v});
      }
    }
    rows_[src].assign(row.begin(), row.end());
    stored_ += row.size();
  }
}

double EdgeNoise::value(NodeId src, NodeId dst) const {
  std::vector<Entry>& row = rows_[src];
  const auto it = std::lower_bound(
      row.begin(), row.end(), dst,
      [](const Entry& e, NodeId d) { return e.dst < d; });
  if (it != row.end() && it->dst == dst) return it->value;
  const double v = replay(src, dst);
  row.insert(it, {dst, v});
  ++stored_;
  return v;
}

double EdgeNoise::replay(NodeId src, NodeId dst) const {
  sim::Rng rng = checkpoints_[src];
  double v = 0.0;
  for (std::size_t i = 0; i <= dst; ++i) v = rng.normal(0.0, stddev_);
  ++replays_;
  return v;
}

double EdgeNoise::largest_draw(sim::Rng rng, std::size_t count, double stddev) {
  double largest = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    largest = std::max(largest, rng.normal(0.0, stddev));
  }
  return largest;
}

}  // namespace mnp::net
