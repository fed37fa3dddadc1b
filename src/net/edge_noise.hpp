// Exact sparse per-directed-edge noise for the link models.
//
// EmpiricalLinkModel and ShadowingLinkModel perturb every ordered pair
// (src, dst) with its own Gaussian draw, taken in row-major order from one
// seeded stream: value(src, dst) is the (src * n + dst)-th `normal` draw.
// Keeping all n² draws costs 8 n² bytes (20 MB at 1600 nodes, 80 GB at
// 100k), yet a node's channel row only reads the few pairs within radio
// reach. EdgeNoise keeps exactly those and can still answer any other pair
// with the same bits:
//
//  * Values. Construction draws the whole n² stream in the dense order and
//    keeps, per source, the entries whose destination lies within
//    `reach_ft` — sorted by destination, sized exactly.
//  * Checkpoints. The stream's state at the start of each row is saved. A
//    pair that is not stored (a node moved closer, or a power scale above
//    1 stretched the reach) is replayed from its row's checkpoint up to
//    `dst` and memoised into the row. Replays use private copies of the
//    checkpoints, never the simulator's RNG tree, so an answer depends on
//    neither query order nor anything else the run draws.
//
// Callers answer pairs beyond their own bound before asking the store (a
// link that cannot exist needs no noise), so a static topology at power
// scale <= 1 never replays. `value` is const but memoises: a model, and
// the store inside it, belongs to one run on one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "sim/rng.hpp"

namespace mnp::net {

class EdgeNoise {
 public:
  /// Draws topo.size()² values `rng.normal(0, stddev)`, row by row, and
  /// stores those whose destination is within `reach_ft` of the source at
  /// the topology's current positions (self pairs excluded).
  EdgeNoise(const Topology& topo, double stddev, sim::Rng rng, double reach_ft);

  /// The noise on src -> dst; bit-identical to the dense matrix entry.
  /// Precondition: src != dst, both below the topology's size.
  double value(NodeId src, NodeId dst) const;

  /// Pairs answered by replaying a row from its checkpoint.
  std::uint64_t replays() const { return replays_; }
  /// Pairs held in the rows: those within reach at construction plus
  /// every memoised replay.
  std::size_t stored_edges() const { return stored_; }

  /// Largest of `count` draws `rng.normal(0, stddev)`, and 0 when all are
  /// negative (ShadowingLinkModel's reach needs it before the store exists).
  static double largest_draw(sim::Rng rng, std::size_t count, double stddev);

 private:
  struct Entry {
    NodeId dst;
    double value;
  };

  double replay(NodeId src, NodeId dst) const;

  double stddev_;
  mutable std::vector<std::vector<Entry>> rows_;  // per source, by dst
  std::vector<sim::Rng> checkpoints_;             // stream at row start
  mutable std::uint64_t replays_ = 0;
  mutable std::size_t stored_ = 0;
};

}  // namespace mnp::net
