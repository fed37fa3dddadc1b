// Per-directed-edge noise for the empirical link model.
//
// EmpiricalLinkModel perturbs every ordered pair (src, dst) with its own
// Gaussian term. The term is a pure function of the model's seed and the
// pair:
//
//   value(src, dst) = stddev * Rng(key(seed, src, dst)).normal(0, 1)
//   key(seed, src, dst) = mix64(seed ^ mix64(src << 32 | dst))
//
// so nothing is drawn or stored per pair. Construction is O(1), a query
// costs one short Rng seeding plus one polar-method normal, and an answer
// depends on neither query order, nor node moves, nor the power scale,
// nor anything else the run draws. Links stay asymmetric: (a, b) and
// (b, a) hash to unrelated keys. The channel's per-power-scale rows are
// the only cache of these values.
#pragma once

#include <cstdint>

#include "net/packet.hpp"

namespace mnp::net {

class EdgeNoise {
 public:
  EdgeNoise(std::uint64_t seed, double stddev)
      : seed_(seed), stddev_(stddev) {}

  /// The noise on src -> dst: N(0, stddev), independent across pairs.
  double value(NodeId src, NodeId dst) const;

 private:
  std::uint64_t seed_;
  double stddev_;
};

}  // namespace mnp::net
