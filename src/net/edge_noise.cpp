#include "net/edge_noise.hpp"

#include "sim/rng.hpp"

namespace mnp::net {

double EdgeNoise::value(NodeId src, NodeId dst) const {
  const std::uint64_t pair = (std::uint64_t{src} << 32) | dst;
  return sim::Rng(sim::mix64(seed_ ^ sim::mix64(pair))).normal(0.0, stddev_);
}

}  // namespace mnp::net
