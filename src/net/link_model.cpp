#include "net/link_model.hpp"

#include <algorithm>
#include <cmath>

namespace mnp::net {

DiskLinkModel::DiskLinkModel(const Topology& topo, double range_ft,
                             double interference_factor)
    : topo_(topo), range_(range_ft), interference_factor_(interference_factor) {}

double DiskLinkModel::packet_success(NodeId src, NodeId dst,
                                     double power_scale) const {
  if (src == dst) return 0.0;
  return topo_.node_distance(src, dst) <= range_ * power_scale ? 1.0 : 0.0;
}

bool DiskLinkModel::interferes(NodeId src, NodeId dst, double power_scale) const {
  if (src == dst) return false;
  return topo_.node_distance(src, dst) <=
         range_ * interference_factor_ * power_scale;
}

EmpiricalLinkModel::EmpiricalLinkModel(const Topology& topo, Params params,
                                       sim::Rng rng)
    : topo_(topo),
      params_(params),
      n_(topo.size()),
      // Each directed edge gets its own perturbation: links are asymmetric,
      // exactly as in TOSSIM's empirically derived graphs. Only a pair
      // inside the gray area's end at full power can decode.
      noise_(topo, params.edge_noise_stddev, std::move(rng),
             params.range_ft * params.gray_end) {}

double EmpiricalLinkModel::base_success(double u, const Params& params) {
  // u = distance / effective_range.
  //  - inside gray_start: near-perfect (0.98; real radios are never 1.0)
  //  - gray area: smooth quadratic fall-off to 0 at gray_end
  //  - beyond gray_end: 0
  if (u <= params.gray_start) return 0.98;
  if (u >= params.gray_end) return 0.0;
  const double t = (u - params.gray_start) / (params.gray_end - params.gray_start);
  return 0.98 * (1.0 - t) * (1.0 - t);
}

double EmpiricalLinkModel::packet_success(NodeId src, NodeId dst,
                                          double power_scale) const {
  if (src == dst || src >= n_ || dst >= n_) return 0.0;
  const double effective_range = params_.range_ft * power_scale;
  if (effective_range <= 0.0) return 0.0;
  const double u = topo_.node_distance(src, dst) / effective_range;
  const double base = base_success(u, params_);
  // Beyond the gray area: answered before the noise store is asked.
  if (base <= 0.0) return 0.0;
  return std::clamp(base + noise_.value(src, dst), 0.0, 1.0);
}

bool EmpiricalLinkModel::interferes(NodeId src, NodeId dst,
                                    double power_scale) const {
  if (src == dst || src >= n_ || dst >= n_) return false;
  return topo_.node_distance(src, dst) <=
         params_.range_ft * params_.interference_factor * power_scale;
}

namespace {

// Early answers treat a pair as out of reach only past its bound by this
// relative margin, so rounding in the bound can never flip an answer (the
// store keeps a wider margin still).
constexpr double kBoundSlack = 1.0 + 1e-9;

}  // namespace

ShadowingLinkModel::ShadowingLinkModel(const Topology& topo, Params params,
                                       sim::Rng rng)
    : topo_(topo),
      params_(params),
      n_(topo.size()),
      max_shadow_db_(EdgeNoise::largest_draw(rng, n_ * n_,
                                             params.shadowing_stddev_db)),
      interference_reach_(unit_reach(params.interference_margin_db)),
      // packet_success clips p < 0.01, i.e. margin < -width * ln(99).
      decode_reach_(unit_reach(params.transition_width_db * std::log(99.0))),
      noise_(topo, params.shadowing_stddev_db, std::move(rng),
             interference_reach_) {}

double ShadowingLinkModel::unit_reach(double margin_below_db) const {
  // margin_db(d, 1) + shadow <= 10 n log10(R / d) + max_shadow_db_, which
  // is <= -margin_below_db once d >= R * 10^((margin + max) / (10 n)).
  return params_.range_ft *
         std::pow(10.0, (margin_below_db + max_shadow_db_) /
                            (10.0 * params_.path_loss_exponent));
}

double ShadowingLinkModel::max_interference_range(double power_scale) const {
  if (power_scale <= 0.0) return 0.0;
  // interferes() needs margin_db(d) + shadow > -interference_margin_db;
  // with shadow <= max_shadow_db_ that bounds d by
  // R * ps * 10^((interference_margin + max_shadow) / (10 n)).
  return params_.range_ft * power_scale *
         std::pow(10.0, (params_.interference_margin_db + max_shadow_db_) /
                            (10.0 * params_.path_loss_exponent));
}

double ShadowingLinkModel::margin_db(double distance_ft,
                                     double power_scale) const {
  if (distance_ft <= 0.0) distance_ft = 0.1;
  if (power_scale <= 0.0) return -1e9;
  // Power scaling moves the 0 dB distance proportionally: margin =
  // 10 * n * log10(range * power_scale / d).
  const double effective_range = params_.range_ft * power_scale;
  return 10.0 * params_.path_loss_exponent *
         std::log10(effective_range / distance_ft);
}

double ShadowingLinkModel::packet_success(NodeId src, NodeId dst,
                                          double power_scale) const {
  if (src == dst || src >= n_ || dst >= n_) return 0.0;
  const double d = topo_.node_distance(src, dst);
  if (d > decode_reach_ * power_scale * kBoundSlack) return 0.0;
  const double margin = margin_db(d, power_scale) + noise_.value(src, dst);
  // Logistic transition around 0 dB margin.
  const double z = margin / params_.transition_width_db;
  const double p = 1.0 / (1.0 + std::exp(-z));
  // Clamp the far tail to a hard zero so candidate sets stay bounded.
  return p < 0.01 ? 0.0 : std::min(p, 0.99);
}

bool ShadowingLinkModel::interferes(NodeId src, NodeId dst,
                                    double power_scale) const {
  if (src == dst || src >= n_ || dst >= n_) return false;
  const double d = topo_.node_distance(src, dst);
  // The spatial grid asks about the corners of its cell rectangle too;
  // this keeps those queries off the store.
  if (d > interference_reach_ * power_scale * kBoundSlack) return false;
  const double margin = margin_db(d, power_scale) + noise_.value(src, dst);
  return margin > -params_.interference_margin_db;
}

}  // namespace mnp::net
