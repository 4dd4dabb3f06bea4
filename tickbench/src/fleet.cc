#include "fleet.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "lira/common/rng.h"

namespace tickbench {
namespace {

using lira::NodeId;
using lira::Point;
using lira::Rect;

constexpr int32_t kHotspots = 40;
constexpr uint64_t kLayoutSeed = 0x5eed;
constexpr double kBackgroundFraction = 0.3;
/// Standard deviation of a hotspot's node cloud, as a share of the side.
constexpr double kHotspotSigmaShare = 0.02;
/// Preferred speeds are uniform in [kMinSpeed, kMaxSpeed], m/s.
constexpr double kMinSpeed = 5.0;
constexpr double kMaxSpeed = 20.0;
/// Per-tick velocity kick, uniform in [-kSpeedNoise, kSpeedNoise] m/s per
/// axis, and the per-tick pull back toward the preferred velocity.
constexpr double kSpeedNoise = 1.3;
constexpr double kPull = 0.1;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform in [-1, 1) from the top 53 bits.
double Signed01(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
}

/// Reflects a coordinate into [0, side), flipping the velocity components
/// when it bounces.
void Reflect(double side, double* pos, double* vel, double* pref) {
  if (*pos < 0.0) {
    *pos = -*pos;
    *vel = -*vel;
    *pref = -*pref;
  } else if (*pos >= side) {
    *pos = 2.0 * side - *pos;
    *vel = -*vel;
    *pref = -*pref;
  }
  // A bounce from far outside (or landing exactly on the edge) still has to
  // end inside the half-open world.
  *pos = std::clamp(*pos, 0.0, std::nextafter(side, 0.0));
}

Point HotspotPoint(lira::Rng& rng, const std::vector<Point>& centers,
                   const std::vector<double>& weights, double sigma) {
  const Point& c = centers[rng.WeightedIndex(weights)];
  return {rng.Normal(c.x, sigma), rng.Normal(c.y, sigma)};
}

}  // namespace

SyntheticFleet::SyntheticFleet(const FleetConfig& config)
    : config_(config),
      world_{0.0, 0.0, config.world_side, config.world_side},
      x_(config.num_nodes),
      y_(config.num_nodes),
      vx_(config.num_nodes),
      vy_(config.num_nodes),
      pref_vx_(config.num_nodes),
      pref_vy_(config.num_nodes) {}

lira::StatusOr<SyntheticFleet> SyntheticFleet::Create(
    const FleetConfig& config) {
  if (config.num_nodes < 1 || !std::isfinite(config.world_side) ||
      !(config.world_side > 0.0)) {
    return lira::InvalidArgumentError("invalid fleet config");
  }
  SyntheticFleet fleet(config);
  const double side = config.world_side;
  lira::Rng layout(kLayoutSeed);
  for (int32_t h = 0; h < kHotspots; ++h) {
    fleet.centers_.push_back(
        {layout.Uniform(0.1 * side, 0.9 * side),
         layout.Uniform(0.1 * side, 0.9 * side)});
    fleet.weights_.push_back(layout.Uniform(0.5, 2.0));
  }
  lira::Rng rng(config.seed);
  for (int32_t id = 0; id < config.num_nodes; ++id) {
    Point p = rng.Bernoulli(kBackgroundFraction)
                  ? Point{rng.Uniform(0.0, side), rng.Uniform(0.0, side)}
                  : HotspotPoint(rng, fleet.centers_, fleet.weights_,
                                 fleet.hotspot_sigma());
    const double speed = rng.Uniform(kMinSpeed, kMaxSpeed);
    const double heading = rng.Uniform(0.0, 2.0 * std::numbers::pi);
    double vx = speed * std::cos(heading);
    double vy = speed * std::sin(heading);
    double pvx = vx;
    double pvy = vy;
    Reflect(side, &p.x, &vx, &pvx);
    Reflect(side, &p.y, &vy, &pvy);
    fleet.x_[id] = p.x;
    fleet.y_[id] = p.y;
    fleet.vx_[id] = vx;
    fleet.vy_[id] = vy;
    fleet.pref_vx_[id] = pvx;
    fleet.pref_vy_[id] = pvy;
  }
  return fleet;
}

void SyntheticFleet::StepRange(int64_t begin, int64_t end, double dt) {
  const double side = config_.world_side;
  const uint64_t stream =
      SplitMix64(config_.seed ^ (static_cast<uint64_t>(tick_) << 32));
  for (int64_t id = begin; id < end; ++id) {
    const uint64_t a = SplitMix64(stream + 2 * static_cast<uint64_t>(id));
    const uint64_t b = SplitMix64(stream + 2 * static_cast<uint64_t>(id) + 1);
    double vx =
        vx_[id] + kPull * (pref_vx_[id] - vx_[id]) + kSpeedNoise * Signed01(a);
    double vy =
        vy_[id] + kPull * (pref_vy_[id] - vy_[id]) + kSpeedNoise * Signed01(b);
    double px = x_[id] + vx * dt;
    double py = y_[id] + vy * dt;
    Reflect(side, &px, &vx, &pref_vx_[id]);
    Reflect(side, &py, &vy, &pref_vy_[id]);
    x_[id] = px;
    y_[id] = py;
    vx_[id] = vx;
    vy_[id] = vy;
  }
}

void SyntheticFleet::Step(double dt, lira::ThreadPool* pool) {
  const int64_t n = config_.num_nodes;
  if (pool == nullptr) {
    StepRange(0, n, dt);
  } else {
    pool->ParallelFor(0, n, 4096,
                      [&](int32_t /*chunk*/, int64_t begin, int64_t end) {
                        StepRange(begin, end, dt);
                      });
  }
  ++tick_;
  time_ += dt;
}

double SyntheticFleet::hotspot_sigma() const {
  return kHotspotSigmaShare * config_.world_side;
}

lira::PositionSample SyntheticFleet::Sample(NodeId id) const {
  lira::PositionSample sample;
  sample.node_id = id;
  sample.time = time_;
  sample.position = {x_[id], y_[id]};
  sample.velocity = {vx_[id], vy_[id]};
  return sample;
}

lira::QueryRegistry HotspotQueries(const SyntheticFleet& fleet, int32_t count,
                                   double side, uint64_t seed) {
  lira::QueryRegistry queries;
  lira::Rng rng(seed);
  const Rect& world = fleet.world();
  for (int32_t q = 0; q < count; ++q) {
    const double s = rng.Uniform(side / 2.0, side);
    const Point c = HotspotPoint(rng, fleet.hotspot_centers(),
                                 fleet.hotspot_weights(),
                                 fleet.hotspot_sigma());
    const double x0 = std::clamp(c.x - s / 2.0, world.min_x, world.max_x - s);
    const double y0 = std::clamp(c.y - s / 2.0, world.min_y, world.max_y - s);
    queries.Add(Rect{x0, y0, x0 + s, y0 + s});
  }
  return queries;
}

}  // namespace tickbench
