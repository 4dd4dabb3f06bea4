#include "lira/mobility/vehicle.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace lira {

VehicleFleet::VehicleFleet(const RoadNetwork& network,
                           const VehicleDynamics& dynamics)
    : network_(&network), dynamics_(dynamics) {
  geometry_.reserve(network.NumSegments());
  for (SegmentId s = 0; s < network.NumSegments(); ++s) {
    const RoadSegment& seg = network.Segment(s);
    SegmentGeometry g;
    g.from = network.IntersectionPosition(seg.from);
    g.delta = network.IntersectionPosition(seg.to) - g.from;
    g.length = seg.length;
    g.speed_limit = seg.speed_limit;
    g.forward = network.SegmentDirection(s, seg.from);
    g.backward = network.SegmentDirection(s, seg.to);
    g.from_node = seg.from;
    g.to_node = seg.to;
    geometry_.push_back(g);
  }
}

StatusOr<VehicleFleet> VehicleFleet::Place(const RoadNetwork& network,
                                           const VehicleDynamics& dynamics,
                                           int32_t num_vehicles, Rng& rng) {
  if (num_vehicles <= 0) {
    return InvalidArgumentError("num_vehicles must be positive");
  }
  if (network.NumSegments() == 0) {
    return FailedPreconditionError("network has no segments");
  }
  std::vector<double> weights(network.NumSegments());
  for (SegmentId s = 0; s < network.NumSegments(); ++s) {
    weights[s] = network.Segment(s).volume;
  }
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  VehicleFleet fleet(network, dynamics);
  fleet.Reserve(num_vehicles);
  for (int32_t i = 0; i < num_vehicles; ++i) {
    const auto seg_id =
        static_cast<SegmentId>(rng.WeightedIndex(weights, total));
    const SegmentGeometry& g = fleet.geometry_[seg_id];
    const double offset = rng.Uniform(0.0, g.length);
    const IntersectionId origin =
        rng.Bernoulli(0.5) ? g.from_node : g.to_node;
    fleet.Add(seg_id, origin, offset, rng.Fork(static_cast<uint64_t>(i)));
  }
  return fleet;
}

void VehicleFleet::Reserve(int32_t n) {
  segment_.reserve(n);
  origin_.reserve(n);
  offset_.reserve(n);
  speed_.reserve(n);
  target_speed_.reserve(n);
  rng_.reserve(n);
  position_.reserve(n);
  velocity_.reserve(n);
}

int32_t VehicleFleet::Add(SegmentId segment, IntersectionId origin,
                          double offset, Rng rng) {
  LIRA_CHECK(segment >= 0 && segment < network_->NumSegments());
  const SegmentGeometry& g = geometry_[segment];
  LIRA_CHECK(origin == g.from_node || origin == g.to_node);
  const double target = DrawTargetSpeed(rng, g.speed_limit);
  segment_.push_back(segment);
  origin_.push_back(origin);
  offset_.push_back(std::clamp(offset, 0.0, g.length));
  speed_.push_back(target);
  target_speed_.push_back(target);
  rng_.push_back(rng);
  position_.emplace_back();
  velocity_.emplace_back();
  const int32_t i = size() - 1;
  WriteKinematics(i, g, origin, offset_[i], target);
  return i;
}

std::vector<PositionSample> VehicleFleet::SampleAll(double time) const {
  std::vector<PositionSample> samples;
  samples.reserve(size());
  for (NodeId i = 0; i < size(); ++i) {
    samples.push_back(Sample(i, time));
  }
  return samples;
}

double VehicleFleet::DrawTargetSpeed(Rng& rng, double speed_limit) const {
  const double target =
      rng.Normal(dynamics_.target_mean_fraction * speed_limit,
                 dynamics_.target_sd_fraction * speed_limit);
  return std::clamp(target, dynamics_.min_fraction * speed_limit,
                    dynamics_.max_fraction * speed_limit);
}

SegmentId VehicleFleet::ChooseNextSegment(Rng& rng, SegmentId current,
                                          IntersectionId at_node,
                                          RouteCursor* route) {
  if (route != nullptr && route->Remaining() > 0) {
    const SegmentId next = route->segments[route->next];
    const SegmentGeometry& g = geometry_[next];
    if (g.from_node == at_node || g.to_node == at_node) {
      ++route->next;
      return next;
    }
    *route = {};  // stale route (shouldn't happen); random walk instead
  }
  const std::vector<SegmentId>& incident = network_->IncidentSegments(at_node);
  LIRA_CHECK(!incident.empty());
  // Prefer not to U-turn; fall back to the incoming segment at dead ends.
  turn_weights_.clear();
  turn_candidates_.clear();
  double total = 0.0;
  for (SegmentId seg_id : incident) {
    if (seg_id == current) {
      continue;
    }
    const double weight = network_->Segment(seg_id).volume;
    turn_candidates_.push_back(seg_id);
    turn_weights_.push_back(weight);
    total += weight;
  }
  if (turn_candidates_.empty()) {
    return current;  // dead end: turn around
  }
  if (total <= 0.0) {
    return turn_candidates_[rng.UniformInt(turn_candidates_.size())];
  }
  return turn_candidates_[rng.WeightedIndex(turn_weights_, total)];
}

void VehicleFleet::Advance(int32_t i, double dt, RouteCursor* route) {
  LIRA_DCHECK(dt > 0.0);
  LIRA_DCHECK(i >= 0 && i < size());
  Rng& rng = rng_[i];
  SegmentId segment = segment_[i];
  IntersectionId origin = origin_[i];
  double offset = offset_[i];
  double speed = speed_[i];
  double target = target_speed_[i];
  const SegmentGeometry* g = &geometry_[segment];

  // Speed process: mean reversion + noise, occasional re-target.
  if (rng.Bernoulli(dynamics_.retarget_rate * dt)) {
    target = DrawTargetSpeed(rng, g->speed_limit);
  }
  speed += dynamics_.reversion_rate * (target - speed) * dt +
           rng.Normal(0.0, dynamics_.speed_noise) * std::sqrt(dt);
  speed = std::clamp(speed, dynamics_.min_fraction * g->speed_limit,
                     dynamics_.max_fraction * g->speed_limit);

  double remaining = speed * dt;
  // Cross at most a bounded number of intersections per tick; with sane dt
  // this loop runs once or twice.
  for (int hop = 0; hop < 64 && remaining > 0.0; ++hop) {
    const double to_end = g->length - offset;
    if (remaining < to_end) {
      offset += remaining;
      break;
    }
    remaining -= to_end;
    const IntersectionId node = origin == g->from_node ? g->to_node
                                                       : g->from_node;
    segment = ChooseNextSegment(rng, segment, node, route);
    origin = node;
    offset = 0.0;
    g = &geometry_[segment];
    target = DrawTargetSpeed(rng, g->speed_limit);
    // Re-clamp speed for the new segment's limit.
    speed = std::clamp(speed, dynamics_.min_fraction * g->speed_limit,
                       dynamics_.max_fraction * g->speed_limit);
  }

  segment_[i] = segment;
  origin_[i] = origin;
  offset_[i] = offset;
  speed_[i] = speed;
  target_speed_[i] = target;
  WriteKinematics(i, *g, origin, offset, speed);
}

void VehicleFleet::WriteKinematics(int32_t i, const SegmentGeometry& g,
                                   IntersectionId origin, double offset,
                                   double speed) {
  // `offset` is measured from `origin`; the geometry from the `from` end.
  const bool forward = origin == g.from_node;
  const double from_offset = forward ? offset : g.length - offset;
  const double t = std::clamp(from_offset / g.length, 0.0, 1.0);
  position_[i] = g.from + g.delta * t;
  velocity_[i] = (forward ? g.forward : g.backward) * speed;
}

}  // namespace lira
