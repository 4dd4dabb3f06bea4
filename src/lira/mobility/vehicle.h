// The vehicle fleet: every vehicle on the road network, advanced by one
// motion law.
//
// Vehicles perform a volume-weighted random walk: at each intersection the
// next segment is chosen with probability proportional to its traffic
// volume (U-turns only at dead ends). Speed follows a mean-reverting noisy
// process around a per-segment target, so true motion deviates smoothly from
// any linear prediction -- the deviation process dead reckoning reacts to.
// A routed vehicle (the trip model's) follows its route instead of turning
// at random until the route drains.
//
// The fleet stores its vehicles as columns indexed by vehicle, and the road
// geometry the step reads as one table entry per segment. Each step also
// writes the vehicle's position and velocity, so reading a sample is a
// load, not a geometry computation.

#ifndef LIRA_MOBILITY_VEHICLE_H_
#define LIRA_MOBILITY_VEHICLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lira/common/check.h"
#include "lira/common/geometry.h"
#include "lira/common/rng.h"
#include "lira/common/status.h"
#include "lira/mobility/position.h"
#include "lira/roadnet/road_network.h"

namespace lira {

/// Tuning knobs of the vehicle speed process.
struct VehicleDynamics {
  /// Target speed is drawn as N(mean_fraction, sd_fraction) * speed_limit.
  double target_mean_fraction = 0.85;
  double target_sd_fraction = 0.12;
  /// Mean-reversion rate towards the target speed (1/s).
  double reversion_rate = 0.25;
  /// Per-sqrt-second speed noise, m/s.
  double speed_noise = 0.6;
  /// Probability per second of re-drawing the target speed (traffic events).
  double retarget_rate = 0.02;
  /// Lower bound on speed as a fraction of the limit.
  double min_fraction = 0.15;
  /// Upper bound on speed as a fraction of the limit.
  double max_fraction = 1.05;
};

/// A routed vehicle's path: at each intersection it reaches, the vehicle
/// takes segments[next] and the cursor moves on. An empty vector allocates
/// nothing.
struct RouteCursor {
  std::vector<SegmentId> segments;
  size_t next = 0;

  /// Segments still to take.
  size_t Remaining() const { return segments.size() - next; }
};

/// The vehicle population of one traffic model, stored as per-vehicle
/// columns. The referenced network must outlive the fleet.
class VehicleFleet {
 public:
  /// An empty fleet on `network`; builds the per-segment geometry table.
  VehicleFleet(const RoadNetwork& network, const VehicleDynamics& dynamics);

  /// Places `num_vehicles` vehicles: each on a segment drawn with
  /// probability proportional to its traffic volume, at a uniform offset,
  /// facing a random end, with its own stream forked from `rng`. Fails when
  /// the count is non-positive or the network has no segments.
  static StatusOr<VehicleFleet> Place(const RoadNetwork& network,
                                      const VehicleDynamics& dynamics,
                                      int32_t num_vehicles, Rng& rng);

  /// Adds a vehicle on `segment`, `offset` meters from the `origin`
  /// endpoint, driving on `rng`, from which its target speed is drawn
  /// first. Returns its index.
  int32_t Add(SegmentId segment, IntersectionId origin, double offset,
              Rng rng);

  /// Advances vehicle `i` by dt seconds, crossing intersections as needed.
  /// With a `route`, the vehicle takes its queued segments at the
  /// intersections it reaches; when the route drains, or its next segment
  /// does not touch the intersection reached (the route is then cleared),
  /// the vehicle turns at random.
  void Advance(int32_t i, double dt, RouteCursor* route = nullptr);

  int32_t size() const { return static_cast<int32_t>(segment_.size()); }

  /// Kinematic state of vehicle `i` at model time `time`.
  PositionSample Sample(NodeId i, double time) const {
    LIRA_DCHECK(i >= 0 && i < size());
    return {i, time, position_[i], velocity_[i]};
  }
  /// Every vehicle's state at model time `time`, ordered by index.
  std::vector<PositionSample> SampleAll(double time) const;

  Point position(int32_t i) const { return position_[i]; }
  Vec2 velocity(int32_t i) const { return velocity_[i]; }
  double speed(int32_t i) const { return speed_[i]; }
  SegmentId segment(int32_t i) const { return segment_[i]; }

  /// The intersection vehicle `i` is driving towards.
  IntersectionId HeadingNode(int32_t i) const {
    const SegmentGeometry& g = geometry_[segment_[i]];
    return origin_[i] == g.from_node ? g.to_node : g.from_node;
  }

 private:
  /// What the motion step reads of one road segment.
  struct SegmentGeometry {
    Point from;  ///< position of the `from` intersection
    Vec2 delta;  ///< to - from
    double length = 0.0;
    double speed_limit = 0.0;
    /// Unit direction of travel when entered from `from` / from `to`, each
    /// RoadNetwork::SegmentDirection's: normalized from its own difference
    /// vector. Negating `forward` would turn a +0.0 component of an
    /// axis-parallel road into -0.0 and change the trace's bytes.
    Vec2 forward;
    Vec2 backward;
    IntersectionId from_node = kInvalidIntersection;
    IntersectionId to_node = kInvalidIntersection;
  };

  void Reserve(int32_t n);
  double DrawTargetSpeed(Rng& rng, double speed_limit) const;
  SegmentId ChooseNextSegment(Rng& rng, SegmentId current,
                              IntersectionId at_node, RouteCursor* route);
  /// Writes vehicle `i`'s position and velocity from its segment state.
  void WriteKinematics(int32_t i, const SegmentGeometry& g,
                       IntersectionId origin, double offset, double speed);

  const RoadNetwork* network_;
  VehicleDynamics dynamics_;
  std::vector<SegmentGeometry> geometry_;  ///< indexed by SegmentId

  std::vector<SegmentId> segment_;
  /// The endpoint each vehicle entered its segment from.
  std::vector<IntersectionId> origin_;
  /// Meters travelled from origin_ along segment_.
  std::vector<double> offset_;
  std::vector<double> speed_;
  std::vector<double> target_speed_;
  std::vector<Rng> rng_;
  std::vector<Point> position_;
  std::vector<Vec2> velocity_;

  /// Turn-choice scratch, reused across steps.
  std::vector<double> turn_weights_;
  std::vector<SegmentId> turn_candidates_;
};

}  // namespace lira

#endif  // LIRA_MOBILITY_VEHICLE_H_
