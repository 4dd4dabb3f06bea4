// Trip-based traffic: vehicles drive shortest-time routes to volume-
// weighted destinations and immediately start a new trip on arrival.
//
// This is the closer analogue of the paper's trace generation ("simulating
// the cars going on roads in accordance with the traffic volume data") than
// the default volume-weighted random walk; bench_ext_mobility shows that
// LIRA's advantage is robust to the mobility model choice.

#ifndef LIRA_MOBILITY_TRIP_MODEL_H_
#define LIRA_MOBILITY_TRIP_MODEL_H_

#include <cstdint>
#include <vector>

#include "lira/common/rng.h"
#include "lira/common/status.h"
#include "lira/mobility/position.h"
#include "lira/mobility/vehicle.h"
#include "lira/roadnet/road_network.h"

namespace lira {

struct TripModelConfig {
  int32_t num_vehicles = 4000;
  uint64_t seed = 11;
  VehicleDynamics dynamics;
};

/// Vehicle population on routed trips. Mirrors TrafficModel's interface so
/// Trace::Record works on either.
class TripTrafficModel {
 public:
  static StatusOr<TripTrafficModel> Create(const RoadNetwork& network,
                                           const TripModelConfig& config);

  /// Advances all vehicles; vehicles that exhausted their route get a new
  /// destination and a fresh shortest-time route.
  void Tick(double dt);

  int32_t NumVehicles() const { return fleet_.size(); }
  double CurrentTime() const { return time_; }
  PositionSample Sample(NodeId id) const { return fleet_.Sample(id, time_); }
  std::vector<PositionSample> SampleAll() const {
    return fleet_.SampleAll(time_);
  }

  /// Trips completed so far (new-route assignments past the initial one).
  int64_t trips_completed() const { return trips_completed_; }

 private:
  TripTrafficModel(const RoadNetwork& network, VehicleFleet fleet,
                   std::vector<double> destination_weights, Rng rng);

  void PlanNewTrip(int32_t vehicle);

  const RoadNetwork* network_;
  VehicleFleet fleet_;
  /// Each vehicle's route, beside the fleet.
  std::vector<RouteCursor> routes_;
  /// Per-intersection destination weight (sum of incident segment volumes).
  std::vector<double> destination_weights_;
  double destination_total_ = 0.0;
  Rng rng_;
  double time_ = 0.0;
  int64_t trips_completed_ = 0;
};

}  // namespace lira

#endif  // LIRA_MOBILITY_TRIP_MODEL_H_
