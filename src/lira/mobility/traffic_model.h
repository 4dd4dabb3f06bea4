// TrafficModel: a population of vehicles on a road network.
//
// Initial placement samples segments with probability proportional to their
// traffic volume (the role the paper's real traffic-volume data plays), so
// vehicle density mirrors the road hierarchy: dense in towns, sparse on the
// open grid.

#ifndef LIRA_MOBILITY_TRAFFIC_MODEL_H_
#define LIRA_MOBILITY_TRAFFIC_MODEL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "lira/common/status.h"
#include "lira/mobility/position.h"
#include "lira/mobility/vehicle.h"
#include "lira/roadnet/road_network.h"

namespace lira {

struct TrafficModelConfig {
  int32_t num_vehicles = 4000;
  uint64_t seed = 11;
  VehicleDynamics dynamics;
};

/// Owns and advances the vehicle population. The referenced network must
/// outlive the model.
class TrafficModel {
 public:
  /// Creates and places the population. Fails when the network is empty or
  /// the vehicle count is non-positive.
  static StatusOr<TrafficModel> Create(const RoadNetwork& network,
                                       const TrafficModelConfig& config);

  /// Advances every vehicle by dt seconds and the model clock accordingly.
  void Tick(double dt);

  int32_t NumVehicles() const { return fleet_.size(); }
  double CurrentTime() const { return time_; }

  /// Current kinematic state of vehicle `id`.
  PositionSample Sample(NodeId id) const { return fleet_.Sample(id, time_); }

  /// Current states of all vehicles, ordered by node id.
  std::vector<PositionSample> SampleAll() const {
    return fleet_.SampleAll(time_);
  }

 private:
  explicit TrafficModel(VehicleFleet fleet) : fleet_(std::move(fleet)) {}

  VehicleFleet fleet_;
  double time_ = 0.0;
};

}  // namespace lira

#endif  // LIRA_MOBILITY_TRAFFIC_MODEL_H_
