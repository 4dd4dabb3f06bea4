#include "lira/mobility/trip_model.h"

#include <numeric>
#include <utility>

#include "lira/roadnet/shortest_path.h"

namespace lira {

TripTrafficModel::TripTrafficModel(const RoadNetwork& network,
                                   VehicleFleet fleet,
                                   std::vector<double> destination_weights,
                                   Rng rng)
    : network_(&network),
      fleet_(std::move(fleet)),
      routes_(fleet_.size()),
      destination_weights_(std::move(destination_weights)),
      destination_total_(std::accumulate(destination_weights_.begin(),
                                         destination_weights_.end(), 0.0)),
      rng_(std::move(rng)) {}

StatusOr<TripTrafficModel> TripTrafficModel::Create(
    const RoadNetwork& network, const TripModelConfig& config) {
  Rng rng(config.seed);
  auto fleet =
      VehicleFleet::Place(network, config.dynamics, config.num_vehicles, rng);
  if (!fleet.ok()) {
    return fleet.status();
  }
  // Destination attractiveness of an intersection: incident volume.
  std::vector<double> destination_weights(network.NumIntersections(), 0.0);
  for (IntersectionId node = 0; node < network.NumIntersections(); ++node) {
    for (SegmentId s : network.IncidentSegments(node)) {
      destination_weights[node] += network.Segment(s).volume;
    }
  }
  TripTrafficModel model(network, *std::move(fleet),
                         std::move(destination_weights), rng.Fork(~0ULL));
  for (int32_t i = 0; i < model.NumVehicles(); ++i) {
    model.PlanNewTrip(i);
  }
  model.trips_completed_ = 0;  // initial assignments are not "completed"
  return model;
}

void TripTrafficModel::PlanNewTrip(int32_t vehicle) {
  const IntersectionId from = fleet_.HeadingNode(vehicle);
  // Try a few destinations; a connected network makes the first one work.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const auto dest = static_cast<IntersectionId>(
        rng_.WeightedIndex(destination_weights_, destination_total_));
    if (dest == from) {
      continue;
    }
    auto route = ShortestRoute(*network_, from, dest);
    if (route.ok() && !route->segments.empty()) {
      routes_[vehicle] = {std::move(route->segments), 0};
      ++trips_completed_;
      return;
    }
  }
  // All attempts failed (disconnected or degenerate): random walk onwards.
  routes_[vehicle] = {};
  ++trips_completed_;
}

void TripTrafficModel::Tick(double dt) {
  for (int32_t i = 0; i < fleet_.size(); ++i) {
    fleet_.Advance(i, dt, &routes_[i]);
    if (routes_[i].Remaining() == 0) {
      PlanNewTrip(i);
    }
  }
  time_ += dt;
}

}  // namespace lira
