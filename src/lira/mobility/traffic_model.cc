#include "lira/mobility/traffic_model.h"

#include <utility>

#include "lira/common/rng.h"

namespace lira {

StatusOr<TrafficModel> TrafficModel::Create(const RoadNetwork& network,
                                            const TrafficModelConfig& config) {
  Rng rng(config.seed);
  auto fleet =
      VehicleFleet::Place(network, config.dynamics, config.num_vehicles, rng);
  if (!fleet.ok()) {
    return fleet.status();
  }
  return TrafficModel(*std::move(fleet));
}

void TrafficModel::Tick(double dt) {
  for (int32_t i = 0; i < fleet_.size(); ++i) {
    fleet_.Advance(i, dt);
  }
  time_ += dt;
}

}  // namespace lira
