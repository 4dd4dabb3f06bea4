#include "lira/sim/world.h"

#include <cmath>
#include <utility>
#include <vector>

#include "lira/mobility/traffic_model.h"
#include "lira/mobility/trip_model.h"

namespace lira {

namespace {

/// The tail of BuildWorld and BuildWorldFromTrace: calibrates f and measures
/// the full update rate on `trace`, then places round(query_node_ratio *
/// trace nodes) queries in `map.world`, biased by the node density of the
/// first frame.
StatusOr<World> FinishWorld(GeneratedMap map, Trace trace,
                            const WorldConfig& config) {
  auto reduction = CalibrateReduction(trace, config.calibration);
  if (!reduction.ok()) {
    return reduction.status();
  }
  auto full_rate = MeasureUpdateRate(trace, config.calibration.delta_min);
  if (!full_rate.ok()) {
    return full_rate.status();
  }
  std::vector<Point> density_positions;
  density_positions.reserve(trace.num_nodes());
  for (NodeId id = 0; id < trace.num_nodes(); ++id) {
    density_positions.push_back(trace.Position(0, id));
  }
  QueryWorkloadConfig workload;
  workload.num_queries = static_cast<int32_t>(
      std::lround(config.query_node_ratio * trace.num_nodes()));
  workload.side_length = config.query_side_length;
  workload.distribution = config.query_distribution;
  workload.seed = config.seed * 7046029254386353ULL + 5;
  auto queries = GenerateQueries(workload, map.world, density_positions);
  if (!queries.ok()) {
    return queries.status();
  }
  World world{std::move(map), std::move(trace), *std::move(queries),
              *std::move(reduction), *full_rate};
  return world;
}

}  // namespace

StatusOr<World> BuildWorld(const WorldConfig& config) {
  if (config.query_node_ratio < 0.0) {
    return InvalidArgumentError("query_node_ratio must be >= 0");
  }
  auto map = GenerateMap(config.map);
  if (!map.ok()) {
    return map.status();
  }

  StatusOr<Trace> trace = InternalError("unreachable");
  if (config.mobility == MobilityModel::kTrips) {
    TripModelConfig traffic;
    traffic.num_vehicles = config.num_nodes;
    traffic.seed = config.seed * 2654435761ULL + 1;
    auto model = TripTrafficModel::Create(map->network, traffic);
    if (!model.ok()) {
      return model.status();
    }
    trace = Trace::Record(*model, config.trace_frames, config.dt);
  } else {
    TrafficModelConfig traffic;
    traffic.num_vehicles = config.num_nodes;
    traffic.seed = config.seed * 2654435761ULL + 1;
    auto model = TrafficModel::Create(map->network, traffic);
    if (!model.ok()) {
      return model.status();
    }
    trace = Trace::Record(*model, config.trace_frames, config.dt);
  }
  if (!trace.ok()) {
    return trace.status();
  }

  return FinishWorld(*std::move(map), *std::move(trace), config);
}

StatusOr<World> BuildWorldFromTrace(Trace trace, const Rect& world_rect,
                                    const WorldConfig& config) {
  if (config.query_node_ratio < 0.0) {
    return InvalidArgumentError("query_node_ratio must be >= 0");
  }
  if (world_rect.width() <= 0.0 || world_rect.height() <= 0.0) {
    return InvalidArgumentError("world_rect must be non-degenerate");
  }
  if (trace.num_frames() < 2 || trace.num_nodes() < 1) {
    return InvalidArgumentError("trace too small");
  }
  for (NodeId id = 0; id < trace.num_nodes(); ++id) {
    const Point p = trace.Position(0, id);
    if (!(p.x >= world_rect.min_x && p.x <= world_rect.max_x &&
          p.y >= world_rect.min_y && p.y <= world_rect.max_y)) {
      return InvalidArgumentError(
          "trace positions fall outside world_rect");
    }
  }

  GeneratedMap stub_map;
  stub_map.world = world_rect;
  return FinishWorld(std::move(stub_map), std::move(trace), config);
}

}  // namespace lira
