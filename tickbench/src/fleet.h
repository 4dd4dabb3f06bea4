// Seeded synthetic fleet for the metro-1m and serve-100k workloads: 70% of
// the nodes clustered around 40 hotspots over a 30% uniform background,
// moving at 5-20 m/s with per-tick velocity noise and reflecting at the
// world edge. The noise is tuned so that about 18% of the nodes report per
// tick to a dead-reckoning encoder at delta_min = 5 m. State is O(n)
// (position, velocity and preferred velocity columns); there is no recorded
// trace, so the 1M tier fits in memory.
//
// Motion is a pure function of (seed, node id, tick): each node's velocity
// kick comes from a counter-based hash, so Step over any chunking of the id
// range -- serial or on a pool -- produces the same bits.

#ifndef TICKBENCH_FLEET_H_
#define TICKBENCH_FLEET_H_

#include <cstdint>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/parallel.h"
#include "lira/common/status.h"
#include "lira/cq/query_registry.h"
#include "lira/mobility/position.h"

namespace tickbench {

struct FleetConfig {
  int32_t num_nodes = 1000000;
  /// Side of the square world [0, side)^2, meters. The hotspot spread
  /// scales with it, so density stays constant across sizes.
  double world_side = 100000.0;
  /// Draws the population, its motion and (through HotspotQueries) the
  /// queries. The hotspot layout is fixed, so every seed loads the same
  /// city plan with a different fleet.
  uint64_t seed = 1;
};

class SyntheticFleet {
 public:
  static lira::StatusOr<SyntheticFleet> Create(const FleetConfig& config);

  /// Advances every node by one tick of dt seconds (pool may be null).
  void Step(double dt, lira::ThreadPool* pool);

  /// The motion-model interface Trace::Record expects, so a small fleet can
  /// be recorded and fed to CalibrateReduction.
  void Tick(double dt) { Step(dt, nullptr); }
  int32_t NumVehicles() const { return config_.num_nodes; }
  lira::PositionSample Sample(lira::NodeId id) const;

  const lira::Rect& world() const { return world_; }
  double time() const { return time_; }
  const std::vector<lira::Point>& hotspot_centers() const { return centers_; }
  const std::vector<double>& hotspot_weights() const { return weights_; }
  double hotspot_sigma() const;

  const double* x() const { return x_.data(); }
  const double* y() const { return y_.data(); }
  const double* vx() const { return vx_.data(); }
  const double* vy() const { return vy_.data(); }

 private:
  explicit SyntheticFleet(const FleetConfig& config);
  void StepRange(int64_t begin, int64_t end, double dt);

  FleetConfig config_;
  lira::Rect world_;
  std::vector<lira::Point> centers_;
  std::vector<double> weights_;
  std::vector<double> x_, y_, vx_, vy_;
  /// Preferred velocity each node relaxes toward (flipped on reflection).
  std::vector<double> pref_vx_, pref_vy_;
  int64_t tick_ = 0;
  double time_ = 0.0;
};

/// `count` square range queries, each centered at a weighted-random hotspot
/// with the fleet's hotspot spread, side ~ U[side/2, side], and clamped
/// inside the world.
lira::QueryRegistry HotspotQueries(const SyntheticFleet& fleet, int32_t count,
                                   double side, uint64_t seed);

}  // namespace tickbench

#endif  // TICKBENCH_FLEET_H_
