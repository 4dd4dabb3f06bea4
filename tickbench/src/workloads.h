// The benchmark's workloads. Each episode reproduces RunSimulation's frame
// loop (lira/sim/simulation.cc) from outside the library: node-side motion
// and encoding, ServerPipeline::ReceiveBatch + Tick, the CQ refresh or the
// AnswerQuery slice, and plan encoding for the base stations after every new
// plan -- timing each public call into a layer.
//
//   city   DefaultWorldConfig(n) road-map world, a single CqServer on one
//          thread, LIRA at fixed z, every CQ answer refreshed every tick.
//   fleet  A SyntheticFleet on a ServerCluster (metro: THROTLOOP, 1M nodes,
//          no CQ evaluation; serve: fixed z, TPR index, AnswerQuery slice).

#ifndef TICKBENCH_WORKLOADS_H_
#define TICKBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "fleet.h"
#include "ledger.h"
#include "lira/core/shedding_plan.h"
#include "lira/sim/metrics.h"
#include "lira/sim/simulation.h"
#include "lira/sim/world.h"

namespace tickbench {

struct CitySpec {
  lira::WorldConfig world;
  /// The SimulationConfig RunSimulation would be given; the fields the
  /// city loop reads are z, queue_capacity, adaptation_period, alpha,
  /// warmup_frames, sample_every, index_cells, incremental, threads and
  /// seed (shards = 0, no telemetry hooks of its own).
  lira::SimulationConfig sim;
  lira::LiraConfig lira;
};

struct FleetSpec {
  FleetConfig fleet;
  int32_t queries = 100000;
  int32_t threads = 2;
  int32_t rebalance_stride = 0;
  int32_t alpha = 1024;
  lira::LiraConfig lira;
  bool auto_throttle = false;
  double z = 0.5;
  /// Service rate mu as a multiple of n (updates/s), or <= 0 for four times
  /// the calibrated full rate (amply provisioned, as RunSimulation does for
  /// source-actuated policies).
  double service_rate_per_node = 0.0;
  /// Queue capacity B as a multiple of n.
  double queue_per_node = 1.0;
  bool maintain_index = false;
  /// Share of the registry answered through AnswerQuery every tick
  /// (rotating slice); 0 disables answering.
  double answer_fraction = 0.0;
  /// Every this many measured ticks, the first answers of the slice are
  /// checked against a brute-force filter over FillBelievedInto.
  int32_t answer_check_stride = 10;
  int32_t answer_check_queries = 8;
  int32_t warmup_ticks = 20;
  int32_t measured_ticks = 60;
  /// Coverage radius of the uniform base-station grid new plans are
  /// encoded for.
  double station_radius = 5000.0;
};

/// The benchmark's three workloads at full scale, inputs drawn from `seed`.
CitySpec CityPreset(int32_t nodes, uint64_t seed);
FleetSpec MetroPreset(int32_t nodes, uint64_t seed);
FleetSpec ServePreset(int32_t nodes, uint64_t seed);

/// Extra outputs of a city episode, for comparing the city loop against
/// RunSimulation over the whole run (warm-up included).
struct CityTotals {
  lira::ErrorMetrics metrics;
  int64_t updates_sent = 0;
  int64_t updates_dropped = 0;
  int64_t updates_applied = 0;
  double final_z = 0.0;
  std::optional<lira::SheddingPlan> final_plan;
};

/// BuildWorld's steps (map, trace, calibration, full rate, queries), each
/// timed into (*setup_s)["world.*_s"]. Equal to BuildWorld(config).
lira::StatusOr<lira::World> BuildCityWorld(
    const lira::WorldConfig& config, std::map<std::string, double>* setup_s);

/// Runs one episode. `traced` attaches the pipeline's TraceRecorder and
/// TelemetrySink and folds their spans into episode.traced_ms;
/// `trace_path`, when non-empty, receives the Chrome trace of the episode.
/// A city episode builds a fresh pipeline and evaluator over `world` (its
/// set-up covers only those); a fleet episode builds everything.
Episode RunCityEpisode(const CitySpec& spec, const lira::World& world,
                       bool traced, const std::string& trace_path,
                       CityTotals* totals = nullptr);
Episode RunFleetEpisode(const FleetSpec& spec, bool traced,
                        const std::string& trace_path);

}  // namespace tickbench

#endif  // TICKBENCH_WORKLOADS_H_
