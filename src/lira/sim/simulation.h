// End-to-end simulation: replays a recorded trace through the node-side
// dead-reckoning encoders (thresholds taken from the server's current
// shedding plan), the server's bounded queue and service loop, and samples
// query accuracy against ground truth.

#ifndef LIRA_SIM_SIMULATION_H_
#define LIRA_SIM_SIMULATION_H_

#include <cstdint>
#include <string>

#include "lira/common/status.h"
#include "lira/core/policy.h"
#include "lira/sim/metrics.h"
#include "lira/sim/world.h"
#include "lira/telemetry/flight_recorder.h"
#include "lira/telemetry/telemetry.h"
#include "lira/telemetry/trace.h"

namespace lira {

struct SimulationConfig {
  /// Throttle fraction (ignored when auto_throttle is set).
  double z = 0.5;
  bool auto_throttle = false;
  /// Explicit service rate (updates/s) for every policy when positive (used
  /// by the THROTLOOP experiments). Otherwise a policy that sheds at the
  /// server (Random Drop) is served at z * full_update_rate -- the budget z
  /// *is* the server capacity -- and a source-actuated policy, which sheds
  /// at the encoders, is amply provisioned (the paper's fixed-z experiments
  /// likewise charge it only for the accuracy lost to the thresholds).
  double service_rate_override = 0.0;
  size_t queue_capacity = 500;
  double adaptation_period = 30.0;
  /// Statistics-grid resolution alpha (power of two).
  int32_t alpha = 128;
  /// Frames to skip before measuring (>= one adaptation period so the first
  /// real plan is active and transients have decayed).
  int32_t warmup_frames = 120;
  /// Take an accuracy sample every this many frames.
  int32_t sample_every = 5;
  /// Spatial-index resolution for query evaluation.
  int32_t index_cells = 64;
  /// When true (the default) accuracy sampling and server statistics are
  /// delta-maintained: the IncrementalEvaluator walks only queries whose
  /// membership can have changed since the last sample, and the server
  /// relocates per-node statistics contributions instead of rebuilding the
  /// grid. Bitwise identical to the full-rescan path (asserted in
  /// sim/simulation_test); false forces the original recompute-everything
  /// paths, kept for verification and benchmarking.
  bool incremental = true;
  /// When true, the server records trajectory history and the run is
  /// followed by an historical-accuracy evaluation: random snapshot range
  /// queries at uniformly random past times/locations, compared against the
  /// reference (delta_min) system's history. This measures tracking quality
  /// *everywhere*, the capability the fairness threshold protects
  /// (Section 3.1.1).
  bool evaluate_history = false;
  /// Number of random historical snapshot queries when evaluate_history.
  int32_t history_probes = 200;
  /// Fraction of nodes fed into the statistics grid per adaptation
  /// (CqServerConfig::stats_sample_fraction).
  double stats_sample_fraction = 1.0;
  /// Optional telemetry (not owned; must outlive the call). The run samples
  /// z / queue gauges every `telemetry_stride` frames, the server records
  /// the adaptation loop, and a final metric snapshot is flushed at the end
  /// of the run. nullptr (the default) disables all instrumentation; the
  /// frame loop then pays only a pointer test.
  telemetry::TelemetrySink* telemetry = nullptr;
  /// Frames between telemetry samples. The default keeps the instrumented
  /// overhead well under 2% of the frame loop.
  int32_t telemetry_stride = 10;
  /// Optional span tracer (not owned; must outlive the call). Forwarded to
  /// the server: every tick and adaptation records per-stage wall-time
  /// spans (DESIGN.md §10); the recorder needs max(shards, 1) + 1 lanes,
  /// since shard k writes lane k + 1. nullptr disables tracing at a pointer
  /// test per stage.
  telemetry::TraceRecorder* trace = nullptr;
  /// Optional flight recorder (not owned; must outlive the call). The
  /// server appends one sample per tick (and one per shard when S > 1), so
  /// the ring always holds the last N ticks of control state.
  telemetry::FlightRecorder* flight_recorder = nullptr;
  /// When non-empty, a ClusterHealth snapshot is appended to this file as
  /// one JSON line every `health_stride` frames, and the final snapshot
  /// (plus the metric registry, when telemetry is set) is written as
  /// Prometheus text to "<health_path>.prom".
  std::string health_path;
  int32_t health_stride = 60;
  /// Worker threads for the per-frame node loop and the accuracy-sampling
  /// pass (DESIGN.md §7). 0 means hardware concurrency; 1 runs fully
  /// serial, bypassing the pool. The result is bitwise identical for every
  /// thread count -- parallel output is merged in deterministic node/query
  /// order -- so this knob trades wall-clock time only.
  int32_t threads = 0;
  /// Region shards on the server side (DESIGN.md §9). 0 (the default) runs
  /// one shard on the simulator's worker pool; S >= 1 runs S spatial
  /// shards that own a pool of min(threads, S) workers. 0 and 1 are bitwise
  /// identical, and any S is bitwise reproducible across thread counts
  /// (asserted in sim/simulation_test).
  int32_t shards = 0;
  /// Shard-map rebalancing stride R (DESIGN.md §12): every R adaptation
  /// windows the cluster re-splits its column strips from observed load.
  /// Requires shards >= 1; 0 (the default) disables rebalancing and keeps
  /// every output bitwise identical to earlier versions.
  int32_t rebalance_stride = 0;
  uint64_t seed = 99;
};

struct SimulationResult {
  ErrorMetrics metrics;
  /// Throttle fraction in force at the end of the run.
  double final_z = 0.0;
  /// Updates emitted by the nodes / dropped at the queue / applied by the
  /// server over the whole run.
  int64_t updates_sent = 0;
  int64_t updates_dropped = 0;
  int64_t updates_applied = 0;
  /// Mean time per plan rebuild, seconds.
  double mean_plan_build_seconds = 0.0;
  int64_t plan_builds = 0;
  /// Regions in the last plan.
  int32_t final_plan_regions = 0;
  /// Min/max throttler of the last plan (meters).
  double final_plan_min_delta = 0.0;
  double final_plan_max_delta = 0.0;
  /// Update rate observed over the measured window, relative to the full
  /// rate at delta_min (an empirical check of the budget constraint).
  double measured_update_fraction = 0.0;
  /// Historical snapshot-query accuracy (when evaluate_history): mean
  /// containment error of RangeAt answers and mean position error over all
  /// tracked nodes at the probed times, against the reference system.
  double historical_containment_error = 0.0;
  double historical_position_error = 0.0;
  /// Memory held by the server's history store, bytes.
  int64_t history_bytes = 0;
};

/// Runs one policy over the world's full trace. The world outlives the call;
/// the same world can be reused across policies and configurations.
StatusOr<SimulationResult> RunSimulation(const World& world,
                                         const LoadSheddingPolicy& policy,
                                         const SimulationConfig& config);

}  // namespace lira

#endif  // LIRA_SIM_SIMULATION_H_
