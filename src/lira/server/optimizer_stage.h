// Pipeline stage 4: THROTLOOP -> policy -> SheddingPlan.
//
// Owns the throttle-fraction controller, the current z, the active plan,
// and the plan-build accounting + telemetry. A server runs exactly one at
// its coordinator -- the throttle window and the statistics grid it
// optimizes over are *global* (summed arrivals, one grid), so the plan
// honors the global budget z * n * f(delta) and the fairness constraint
// across shard boundaries.

#ifndef LIRA_SERVER_OPTIMIZER_STAGE_H_
#define LIRA_SERVER_OPTIMIZER_STAGE_H_

#include <cstdint>

#include "lira/common/parallel.h"
#include "lira/common/status.h"
#include "lira/core/policy.h"
#include "lira/core/shedding_plan.h"
#include "lira/core/statistics_grid.h"
#include "lira/core/throt_loop.h"
#include "lira/telemetry/telemetry.h"

namespace lira {

struct OptimizerStageConfig {
  /// Global input-queue capacity B (THROTLOOP's buffer bound).
  int64_t queue_capacity = 500;
  /// Global service rate mu, updates/second.
  double service_rate = 1000.0;
  /// Seconds between adaptations (the THROTLOOP measurement window).
  double adaptation_period = 30.0;
  /// When true, z comes from UpdateThrottle; otherwise fixed_z is used.
  bool auto_throttle = false;
  double fixed_z = 0.5;
  /// Optional telemetry (not owned; must outlive the stage). The stage
  /// records `lira.{throtloop,plan,queue}.*` and the plan-build span.
  telemetry::TelemetrySink* telemetry = nullptr;
};

/// Throttle + plan build. Not thread-safe.
class OptimizerStage {
 public:
  /// `initial_delta` seeds a uniform plan over `world` (maximum accuracy
  /// until the first adaptation: the reduction function's delta_min).
  static StatusOr<OptimizerStage> Create(const OptimizerStageConfig& config,
                                         const Rect& world,
                                         double initial_delta);

  /// One THROTLOOP step from the queue window observed over the last
  /// adaptation period (auto_throttle mode). Returns the new z.
  double UpdateThrottle(int64_t window_arrivals, int64_t window_dropped,
                        double now);

  /// Re-asserts the configured fixed z (samples the z gauge). Returns it.
  double FixedThrottle(double now);

  /// Builds and installs a new plan from `stats` at the current z.
  Status BuildPlan(const LoadSheddingPolicy& policy,
                   const StatisticsGrid& stats,
                   const UpdateReductionFunction& reduction, double now);

  double z() const { return z_; }
  const SheddingPlan& plan() const { return plan_; }
  bool auto_throttle() const { return auto_throttle_; }

  /// The worker pool (not owned; nullptr = serial) handed to the policy
  /// via PolicyContext::pool: quad-tree build + GRIDREDUCE waves. Plans are
  /// bitwise identical with or without a pool.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Last measured arrival rate (upd/s) and utilization lambda/mu from
  /// UpdateThrottle; 0 until the first THROTLOOP step. Feeds the flight
  /// recorder's per-tick samples.
  double last_lambda() const { return last_lambda_; }
  double last_utilization() const { return last_utilization_; }

  /// Cumulative time spent building plans (seconds) and number of builds,
  /// for the server-side-cost experiments.
  double total_plan_build_seconds() const { return plan_build_seconds_; }
  int64_t plan_builds() const { return plan_builds_; }

 private:
  OptimizerStage(const OptimizerStageConfig& config, ThrotLoop throt_loop,
                 SheddingPlan plan);

  double adaptation_period_;
  double service_rate_;
  bool auto_throttle_;
  double fixed_z_;
  telemetry::TelemetrySink* telemetry_;
  ThreadPool* pool_ = nullptr;
  ThrotLoop throt_loop_;
  SheddingPlan plan_;
  double z_;
  double last_lambda_ = 0.0;
  double last_utilization_ = 0.0;
  double plan_build_seconds_ = 0.0;
  int64_t plan_builds_ = 0;
};

}  // namespace lira

#endif  // LIRA_SERVER_OPTIMIZER_STAGE_H_
