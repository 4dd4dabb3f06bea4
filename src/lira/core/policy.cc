#include "lira/core/policy.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lira/core/greedy_increment.h"
#include "lira/core/grid_reduce.h"
#include "lira/core/quad_hierarchy.h"

namespace lira {
namespace {

Status ValidateContext(const PolicyContext& ctx) {
  if (ctx.stats == nullptr || ctx.reduction == nullptr) {
    return InvalidArgumentError("policy context is incomplete");
  }
  // Written so that a NaN z fails too.
  if (!(ctx.z >= 0.0 && ctx.z <= 1.0)) {
    return InvalidArgumentError("z must be in [0, 1]");
  }
  return OkStatus();
}

/// Assigns throttlers to the given regions and packages the plan.
StatusOr<SheddingPlan> FinishPlan(const PolicyContext& ctx,
                                  std::vector<SheddingRegion> regions,
                                  const LiraConfig& config) {
  std::vector<RegionStats> stats;
  stats.reserve(regions.size());
  for (const SheddingRegion& r : regions) {
    stats.push_back(r.stats);
  }
  GreedyIncrementConfig greedy;
  greedy.z = ctx.z;
  greedy.c_delta = config.c_delta;
  greedy.fairness_threshold = config.fairness_threshold;
  greedy.use_speed_factor = config.use_speed_factor;
  telemetry::ScopedTimer timer(ctx.telemetry,
                               "lira.adapt.greedy_increment_seconds", ctx.now);
  auto result = RunGreedyIncrement(stats, *ctx.reduction, greedy);
  timer.Stop();
  if (!result.ok()) {
    return result.status();
  }
  if (ctx.telemetry != nullptr) {
    ctx.telemetry->SampleGauge("lira.greedy.steps", ctx.now,
                               static_cast<double>(result->steps));
    ctx.telemetry->SampleGauge("lira.greedy.budget_met", ctx.now,
                               result->budget_met ? 1.0 : 0.0);
  }
  for (size_t i = 0; i < regions.size(); ++i) {
    regions[i].delta = result->deltas[i];
  }
  return SheddingPlan::Create(ctx.stats->world(), std::move(regions),
                              config.locator_cells);
}

}  // namespace

StatusOr<SheddingPlan> RandomDropPolicy::BuildPlan(
    const PolicyContext& ctx) const {
  LIRA_RETURN_IF_ERROR(ValidateContext(ctx));
  return SheddingPlan::MakeUniform(ctx.stats->world(),
                                   ctx.reduction->delta_min());
}

StatusOr<SheddingPlan> UniformDeltaPolicy::BuildPlan(
    const PolicyContext& ctx) const {
  LIRA_RETURN_IF_ERROR(ValidateContext(ctx));
  const double delta = ctx.reduction->InverseEval(ctx.z);
  return SheddingPlan::MakeUniform(ctx.stats->world(), delta);
}

StatusOr<SheddingPlan> LiraGridPolicy::BuildPlan(
    const PolicyContext& ctx) const {
  LIRA_RETURN_IF_ERROR(ValidateContext(ctx));
  auto regions = EvenPartition(*ctx.stats, config_.l);
  if (!regions.ok()) {
    return regions.status();
  }
  return FinishPlan(ctx, *std::move(regions), config_);
}

StatusOr<SheddingPlan> LiraPolicy::BuildPlan(const PolicyContext& ctx) const {
  LIRA_RETURN_IF_ERROR(ValidateContext(ctx));
  telemetry::ScopedTimer quad_timer(ctx.telemetry,
                                    "lira.adapt.quad_build_seconds", ctx.now);
  const QuadHierarchy tree = QuadHierarchy::Build(*ctx.stats, ctx.pool);
  quad_timer.Stop();
  GridReduceConfig reduce;
  reduce.l = config_.l;
  reduce.z = ctx.z;
  reduce.greedy.c_delta = config_.c_delta;
  reduce.greedy.use_speed_factor = config_.use_speed_factor;
  reduce.telemetry = ctx.telemetry;
  reduce.now = ctx.now;
  reduce.pool = ctx.pool;
  telemetry::ScopedTimer timer(ctx.telemetry, "lira.adapt.grid_reduce_seconds",
                               ctx.now);
  auto regions = GridReduce(tree, *ctx.reduction, reduce);
  timer.Stop();
  if (!regions.ok()) {
    return regions.status();
  }
  return FinishPlan(ctx, *std::move(regions), config_);
}

StatusOr<std::unique_ptr<LoadSheddingPolicy>> MakePolicy(
    std::string_view name, const LiraConfig& config) {
  if (name == "RandomDrop") {
    return std::unique_ptr<LoadSheddingPolicy>(new RandomDropPolicy());
  }
  if (name == "UniformDelta") {
    return std::unique_ptr<LoadSheddingPolicy>(new UniformDeltaPolicy());
  }
  if (name == "Lira-Grid") {
    return std::unique_ptr<LoadSheddingPolicy>(new LiraGridPolicy(config));
  }
  if (name == "Lira") {
    return std::unique_ptr<LoadSheddingPolicy>(new LiraPolicy(config));
  }
  return InvalidArgumentError("unknown policy: " + std::string(name));
}

}  // namespace lira
