#include "lira/server/optimizer_stage.h"

#include <chrono>
#include <utility>

namespace lira {

OptimizerStage::OptimizerStage(const OptimizerStageConfig& config,
                               ThrotLoop throt_loop, SheddingPlan plan)
    : adaptation_period_(config.adaptation_period),
      service_rate_(config.service_rate),
      auto_throttle_(config.auto_throttle),
      fixed_z_(config.fixed_z),
      telemetry_(config.telemetry),
      throt_loop_(std::move(throt_loop)),
      plan_(std::move(plan)),
      z_(config.auto_throttle ? 1.0 : config.fixed_z) {}

StatusOr<OptimizerStage> OptimizerStage::Create(
    const OptimizerStageConfig& config, const Rect& world,
    double initial_delta) {
  if (config.service_rate <= 0.0) {
    return InvalidArgumentError("service_rate must be positive");
  }
  if (config.adaptation_period <= 0.0) {
    return InvalidArgumentError("adaptation_period must be positive");
  }
  if (!config.auto_throttle &&
      (config.fixed_z < 0.0 || config.fixed_z > 1.0)) {
    return InvalidArgumentError("fixed_z must be in [0, 1]");
  }
  ThrotLoopConfig throttle_config;
  throttle_config.queue_capacity = config.queue_capacity;
  auto throt_loop = ThrotLoop::Create(throttle_config);
  if (!throt_loop.ok()) {
    return throt_loop.status();
  }
  // Until the first adaptation every node runs at maximum accuracy.
  SheddingPlan initial_plan = SheddingPlan::MakeUniform(world, initial_delta);
  return OptimizerStage(config, *std::move(throt_loop),
                        std::move(initial_plan));
}

double OptimizerStage::UpdateThrottle(int64_t window_arrivals,
                                      int64_t window_dropped, double now) {
  const double lambda =
      static_cast<double>(window_arrivals) / adaptation_period_;
  const double previous_z = z_;
  z_ = throt_loop_.Update(lambda, service_rate_);
  last_lambda_ = lambda;
  last_utilization_ = lambda / service_rate_;
  if (telemetry_ != nullptr) {
    telemetry_->SampleGauge("lira.throtloop.lambda", now, lambda);
    telemetry_->SampleGauge("lira.throtloop.utilization", now,
                            lambda / service_rate_);
    telemetry_->SampleGauge("lira.throtloop.z", now, z_);
    telemetry_->SampleGauge("lira.queue.window_dropped", now,
                            static_cast<double>(window_dropped));
    if (z_ != previous_z) {
      telemetry_->Emit(telemetry::EventKind::kZChanged, "lira.throtloop.z",
                       now, z_, lambda);
    }
  }
  return z_;
}

double OptimizerStage::FixedThrottle(double now) {
  z_ = fixed_z_;
  if (telemetry_ != nullptr) {
    telemetry_->SampleGauge("lira.throtloop.z", now, z_);
  }
  return z_;
}

Status OptimizerStage::BuildPlan(const LoadSheddingPolicy& policy,
                                 const StatisticsGrid& stats,
                                 const UpdateReductionFunction& reduction,
                                 double now) {
  PolicyContext ctx;
  ctx.stats = &stats;
  ctx.reduction = &reduction;
  ctx.z = z_;
  ctx.telemetry = telemetry_;
  ctx.now = now;
  ctx.pool = pool_;
  const auto start = std::chrono::steady_clock::now();
  auto plan = policy.BuildPlan(ctx);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (!plan.ok()) {
    return plan.status();
  }
  plan_ = *std::move(plan);
  const double build_seconds = std::chrono::duration<double>(elapsed).count();
  plan_build_seconds_ += build_seconds;
  ++plan_builds_;
  if (telemetry_ != nullptr) {
    telemetry_->RecordSpan("lira.adapt.plan_build_seconds", now,
                           build_seconds);
    telemetry_->SampleGauge("lira.plan.regions", now,
                            static_cast<double>(plan_.NumRegions()));
    telemetry_->SampleGauge("lira.plan.min_delta", now, plan_.MinDelta());
    telemetry_->SampleGauge("lira.plan.max_delta", now, plan_.MaxDelta());
    telemetry_->Emit(telemetry::EventKind::kPlanRebuilt, "lira.plan.rebuilt",
                     now, static_cast<double>(plan_.NumRegions()),
                     build_seconds);
  }
  return OkStatus();
}

}  // namespace lira
