#include "lira/server/ingest_stage.h"

#include <cmath>
#include <utility>

namespace lira {

IngestStage::IngestStage(const IngestStageConfig& config, UpdateQueue queue)
    : queue_(std::move(queue)), service_rate_(config.service_rate) {
  if (config.telemetry != nullptr) {
    telemetry::MetricRegistry& metrics = config.telemetry->metrics();
    const std::string& prefix = config.metric_prefix;
    arrivals_counter_ = metrics.GetCounter(prefix + ".queue.arrivals");
    dropped_counter_ = metrics.GetCounter(prefix + ".queue.dropped");
    depth_gauge_ = metrics.GetGauge(prefix + ".queue.depth");
    high_watermark_gauge_ = metrics.GetGauge(prefix + ".queue.high_watermark");
  }
}

StatusOr<IngestStage> IngestStage::Create(const IngestStageConfig& config) {
  if (config.service_rate <= 0.0) {
    return InvalidArgumentError("service_rate must be positive");
  }
  auto queue = UpdateQueue::Create(config.queue_capacity, config.seed);
  if (!queue.ok()) {
    return queue.status();
  }
  return IngestStage(config, *std::move(queue));
}

int64_t IngestStage::Receive(std::vector<ModelUpdate>* updates) {
  const auto arrived = static_cast<int64_t>(updates->size());
  const int64_t dropped = queue_.OfferAll(updates);
  if (arrivals_counter_ != nullptr) {
    arrivals_counter_->Increment(arrived);
    depth_gauge_->Set(static_cast<double>(queue_.size()));
    high_watermark_gauge_->Set(static_cast<double>(queue_.high_watermark()));
    if (dropped > 0) {
      dropped_counter_->Increment(dropped);
    }
  }
  return dropped;
}

void IngestStage::Service(double dt, std::vector<ModelUpdate>* served) {
  service_credit_ += service_rate_ * dt;
  const auto serve = static_cast<int64_t>(std::floor(service_credit_));
  service_credit_ -= static_cast<double>(serve);
  queue_.Drain(serve, served);
}

}  // namespace lira
