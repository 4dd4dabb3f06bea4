#include "lira/server/cq_server.h"

#include <utility>

namespace lira {

CqServer::CqServer(const CqServerConfig& config,
                   const LoadSheddingPolicy* policy,
                   const UpdateReductionFunction* reduction,
                   const QueryRegistry* queries, IngestStage ingest,
                   TrackerStage tracker_stage, StatsStage stats_stage,
                   OptimizerStage optimizer)
    : config_(config),
      policy_(policy),
      reduction_(reduction),
      queries_(queries),
      ingest_(std::move(ingest)),
      tracker_stage_(std::move(tracker_stage)),
      stats_stage_(std::move(stats_stage)),
      optimizer_(std::move(optimizer)),
      next_adaptation_(config.adaptation_period) {
  if (config.maintain_index) {
    snapshot_.emplace(config.num_nodes, config.alpha);
  }
}

double CqServer::QueryMargin() const {
  return config_.query_margin >= 0.0 ? config_.query_margin
                                     : reduction_->delta_max();
}

StatusOr<CqServer> CqServer::Create(const CqServerConfig& config,
                                    const LoadSheddingPolicy* policy,
                                    const UpdateReductionFunction* reduction,
                                    const QueryRegistry* queries) {
  if (policy == nullptr || reduction == nullptr || queries == nullptr) {
    return InvalidArgumentError("policy/reduction/queries must be non-null");
  }
  if (config.num_nodes <= 0) {
    return InvalidArgumentError("num_nodes must be positive");
  }
  if (config.service_rate <= 0.0) {
    return InvalidArgumentError("service_rate must be positive");
  }
  if (config.adaptation_period <= 0.0) {
    return InvalidArgumentError("adaptation_period must be positive");
  }
  if (!config.auto_throttle && (config.fixed_z < 0.0 || config.fixed_z > 1.0)) {
    return InvalidArgumentError("fixed_z must be in [0, 1]");
  }
  if (config.stats_sample_fraction <= 0.0 ||
      config.stats_sample_fraction > 1.0) {
    return InvalidArgumentError("stats_sample_fraction must be in (0, 1]");
  }

  StatsStageConfig stats_config;
  stats_config.num_nodes = config.num_nodes;
  stats_config.world = config.world;
  stats_config.alpha = config.alpha;
  stats_config.stats_sample_fraction = config.stats_sample_fraction;
  stats_config.incremental_stats = config.incremental_stats;
  stats_config.seed = config.seed ^ 0x57a75ULL;
  stats_config.telemetry = config.telemetry;
  stats_config.pool = config.pool;
  auto stats_stage = StatsStage::Create(stats_config);
  if (!stats_stage.ok()) {
    return stats_stage.status();
  }
  const double margin = config.query_margin >= 0.0
                            ? config.query_margin
                            : reduction->delta_max();
  stats_stage->RebuildQueries(*queries, margin);

  IngestStageConfig ingest_config;
  ingest_config.queue_capacity = config.queue_capacity;
  ingest_config.service_rate = config.service_rate;
  ingest_config.seed = config.seed;
  ingest_config.telemetry = config.telemetry;
  auto ingest = IngestStage::Create(ingest_config);
  if (!ingest.ok()) {
    return ingest.status();
  }

  OptimizerStageConfig optimizer_config;
  optimizer_config.queue_capacity =
      static_cast<int64_t>(config.queue_capacity);
  optimizer_config.service_rate = config.service_rate;
  optimizer_config.adaptation_period = config.adaptation_period;
  optimizer_config.auto_throttle = config.auto_throttle;
  optimizer_config.fixed_z = config.fixed_z;
  optimizer_config.telemetry = config.telemetry;
  optimizer_config.pool = config.pool;
  auto optimizer = OptimizerStage::Create(optimizer_config, config.world,
                                          reduction->delta_min());
  if (!optimizer.ok()) {
    return optimizer.status();
  }

  auto tracker_stage =
      TrackerStage::Create(config.num_nodes, config.record_history);
  if (!tracker_stage.ok()) {
    return tracker_stage.status();
  }

  return CqServer(config, policy, reduction, queries, *std::move(ingest),
                  *std::move(tracker_stage), *std::move(stats_stage),
                  *std::move(optimizer));
}

void CqServer::ReceiveBatch(std::vector<ModelUpdate>* updates) {
  telemetry::TraceRecorder* tr = config_.trace;
  telemetry::ScopedSpan span(
      tr, tr != nullptr ? tr->lane(telemetry::TraceRecorder::kDriverLane)
                        : nullptr,
      "ingest.receive", tick_, -1, time_);
  span.set_value(static_cast<double>(updates->size()));
  ingest_.Receive(updates, time_);
}

Status CqServer::Tick(double dt) {
  if (dt <= 0.0) {
    return InvalidArgumentError("dt must be positive");
  }
  time_ += dt;
  ++tick_;
  telemetry::TraceRecorder* tr = config_.trace;
  telemetry::TraceLane* lane =
      tr != nullptr ? tr->lane(telemetry::TraceRecorder::kDriverLane)
                    : nullptr;
  {
    telemetry::ScopedSpan service_span(tr, lane, "ingest.service", tick_, -1,
                                       time_);
    ingest_.Service(dt, &served_);
    service_span.set_value(static_cast<double>(served_.size()));
    service_span.Stop();
    telemetry::ScopedSpan apply_span(tr, lane, "tracker.apply", tick_, -1,
                                     time_);
    apply_span.set_value(static_cast<double>(served_.size()));
    for (const ModelUpdate& update : served_) {
      tracker_stage_.Apply(update);
    }
    if (snapshot_.has_value()) {
      snapshot_->Rebuild(*this, stats_stage_.grid(), config_.pool);
    }
  }
  if (time_ + 1e-9 >= next_adaptation_) {
    LIRA_RETURN_IF_ERROR(Adapt());
    next_adaptation_ += config_.adaptation_period;
  }
  if (config_.flight_recorder != nullptr) {
    RecordFlightSample();
  }
  return OkStatus();
}

void CqServer::RecordFlightSample() {
  telemetry::FlightSample sample;
  sample.tick = tick_;
  sample.time = time_;
  sample.shard = -1;
  sample.queue_depth = static_cast<int64_t>(ingest_.queue().size());
  sample.queue_dropped = ingest_.queue().total_dropped();
  sample.queue_arrivals = ingest_.queue().total_arrivals();
  sample.z = optimizer_.z();
  sample.lambda = optimizer_.last_lambda();
  sample.utilization = optimizer_.last_utilization();
  sample.nodes = static_cast<int64_t>(stats_stage_.grid().TotalNodes());
  sample.plan_regions = static_cast<int32_t>(optimizer_.plan().NumRegions());
  sample.plan_min_delta = optimizer_.plan().MinDelta();
  sample.plan_max_delta = optimizer_.plan().MaxDelta();
  config_.flight_recorder->Record(sample);
}

Status CqServer::InstallQueries(const QueryRegistry* queries) {
  if (queries == nullptr) {
    return InvalidArgumentError("queries must be non-null");
  }
  queries_ = queries;
  stats_stage_.InvalidateQueryCache();
  return OkStatus();
}

StatusOr<std::vector<NodeId>> CqServer::AnswerQuery(QueryId query) const {
  return AnswerSnapshotQuery(*this, snapshot_ ? &*snapshot_ : nullptr,
                             stats_stage_.grid(), *queries_, query);
}

StatusOr<std::vector<NodeId>> CqServer::AnswerRange(const Rect& range,
                                                    double t) const {
  return AnswerSnapshotRange(*this, snapshot_ ? &*snapshot_ : nullptr,
                             stats_stage_.grid(), range, t);
}

StatusOr<std::vector<NodeId>> CqServer::AnswerHistoricalRange(
    const Rect& range, double t) const {
  if (history() == nullptr) {
    return FailedPreconditionError("history recording is disabled");
  }
  if (t > time_ + 1e-9) {
    return InvalidArgumentError("historical time is in the future");
  }
  return history()->RangeAt(range, t);
}

std::vector<NodeId> CqServer::HistoricalRangeAt(const Rect& range,
                                                double t) const {
  const HistoryStore* store = history();
  return store != nullptr ? store->RangeAt(range, t) : std::vector<NodeId>{};
}

std::optional<Point> CqServer::HistoricalPositionAt(NodeId id,
                                                    double t) const {
  const HistoryStore* store = history();
  return store != nullptr ? store->PositionAt(id, t) : std::nullopt;
}

int64_t CqServer::history_bytes() const {
  const HistoryStore* store = history();
  return store != nullptr ? store->ApproxBytes() : 0;
}

Status CqServer::Adapt() {
  telemetry::TelemetrySink* t = config_.telemetry;
  telemetry::ScopedTimer adapt_timer(t, "lira.adapt.total_seconds", time_);
  telemetry::TraceRecorder* tr = config_.trace;
  telemetry::TraceLane* lane =
      tr != nullptr ? tr->lane(telemetry::TraceRecorder::kDriverLane)
                    : nullptr;
  {
    telemetry::ScopedSpan throttle_span(tr, lane, "optimizer.throttle", tick_,
                                        -1, time_);
    if (config_.auto_throttle) {
      optimizer_.UpdateThrottle(ingest_.queue().window_arrivals(),
                                ingest_.queue().window_dropped(), time_);
      ingest_.ResetWindow();
    } else {
      optimizer_.FixedThrottle(time_);
    }
    throttle_span.set_value(optimizer_.z());
  }
  {
    telemetry::ScopedTimer stats_timer(t, "lira.adapt.stats_rebuild_seconds",
                                       time_);
    telemetry::ScopedSpan stats_span(tr, lane, "stats.rebuild", tick_, -1,
                                     time_);
    stats_stage_.RebuildNodes(tracker_stage_.tracker(), time_);
    {
      telemetry::ScopedTimer query_timer(t, "lira.adapt.query_rebuild_seconds",
                                         time_);
      telemetry::ScopedSpan query_span(tr, lane, "stats.query_rebuild", tick_,
                                       -1, time_);
      stats_stage_.RebuildQueries(*queries_, QueryMargin());
    }
    stats_span.set_value(stats_stage_.grid().TotalNodes());
  }
  Status built;
  {
    telemetry::ScopedSpan plan_span(tr, lane, "optimizer.plan_build", tick_,
                                    -1, time_);
    built = optimizer_.BuildPlan(*policy_, stats_stage_.grid(), *reduction_,
                                 time_);
    plan_span.set_value(static_cast<double>(optimizer_.plan().NumRegions()));
  }
  // The plan is now visible to the encoders (the simulator reads it at the
  // top of the next frame) -- mark the broadcast point.
  telemetry::RecordInstant(tr, lane, "plan.broadcast", tick_, -1, time_,
                           static_cast<double>(optimizer_.plan().NumRegions()));
  return built;
}

}  // namespace lira
