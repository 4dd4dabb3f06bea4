#include "lira/server/server_cluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "lira/common/check.h"

namespace lira {
namespace {

/// Shard k's random stream: golden-ratio mixing keeps streams disjoint
/// while shard 0 keeps the un-mixed seed.
uint64_t ShardSeed(uint64_t seed, int32_t shard) {
  return seed ^ (static_cast<uint64_t>(shard) * 0x9e3779b97f4a7c15ULL);
}

/// Shard instrument namespace. The id rides in the name segment
/// ("lira.shard3.queue.depth") so the metric registry stays a flat
/// string-keyed map; the Prometheus exporter re-extracts it as a proper
/// `shard="3"` label (telemetry/exposition.h).
std::string ShardPrefix(int32_t shard) {
  return "lira.shard" + std::to_string(shard);
}

/// Smallest id chunk the migration pass hands one worker; smaller id
/// ranges run inline on the coordinator.
constexpr int64_t kMigrationScanGrain = 8192;

/// True when the update names a node in [0, num_nodes) and every field of
/// its model is finite: the only updates routing and the store accept.
bool IsWellFormed(const ModelUpdate& update, int32_t num_nodes) {
  const LinearMotionModel& m = update.model;
  return update.node_id >= 0 && update.node_id < num_nodes &&
         std::isfinite(m.origin.x) && std::isfinite(m.origin.y) &&
         std::isfinite(m.velocity.x) && std::isfinite(m.velocity.y) &&
         std::isfinite(m.t0);
}

}  // namespace

ServerCluster::ServerCluster(const ServerClusterConfig& config,
                             const LoadSheddingPolicy* policy,
                             const UpdateReductionFunction* reduction,
                             const QueryRegistry* queries, ShardMap shard_map,
                             std::vector<Shard> shards, StatsStage stats,
                             ThrotLoop throttle, SheddingPlan plan)
    : config_(config),
      policy_(policy),
      reduction_(reduction),
      queries_(queries),
      shard_map_(std::move(shard_map)),
      shards_(std::move(shards)),
      tracker_(config.server.num_nodes),
      stats_(std::move(stats)),
      throttle_(std::move(throttle)),
      plan_(std::move(plan)),
      pool_(config.server.pool),
      next_adaptation_(config.server.adaptation_period),
      owner_of_(config.server.num_nodes, -1) {
  if (config_.server.record_history) {
    history_.emplace(config_.server.num_nodes);
  }
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(std::min(
        config.threads > 0 ? config.threads : ThreadPool::DefaultThreads(),
        config.shards));
    pool_ = owned_pool_.get();
  }
  if (config_.server.telemetry != nullptr) {
    telemetry::MetricRegistry& metrics = config_.server.telemetry->metrics();
    arrivals_counter_ = metrics.GetCounter("lira.queue.arrivals");
    dropped_counter_ = metrics.GetCounter("lira.queue.dropped");
    rejected_counter_ = metrics.GetCounter("lira.queue.rejected");
    depth_gauge_ = metrics.GetGauge("lira.queue.depth");
    high_watermark_gauge_ = metrics.GetGauge("lira.queue.high_watermark");
    rebalance_epochs_counter_ =
        metrics.GetCounter("lira.cluster.rebalance.epochs");
    rebalance_columns_counter_ =
        metrics.GetCounter("lira.cluster.rebalance.columns_moved");
    rebalance_migrated_counter_ =
        metrics.GetCounter("lira.cluster.rebalance.nodes_migrated");
    for (int32_t k = 0; k < num_shards(); ++k) {
      Shard& shard = shards_[k];
      const std::string prefix = ShardPrefix(k);
      shard.arrivals_counter = metrics.GetCounter(prefix + ".queue.arrivals");
      shard.dropped_counter = metrics.GetCounter(prefix + ".queue.dropped");
      shard.depth_gauge = metrics.GetGauge(prefix + ".queue.depth");
      shard.high_watermark_gauge =
          metrics.GetGauge(prefix + ".queue.high_watermark");
      shard.nodes_gauge = metrics.GetGauge(prefix + ".stats.nodes");
    }
  }
  if (config_.server.maintain_index) {
    snapshot_.emplace(config_.server.num_nodes, config_.server.alpha);
  }
}

StatusOr<std::unique_ptr<ServerCluster>> ServerCluster::Create(
    const ServerClusterConfig& config, const LoadSheddingPolicy* policy,
    const UpdateReductionFunction* reduction, const QueryRegistry* queries) {
  auto built = Build(config, policy, reduction, queries);
  if (!built.ok()) {
    return built.status();
  }
  return std::make_unique<ServerCluster>(*std::move(built));
}

StatusOr<ServerCluster> ServerCluster::Build(
    const ServerClusterConfig& config, const LoadSheddingPolicy* policy,
    const UpdateReductionFunction* reduction, const QueryRegistry* queries) {
  const CqServerConfig& server = config.server;
  if (policy == nullptr || reduction == nullptr || queries == nullptr) {
    return InvalidArgumentError("policy/reduction/queries must be non-null");
  }
  if (server.num_nodes <= 0) {
    return InvalidArgumentError("num_nodes must be positive");
  }
  // Each check below is written so that a NaN fails it.
  const Rect& world = server.world;
  if (!(std::isfinite(world.min_x) && std::isfinite(world.min_y) &&
        std::isfinite(world.max_x) && std::isfinite(world.max_y) &&
        world.min_x < world.max_x && world.min_y < world.max_y)) {
    return InvalidArgumentError(
        "world bounds must be finite with min < max on each axis");
  }
  if (!(std::isfinite(server.adaptation_period) &&
        server.adaptation_period > 0.0)) {
    return InvalidArgumentError(
        "adaptation_period must be finite and positive");
  }
  if (!server.auto_throttle &&
      !(server.fixed_z >= 0.0 && server.fixed_z <= 1.0)) {
    return InvalidArgumentError("fixed_z must be in [0, 1]");
  }
  if (!(server.stats_sample_fraction > 0.0 &&
        server.stats_sample_fraction <= 1.0)) {
    return InvalidArgumentError("stats_sample_fraction must be in (0, 1]");
  }
  if (config.threads < 0) {
    return InvalidArgumentError("threads must be >= 0");
  }
  if (config.rebalance_stride < 0) {
    return InvalidArgumentError("rebalance_stride must be >= 0 (0 = off)");
  }
  if (config.rebalance_stride > 0 && config.rebalance_max_moves < 1) {
    return InvalidArgumentError(
        "rebalance_max_moves must be >= 1 when rebalancing is enabled");
  }
  auto shard_map =
      ShardMap::Create(server.world, server.alpha, config.shards);
  if (!shard_map.ok()) {
    return shard_map.status();
  }

  const int32_t num_shards = config.shards;
  // Global resources split evenly: queue slots round up so S shard queues
  // always cover the global capacity B; the service rate divides exactly
  // (mu/S per shard, so S=1 keeps the service-credit float math bitwise).
  // The queue rejects a capacity of 0 and a service rate that is not
  // finite and positive.
  const size_t shard_capacity =
      (server.queue_capacity + static_cast<size_t>(num_shards) - 1) /
      static_cast<size_t>(num_shards);
  const double shard_rate = server.service_rate / num_shards;
  std::vector<Shard> shards;
  shards.reserve(num_shards);
  for (int32_t k = 0; k < num_shards; ++k) {
    auto queue = UpdateQueue::Create(shard_capacity, shard_rate,
                                     ShardSeed(server.seed, k));
    if (!queue.ok()) {
      return queue.status();
    }
    shards.push_back(Shard{*std::move(queue), 0, {}, {}, {}});
  }

  // The cluster's only grid, rebuilt from the one store. Its sampling
  // stream draws once per node id, so sampled statistics do not depend on
  // S.
  StatsStageConfig stats_config;
  stats_config.num_nodes = server.num_nodes;
  stats_config.world = server.world;
  stats_config.alpha = server.alpha;
  stats_config.stats_sample_fraction = server.stats_sample_fraction;
  stats_config.incremental_stats = server.incremental_stats;
  stats_config.seed = server.seed ^ 0x57a75ULL;
  stats_config.telemetry = server.telemetry;
  auto stats = StatsStage::Create(stats_config);
  if (!stats.ok()) {
    return stats.status();
  }
  stats->RebuildQueries(*queries, reduction->delta_max());

  auto throttle =
      ThrotLoop::Create(static_cast<int64_t>(server.queue_capacity));
  if (!throttle.ok()) {
    return throttle.status();
  }
  // Until the first adaptation every node runs at maximum accuracy.
  SheddingPlan plan =
      SheddingPlan::MakeUniform(server.world, reduction->delta_min());

  return ServerCluster(config, policy, reduction, queries,
                       *std::move(shard_map), std::move(shards),
                       *std::move(stats), *std::move(throttle),
                       std::move(plan));
}

Status ServerCluster::InstallQueries(const QueryRegistry* queries) {
  if (queries == nullptr) {
    return InvalidArgumentError("queries must be non-null");
  }
  queries_ = queries;
  stats_.InvalidateQueryCache();
  return OkStatus();
}

void ServerCluster::ReceiveBatch(std::vector<ModelUpdate>* updates) {
  telemetry::TraceRecorder* tr = config_.server.trace;
  telemetry::TraceLane* driver_lane =
      tr != nullptr ? tr->lane(telemetry::TraceRecorder::kDriverLane)
                    : nullptr;
  // Reject malformed updates, then route the rest serially in batch order
  // (stable: each shard sees its updates in the order the batch carried
  // them), then admit per shard in parallel. A bad id would index the
  // owner map and the store out of bounds, and a NaN origin would reach the
  // shard map's integer column arithmetic.
  int64_t rejected = 0;
  int64_t arrived = 0;
  {
    telemetry::ScopedSpan route_span(tr, driver_lane, "ingest.route", tick_,
                                     -1, time_);
    route_span.set_value(static_cast<double>(updates->size()));
    for (Shard& shard : shards_) {
      shard.route.clear();
    }
    const int32_t num_nodes = config_.server.num_nodes;
    for (ModelUpdate& update : *updates) {
      if (!IsWellFormed(update, num_nodes)) {
        ++rejected;
        continue;
      }
      shards_[shard_map_.ShardFor(update.model.origin)].route.push_back(
          std::move(update));
    }
    rejected_ += rejected;
    arrived = static_cast<int64_t>(updates->size()) - rejected;
    updates->clear();
  }
  // Each worker writes only its own shard's trace lane (grain 1 ==
  // one shard per chunk), so lanes stay single-writer.
  pool_->ParallelFor(
      0, num_shards(), 1, [&](int32_t /*chunk*/, int64_t begin, int64_t end) {
        for (int64_t k = begin; k < end; ++k) {
          Shard& shard = shards_[k];
          const auto shard_id = static_cast<int32_t>(k);
          telemetry::ScopedSpan span(
              tr,
              tr != nullptr
                  ? tr->lane(telemetry::TraceRecorder::LaneForShard(shard_id))
                  : nullptr,
              "ingest.receive", tick_, shard_id, time_);
          const auto shard_arrived = static_cast<int64_t>(shard.route.size());
          span.set_value(static_cast<double>(shard_arrived));
          shard.last_dropped = shard.queue.Receive(&shard.route);
          if (shard.arrivals_counter != nullptr) {
            shard.arrivals_counter->Increment(shard_arrived);
            shard.depth_gauge->Set(static_cast<double>(shard.queue.size()));
            shard.high_watermark_gauge->Set(
                static_cast<double>(shard.queue.high_watermark()));
            if (shard.last_dropped > 0) {
              shard.dropped_counter->Increment(shard.last_dropped);
            }
          }
        }
      });
  if (config_.server.telemetry != nullptr) {
    // Server-wide instruments; each shard counts its own under
    // lira.shard<k> above, and only this serial section emits events
    // (EventSink implementations are single-threaded).
    int64_t dropped = 0;
    for (const Shard& shard : shards_) {
      dropped += shard.last_dropped;
    }
    const size_t depth = queue_size();
    depth_high_watermark_ = std::max(depth_high_watermark_, depth);
    arrivals_counter_->Increment(arrived);
    depth_gauge_->Set(static_cast<double>(depth));
    high_watermark_gauge_->Set(static_cast<double>(depth_high_watermark_));
    if (rejected > 0) {
      rejected_counter_->Increment(rejected);
    }
    if (dropped > 0) {
      dropped_counter_->Increment(dropped);
      config_.server.telemetry->Emit(telemetry::EventKind::kQueueOverflow,
                                     "lira.queue.dropped", time_,
                                     static_cast<double>(dropped),
                                     static_cast<double>(depth));
    }
  }
}

Status ServerCluster::Tick(double dt) {
  // A NaN or infinite dt would poison the clock and every queue's service
  // credit for good.
  if (!std::isfinite(dt) || dt <= 0.0) {
    return InvalidArgumentError("dt must be finite and positive");
  }
  time_ += dt;
  ++tick_;
  telemetry::TraceRecorder* tr = config_.server.trace;
  // Service + apply per shard in parallel: each shard touches only its own
  // queue and staging list, the store lanes (and history lists) of the
  // nodes it owns, relaxed-atomic instruments, and its own trace lane
  // (k + 1), so nothing needs synchronization. owner_of_ is read-only
  // here: lanes are disjoint per owner, so no two shards write one lane.
  pool_->ParallelFor(
      0, num_shards(), 1, [&](int32_t /*chunk*/, int64_t begin, int64_t end) {
        for (int64_t k = begin; k < end; ++k) {
          Shard& shard = shards_[k];
          const auto shard_id = static_cast<int32_t>(k);
          telemetry::TraceLane* lane =
              tr != nullptr
                  ? tr->lane(telemetry::TraceRecorder::LaneForShard(shard_id))
                  : nullptr;
          shard.staged.clear();
          telemetry::ScopedSpan service_span(tr, lane, "ingest.service",
                                             tick_, shard_id, time_);
          shard.queue.Serve(dt, &shard.served);
          service_span.set_value(static_cast<double>(shard.served.size()));
          service_span.Stop();
          telemetry::ScopedSpan apply_span(tr, lane, "tracker.apply", tick_,
                                           shard_id, time_);
          const std::vector<ModelUpdate>& served = shard.served;
          const auto count = static_cast<int32_t>(served.size());
          apply_span.set_value(static_cast<double>(count));
          // Served reports name nodes in random order, so each one's record
          // and owner entry are cache misses. Requesting them this many
          // reports ahead keeps several misses in flight.
          constexpr int32_t kPrefetchAhead = 8;
          for (int32_t i = 0; i < count; ++i) {
            if (i + kPrefetchAhead < count) {
              const NodeId ahead = served[i + kPrefetchAhead].node_id;
              tracker_.PrefetchForWrite(ahead);
              __builtin_prefetch(owner_of_.data() + ahead);
            }
            const ModelUpdate& update = served[i];
            if (owner_of_[update.node_id] == shard_id) {
              ApplyReport(update);
            } else {
              shard.staged.push_back(i);
            }
          }
        }
      });
  telemetry::TraceLane* driver_lane =
      tr != nullptr ? tr->lane(telemetry::TraceRecorder::kDriverLane)
                    : nullptr;
  {
    telemetry::ScopedSpan handoff_span(tr, driver_lane, "tracker.handoffs",
                                       tick_, -1, time_);
    CommitStaged();
  }
  if (snapshot_.has_value()) {
    // The store holds one model per node, so the snapshot holds each node
    // once. The fill runs on the pool the fan-out just released.
    telemetry::ScopedSpan rebuild_span(tr, driver_lane, "tracker.apply",
                                       tick_, -1, time_);
    snapshot_->Rebuild(tracker_, time_, stats_.grid(), pool_);
    rebuild_span.set_value(static_cast<double>(snapshot_->size()));
  }
  if (time_ + 1e-9 >= next_adaptation_) {
    LIRA_RETURN_IF_ERROR(Adapt());
    next_adaptation_ += config_.server.adaptation_period;
  }
  if (config_.server.flight_recorder != nullptr) {
    RecordFlightSamples();
  }
  return OkStatus();
}

void ServerCluster::RecordFlightSamples() {
  telemetry::FlightRecorder* recorder = config_.server.flight_recorder;
  // At S = 1 a shard sample would repeat the coordinator's and halve the
  // ring's postmortem depth.
  const int32_t shard_samples = num_shards() > 1 ? num_shards() : 0;
  for (int32_t k = 0; k < shard_samples; ++k) {
    const Shard& shard = shards_[k];
    telemetry::FlightSample sample;
    sample.tick = tick_;
    sample.time = time_;
    sample.shard = k;
    sample.queue_depth = static_cast<int64_t>(shard.queue.size());
    sample.queue_dropped = shard.queue.total_dropped();
    sample.queue_arrivals = shard.queue.total_arrivals();
    sample.z = z();
    sample.nodes = shard.owned;
    recorder->Record(sample);
  }
  telemetry::FlightSample coord;
  coord.tick = tick_;
  coord.time = time_;
  coord.shard = -1;
  coord.queue_depth = static_cast<int64_t>(queue_size());
  coord.queue_dropped = queue_dropped();
  coord.queue_arrivals = queue_arrivals();
  coord.z = z();
  coord.lambda = last_lambda_;
  coord.utilization = last_lambda_ / config_.server.service_rate;
  coord.nodes = static_cast<int64_t>(stats_.grid().TotalNodes());
  coord.plan_regions = static_cast<int32_t>(plan_.NumRegions());
  coord.plan_min_delta = plan_.MinDelta();
  coord.plan_max_delta = plan_.MaxDelta();
  recorder->Record(coord);
}

bool ServerCluster::ApplyReport(const ModelUpdate& update) {
  // The history keeps itself sorted by t0, so it takes every report; the
  // store then stays equal to the history's latest record.
  if (history_.has_value()) {
    history_->Record(update);
  }
  LIRA_DCHECK(update.node_id >= 0 && update.node_id < tracker_.num_nodes());
  const ModelRecord& held = tracker_.records()[update.node_id];
  if (held.has != 0 && !(update.model.t0 >= held.t0)) {
    return false;
  }
  tracker_.Apply(update);
  return true;
}

void ServerCluster::CommitStaged() {
  // Serial, in shard order, so the outcome is independent of worker
  // timing. Shards serve their queues independently, so a node's report
  // can sit in one shard's backlog while a newer one reaches another
  // shard; ApplyReport keeps such a stale report from undoing the newer
  // model, and then the node stays with its owner.
  for (int32_t k = 0; k < num_shards(); ++k) {
    const Shard& shard = shards_[k];
    for (const int32_t i : shard.staged) {
      const ModelUpdate& update = shard.served[i];
      if (!ApplyReport(update)) {
        continue;
      }
      const NodeId id = update.node_id;
      const int32_t previous = owner_of_[id];
      if (previous == k) {
        continue;
      }
      if (previous >= 0) {
        --shards_[previous].owned;
      }
      owner_of_[id] = k;
      ++shards_[k].owned;
    }
  }
}

Status ServerCluster::Adapt() {
  telemetry::TelemetrySink* t = config_.server.telemetry;
  telemetry::ScopedTimer adapt_timer(t, "lira.adapt.total_seconds", time_);
  telemetry::TraceRecorder* tr = config_.server.trace;
  telemetry::TraceLane* driver_lane =
      tr != nullptr ? tr->lane(telemetry::TraceRecorder::kDriverLane)
                    : nullptr;
  // Rebalance phase (DESIGN.md §12): every R-th adaptation re-splits the
  // strip boundaries from the *previous* adaptation's grid -- the only
  // cross-shard state every thread count agrees on -- then migrates
  // ownership (movers found on the pool, committed serially in ascending
  // id) before this adaptation's rebuild. The first adaptation is skipped
  // (no occupancy yet).
  if (config_.rebalance_stride > 0 && num_shards() > 1 && adaptations_ > 0 &&
      adaptations_ % config_.rebalance_stride == 0) {
    telemetry::ScopedSpan rebalance_span(tr, driver_lane,
                                         "cluster.rebalance", tick_, -1,
                                         time_);
    MaybeRebalance();
    rebalance_span.set_value(static_cast<double>(shard_map_.epoch()));
  }
  {
    telemetry::ScopedSpan throttle_span(tr, driver_lane, "optimizer.throttle",
                                        tick_, -1, time_);
    if (config_.server.auto_throttle) {
      // THROTLOOP sees the *global* arrival window against the global
      // service rate -- sharding must not change the control loop.
      int64_t window_arrivals = 0;
      int64_t window_dropped = 0;
      for (Shard& shard : shards_) {
        window_arrivals += shard.queue.window_arrivals();
        window_dropped += shard.queue.window_dropped();
        shard.queue.ResetWindow();
      }
      const double mu = config_.server.service_rate;
      const double previous_z = throttle_.z();
      last_lambda_ = static_cast<double>(window_arrivals) /
                     config_.server.adaptation_period;
      throttle_.Update(last_lambda_, mu);
      if (t != nullptr) {
        t->SampleGauge("lira.throtloop.lambda", time_, last_lambda_);
        t->SampleGauge("lira.throtloop.utilization", time_,
                       last_lambda_ / mu);
        t->SampleGauge("lira.throtloop.z", time_, throttle_.z());
        t->SampleGauge("lira.queue.window_dropped", time_,
                       static_cast<double>(window_dropped));
        if (throttle_.z() != previous_z) {
          t->Emit(telemetry::EventKind::kZChanged, "lira.throtloop.z", time_,
                  throttle_.z(), last_lambda_);
        }
      }
    } else if (t != nullptr) {
      t->SampleGauge("lira.throtloop.z", time_, config_.server.fixed_z);
    }
    throttle_span.set_value(z());
  }
  {
    telemetry::ScopedTimer stats_timer(t, "lira.adapt.stats_rebuild_seconds",
                                       time_);
    telemetry::ScopedSpan stats_span(tr, driver_lane, "stats.rebuild", tick_,
                                     -1, time_);
    // One grid for the cluster, read from the one store in place. The
    // rebuild runs after the shard fan-out, so it may split the id range
    // across the same pool.
    stats_.RebuildNodes(tracker_, time_, pool_);
    if (t != nullptr) {
      for (const Shard& shard : shards_) {
        shard.nodes_gauge->Set(static_cast<double>(shard.owned));
      }
    }
    {
      telemetry::ScopedTimer query_timer(t, "lira.adapt.query_rebuild_seconds",
                                         time_);
      telemetry::ScopedSpan query_span(tr, driver_lane, "stats.query_rebuild",
                                       tick_, -1, time_);
      stats_.RebuildQueries(*queries_, reduction_->delta_max());
    }
    stats_span.set_value(stats_.grid().TotalNodes());
  }
  Status built;
  {
    telemetry::ScopedSpan plan_span(tr, driver_lane, "optimizer.plan_build",
                                    tick_, -1, time_);
    // The quad build and GRIDREDUCE waves run on the pool the fan-out
    // released. A failed build leaves the plan in force and its accounting
    // untouched.
    const PolicyContext ctx{&stats_.grid(), reduction_, z(), t, time_, pool_};
    const auto start = std::chrono::steady_clock::now();
    auto plan = policy_->BuildPlan(ctx);
    const double build_seconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - start)
                                     .count();
    if (plan.ok()) {
      plan_ = *std::move(plan);
      plan_build_seconds_ += build_seconds;
      ++plan_builds_;
      if (t != nullptr) {
        const auto regions = static_cast<double>(plan_.NumRegions());
        t->RecordSpan("lira.adapt.plan_build_seconds", time_, build_seconds);
        t->SampleGauge("lira.plan.regions", time_, regions);
        t->SampleGauge("lira.plan.min_delta", time_, plan_.MinDelta());
        t->SampleGauge("lira.plan.max_delta", time_, plan_.MaxDelta());
        t->Emit(telemetry::EventKind::kPlanRebuilt, "lira.plan.rebuilt",
                time_, regions, build_seconds);
      }
    } else {
      built = plan.status();
    }
    plan_span.set_value(static_cast<double>(plan_.NumRegions()));
  }
  // The new plan is what every shard (and the encoders) sees from here on.
  telemetry::RecordInstant(tr, driver_lane, "plan.broadcast", tick_, -1,
                           time_, static_cast<double>(plan_.NumRegions()));
  ++adaptations_;
  return built;
}

double ServerCluster::SpanImbalance(
    const std::vector<int64_t>& column_load) const {
  int64_t total = 0;
  int64_t max_span = 0;
  for (int32_t k = 0; k < num_shards(); ++k) {
    int64_t span = 0;
    for (int32_t c = shard_map_.ColumnBegin(k); c < shard_map_.ColumnEnd(k);
         ++c) {
      span += column_load[c];
    }
    total += span;
    max_span = std::max(max_span, span);
  }
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(max_span) * num_shards() /
         static_cast<double>(total);
}

void ServerCluster::MaybeRebalance() {
  std::vector<int64_t> column_load;
  stats_.grid().ColumnNodeCounts(&column_load);
  const double before = SpanImbalance(column_load);
  const int32_t moved =
      shard_map_.Rebalance(column_load, config_.rebalance_max_moves);
  if (moved == 0) {
    return;
  }
  const double after = SpanImbalance(column_load);
  const int64_t migrated = MigrateOwnership();
  ++rebalances_;
  nodes_migrated_ += migrated;
  if (config_.server.telemetry != nullptr) {
    rebalance_epochs_counter_->Increment(1);
    rebalance_columns_counter_->Increment(moved);
    rebalance_migrated_counter_->Increment(migrated);
    config_.server.telemetry->Emit(
        telemetry::EventKind::kCounter, "lira.cluster.rebalance", time_,
        static_cast<double>(moved), static_cast<double>(migrated));
  }
  if (config_.server.flight_recorder != nullptr) {
    telemetry::RebalanceRecord record;
    record.tick = tick_;
    record.time = time_;
    record.epoch = shard_map_.epoch();
    record.columns_moved = moved;
    record.nodes_migrated = migrated;
    record.imbalance_before = before;
    record.imbalance_after = after;
    config_.server.flight_recorder->RecordRebalance(record);
  }
}

int64_t ServerCluster::MigrateOwnership() {
  // One pass on the pool: each chunk of ids routes its owned nodes' origins
  // through the new map and rewrites the owner entries of those that route
  // elsewhere. Chunks write disjoint owner entries and tally their own
  // ownership changes, summed after the join, so the result is the serial
  // walk's at any thread count. No model moves, so the grid is untouched:
  // its per-node rebuild state is keyed by id, and the unchanged model
  // leaves its cell alone at this adaptation's rebuild.
  const ModelRecord* records = tracker_.records();
  const int32_t s = num_shards();
  // Per chunk: the owned-count change of each shard, then the movers.
  std::vector<int64_t> tallies(
      static_cast<size_t>(pool_->num_threads()) * (s + 1), 0);
  pool_->ParallelFor(
      0, config_.server.num_nodes, kMigrationScanGrain,
      [&](int32_t chunk, int64_t begin, int64_t end) {
        // Counted locally: neighbouring chunks' slices share cache lines.
        std::vector<int64_t> tally(s + 1, 0);
        for (int64_t id = begin; id < end; ++id) {
          const int32_t previous = owner_of_[id];
          if (previous < 0) {
            continue;
          }
          const int32_t next = shard_map_.ShardFor(
              Point{records[id].origin_x, records[id].origin_y});
          if (next != previous) {
            owner_of_[id] = next;
            --tally[previous];
            ++tally[next];
            ++tally[s];
          }
        }
        std::copy(tally.begin(), tally.end(),
                  tallies.begin() + chunk * (s + 1));
      });
  int64_t migrated = 0;
  for (size_t base = 0; base < tallies.size(); base += s + 1) {
    for (int32_t k = 0; k < s; ++k) {
      shards_[k].owned += tallies[base + k];
    }
    migrated += tallies[base + s];
  }
  return migrated;
}

ClusterHealth ServerCluster::HealthSnapshot() const {
  ClusterHealth health;
  health.time = time_;
  health.tick = tick_;
  health.num_shards = num_shards();
  health.z = z();
  health.map_epoch = shard_map_.epoch();
  health.rebalances = rebalances_;
  health.nodes_migrated = nodes_migrated_;
  health.shards.reserve(shards_.size());
  for (int32_t k = 0; k < num_shards(); ++k) {
    ShardHealth shard;
    shard.shard = k;
    shard.nodes_owned = shards_[k].owned;
    shard.queue_depth = static_cast<int64_t>(shards_[k].queue.size());
    shard.queue_arrivals = shards_[k].queue.total_arrivals();
    shard.queue_dropped = shards_[k].queue.total_dropped();
    shard.col_begin = shard_map_.ColumnBegin(k);
    shard.col_end = shard_map_.ColumnEnd(k);
    health.shards.push_back(shard);
    health.total_nodes += shard.nodes_owned;
    health.max_shard_nodes =
        std::max(health.max_shard_nodes, shard.nodes_owned);
  }
  health.tracker_bytes =
      static_cast<int64_t>(tracker_.MemoryBytes());
  health.bytes_per_node =
      static_cast<double>(health.tracker_bytes) /
      std::max<int32_t>(1, config_.server.num_nodes);
  health.mean_shard_nodes =
      static_cast<double>(health.total_nodes) / num_shards();
  health.imbalance_ratio =
      health.mean_shard_nodes > 0.0
          ? static_cast<double>(health.max_shard_nodes) /
                health.mean_shard_nodes
          : 0.0;
  return health;
}

size_t ServerCluster::queue_size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.queue.size();
  }
  return total;
}

int64_t ServerCluster::queue_arrivals() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.queue.total_arrivals();
  }
  return total;
}

int64_t ServerCluster::queue_dropped() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.queue.total_dropped();
  }
  return total;
}

int64_t ServerCluster::updates_applied() const {
  // Every served update counts once, whether its owner wrote it, its commit
  // wrote it, or a newer model outranked it.
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.queue.total_served();
  }
  return total;
}

StatusOr<std::vector<NodeId>> ServerCluster::AnswerRange(const Rect& range,
                                                         double t) const {
  if (!snapshot_.has_value()) {
    return FailedPreconditionError("server index maintenance is disabled");
  }
  if (t + 1e-9 < time_) {
    return InvalidArgumentError(
        "snapshot time is in the past; use the history store for "
        "historical queries");
  }
  if (t == snapshot_->time()) {
    return snapshot_->Range(stats_.grid(), range);
  }
  const int32_t n = snapshot_->num_nodes();
  std::vector<double> x(n);
  std::vector<double> y(n);
  std::vector<uint8_t> known(n);
  FillBelievedInto(0, n, t, x.data(), y.data(), known.data());
  std::vector<NodeId> out;
  for (NodeId id = 0; id < n; ++id) {
    if (known[id] != 0 && range.Contains({x[id], y[id]})) {
      out.push_back(id);
    }
  }
  return out;
}

StatusOr<std::vector<NodeId>> ServerCluster::AnswerQuery(
    QueryId query) const {
  if (!snapshot_.has_value()) {
    return FailedPreconditionError("server index maintenance is disabled");
  }
  if (query < 0 || query >= queries_->size()) {
    return InvalidArgumentError("unknown query id: " + std::to_string(query));
  }
  return AnswerRange(queries_->Get(query).range, time_);
}

StatusOr<std::vector<NodeId>> ServerCluster::AnswerHistoricalRange(
    const Rect& range, double t) const {
  if (history() == nullptr) {
    return FailedPreconditionError("history recording is disabled");
  }
  if (t > time_ + 1e-9) {
    return InvalidArgumentError("historical time is in the future");
  }
  return history()->RangeAt(range, t);
}

}  // namespace lira
