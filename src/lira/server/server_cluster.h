// The CQ server (paper Section 2.2, first layer), region-sharded
// (DESIGN.md §9).
//
// S shard queues -- each an UpdateQueue with capacity ceil(B/S), service
// rate mu/S and its own seed stream -- fed by a spatial ShardMap that routes
// each update by its model origin to the shard owning that statistics-grid
// column strip. The cluster holds one model store (a PositionTracker) and
// one optional HistoryStore, both indexed by node id, one StatsStage, the
// THROTLOOP controller and the plan in force. One adaptation is one control
// step (paper Section 3.4): rebalance, throttle (z from the summed queue
// window), statistics (the one global grid, rebuilt from the store in
// place), plan (ONE global SheddingPlan under the global budget
// z * n * f(delta) and the fairness constraint, so shard boundaries never
// fragment the optimizer's view), broadcast. The single server is the
// S = 1 case (CqServer, cq_server.h); nothing here special-cases it.
//
// Shards own lanes of the store, not copies of it. owner_of_ names the
// shard that may write each node's lane. In the parallel fan-out a shard
// writes the lanes of the nodes it owned at tick start and stages its
// other updates; after the join the staged updates are committed serially
// in shard order. Every write goes through ApplyReport, the one rule for
// which report a model keeps: the history records every served
// report, and a report replaces the model unless the model in place has a
// later t0 (ties go to the later write). A staged report that replaces the
// model moves the node's ownership; a handoff or a migration is an
// owner-map write and copies no model. After each tick's commit, with
// maintain_index on, the cluster rebuilds one global believed-position
// SnapshotGrid from the store; every range query scans it, so shard
// boundaries never split a query (DESIGN.md §12).
//
// Determinism contract: all cross-shard work (routing, the staged commit,
// throttle-window summation) is ordered by shard index, every shard's
// random stream is a pure function of (config seed, shard index), and the
// parallel sections touch only per-shard state, the lanes a shard owns and
// atomic instruments (or, in the pooled snapshot fill and migration pass,
// disjoint id blocks). Hence results are bitwise identical for any worker
// thread count, with or without a lent pool.

#ifndef LIRA_SERVER_SERVER_CLUSTER_H_
#define LIRA_SERVER_SERVER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/parallel.h"
#include "lira/common/status.h"
#include "lira/core/policy.h"
#include "lira/core/shedding_plan.h"
#include "lira/core/statistics_grid.h"
#include "lira/core/throt_loop.h"
#include "lira/cq/query_registry.h"
#include "lira/mobility/position.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/motion/linear_model.h"
#include "lira/motion/update_reduction.h"
#include "lira/server/cluster_health.h"
#include "lira/server/history_store.h"
#include "lira/server/shard_map.h"
#include "lira/server/snapshot_grid.h"
#include "lira/server/stats_stage.h"
#include "lira/server/update_queue.h"
#include "lira/telemetry/flight_recorder.h"
#include "lira/telemetry/telemetry.h"
#include "lira/telemetry/trace.h"

namespace lira {

struct CqServerConfig {
  int32_t num_nodes = 0;
  Rect world;
  /// Statistics-grid resolution (power of two).
  int32_t alpha = 128;
  /// Input queue capacity B.
  size_t queue_capacity = 500;
  /// Service rate mu, updates/second.
  double service_rate = 1000.0;
  /// Seconds between adaptation steps (plan rebuilds).
  double adaptation_period = 30.0;
  /// When true, z comes from THROTLOOP; otherwise fixed_z is used.
  bool auto_throttle = false;
  double fixed_z = 0.5;
  /// When true the server keeps a range index, so AnswerQuery/AnswerRange
  /// work: a snapshot grid of every node's believed position, rebuilt at the
  /// end of every tick in O(n) (snapshot_grid.h). Turning it off saves the
  /// rebuild and its arrays for deployments that evaluate queries
  /// elsewhere; the answer calls then return FailedPrecondition.
  bool maintain_index = true;
  /// When true the server retains every served motion model in a
  /// HistoryStore, enabling historical snapshot queries (the capability the
  /// paper's fairness threshold protects, Section 3.1.1).
  bool record_history = false;
  /// Fraction of tracked nodes fed into the statistics grid at each
  /// adaptation (paper Section 3.2.1: "the statistics can easily be
  /// approximated using sampling"); counts are scaled by the inverse so the
  /// optimizer sees unbiased totals. 1.0 = exact maintenance.
  double stats_sample_fraction = 1.0;
  /// When true (and stats_sample_fraction == 1.0) the statistics grid is
  /// delta-maintained across adaptations: each node's previous contribution
  /// is relocated only when its cell or quantized speed changed, instead of
  /// ClearNodes() + full repopulation. Bitwise identical to the rebuild
  /// (integer grid accumulators; neither path consumes stats RNG at
  /// fraction 1.0). Sampled statistics fall back to the rebuild.
  bool incremental_stats = true;
  /// Optional telemetry (not owned; must outlive the server). When set, the
  /// server maintains server-wide `lira.queue.*` instruments on every
  /// ReceiveBatch, per-shard `lira.shard<k>.*` ones and coordinator-owned
  /// `lira.coord.*` ones, and records the adaptation loop -- z trajectory,
  /// per-stage plan-build spans, plan shape gauges, typed events (DESIGN.md
  /// §6). nullptr disables all instrumentation at the cost of a pointer
  /// test.
  telemetry::TelemetrySink* telemetry = nullptr;
  /// Optional span tracer (not owned; must outlive the server) with at
  /// least shards + 1 lanes. When set, every tick and adaptation records
  /// per-stage wall-time spans stamped with (tick, shard): the coordinator
  /// writes lane 0 and shard k writes lane k + 1 (DESIGN.md §10). nullptr
  /// costs one pointer test per stage.
  telemetry::TraceRecorder* trace = nullptr;
  /// Optional flight recorder (not owned; must outlive the server). When
  /// set, every tick appends one coordinator FlightSample (queue depth and
  /// drops, z, lambda, utilization, node count, plan shape) to the ring,
  /// preceded by one sample per shard when there is more than one, so a
  /// crash or chaos event leaves a postmortem of the last N ticks.
  telemetry::FlightRecorder* flight_recorder = nullptr;
  uint64_t seed = 1234;
  /// Optional worker pool (not owned; must outlive the server). When set,
  /// the server runs every parallel section on it -- the shard fan-out, the
  /// columnar statistics rebuild, the plan build's quad-tree and GRIDREDUCE
  /// waves, the per-tick snapshot fill and the ownership migration -- and
  /// owns no pool of its own. The server calls ParallelFor only from
  /// ReceiveBatch, Tick and Adapt, so those must not run inside another
  /// section of the same pool. Plans, statistics and answers are bitwise
  /// identical for every thread count (and without a pool).
  ThreadPool* pool = nullptr;
};

struct ServerClusterConfig {
  /// Global parameters; queue_capacity, service_rate and seed are divided /
  /// mixed across shards (see server_cluster.cc). The telemetry sink, when
  /// set, additionally gains per-shard `lira.shard<k>.*` instruments (the
  /// shard id is a label dimension the Prometheus exporter folds back into
  /// `{shard="k"}`, telemetry/exposition.h) and coordinator-owned
  /// `lira.coord.*` instruments for the statistics stage.
  CqServerConfig server;
  /// Number of spatial shards S, in [1, alpha].
  int32_t shards = 1;
  /// Worker threads the cluster owns when server.pool is unset: min(threads,
  /// shards), with 0 = hardware concurrency. Ignored when server.pool is
  /// set. Results are identical for any value.
  int32_t threads = 0;
  /// Shard-map rebalancing stride R (DESIGN.md §12): every R adaptation
  /// windows the coordinator re-splits the grid columns across shards from
  /// the grid's integer per-column occupancy. 0 (default) disables
  /// rebalancing entirely -- the map stays the initial even split. The
  /// decision consumes only integer grid state, so any thread count
  /// produces the identical map sequence.
  int32_t rebalance_stride = 0;
  /// Hysteresis bound: max columns each strip boundary may travel per
  /// rebalance epoch.
  int32_t rebalance_max_moves = 2;
};

/// Drives S shard queues over one model store. Movable: the worker
/// pool it may own sits behind a pointer.
class ServerCluster {
 public:
  /// `policy`, `reduction` and `queries` must outlive the server. The
  /// registry may gain queries while the server runs; the statistics grid
  /// refreshes its query counts at every adaptation.
  static StatusOr<std::unique_ptr<ServerCluster>> Create(
      const ServerClusterConfig& config, const LoadSheddingPolicy* policy,
      const UpdateReductionFunction* reduction,
      const QueryRegistry* queries);

  ServerCluster(ServerCluster&&) = default;
  ServerCluster& operator=(ServerCluster&&) = default;

  /// Points the server at a (possibly different) query registry -- the CQ
  /// workload changed. Takes effect at the next adaptation step (or an
  /// explicit Adapt()). The registry must outlive the server.
  Status InstallQueries(const QueryRegistry* queries);

  /// Admits one tick's batch of position updates, consuming `*updates` in
  /// place (elements moved from, buffer cleared) so the caller can reuse
  /// its capacity across ticks. Updates with a node id outside
  /// [0, num_nodes) or a non-finite origin, velocity or t0 are rejected
  /// before routing: counted in queue_rejected() and never an arrival. The
  /// rest route to their shards' queues, which drop what they cannot hold.
  void ReceiveBatch(std::vector<ModelUpdate>* updates);
  /// As ReceiveBatch with an owned batch.
  void Receive(std::vector<ModelUpdate> updates) { ReceiveBatch(&updates); }

  /// Advances the clock by dt seconds: services the queues, applies the
  /// served updates, and runs the adaptation step when the period elapses.
  Status Tick(double dt);
  /// Forces an adaptation step immediately (also used internally).
  Status Adapt();

  double time() const { return time_; }
  /// Ticks processed so far (the frame stamp on trace spans).
  int64_t ticks() const { return tick_; }
  /// Throttle fraction currently in force: THROTLOOP's under auto_throttle,
  /// the configured fixed_z otherwise.
  double z() const {
    return config_.server.auto_throttle ? throttle_.z()
                                        : config_.server.fixed_z;
  }
  /// The active (global) shedding plan.
  const SheddingPlan& plan() const { return plan_; }
  /// The server's one model store.
  const PositionTracker& tracker() const { return tracker_; }
  /// The history store, or nullptr when record_history is off.
  const HistoryStore* history() const {
    return history_.has_value() ? &*history_ : nullptr;
  }
  /// The statistics grid (valid after an adaptation).
  const StatisticsGrid& stats() const { return stats_.grid(); }

  /// The believed position of a node at time t; nullopt when the node has
  /// not reported (or its updates were shed).
  std::optional<Point> BelievedPositionAt(NodeId id, double t) const {
    return tracker_.PredictAt(id, t);
  }
  /// Bulk BelievedPositionAt over the id range [begin, begin + n): writes
  /// the believed position columns and the known mask (lane i is node
  /// begin + i; out slots of unknown lanes are unspecified), predicting the
  /// store's records in place (PositionTracker::PredictSpan). Reads only,
  /// so disjoint id ranges may fill concurrently.
  void FillBelievedInto(NodeId begin, int64_t n, double t, double* out_x,
                        double* out_y, uint8_t* known) const {
    tracker_.PredictSpan(begin, n, t, /*fallback_x=*/nullptr,
                         /*fallback_y=*/nullptr, out_x, out_y, known);
  }

  /// Queue accounting, summed over the shards.
  size_t queue_size() const;
  int64_t queue_arrivals() const;
  int64_t queue_dropped() const;
  /// Malformed updates ReceiveBatch rejected before routing.
  int64_t queue_rejected() const { return rejected_; }
  /// Every served update, whether it replaced a model or not.
  int64_t updates_applied() const;
  /// Cumulative time spent building plans (seconds) and number of builds,
  /// for the server-side-cost experiments.
  int64_t plan_builds() const { return plan_builds_; }
  double total_plan_build_seconds() const { return plan_build_seconds_; }

  /// Answers an installed continual query at the server's current time.
  /// Requires maintain_index; InvalidArgument for an unknown query id.
  /// Otherwise as AnswerRange at time().
  StatusOr<std::vector<NodeId>> AnswerQuery(QueryId query) const;

  /// Ids whose believed position at time t lies in `range`
  /// (Rect::Contains), ascending. Checks run in this order:
  ///  1. FailedPrecondition when maintain_index is off;
  ///  2. InvalidArgument for a time before time() (past times belong to the
  ///     history store).
  /// Scanned from the snapshot grid at time(), filtered from an O(n)
  /// FillBelievedInto pass at any later time.
  StatusOr<std::vector<NodeId>> AnswerRange(const Rect& range,
                                            double t) const;

  /// Historical snapshot range query at a past time t. Requires
  /// record_history.
  StatusOr<std::vector<NodeId>> AnswerHistoricalRange(const Rect& range,
                                                      double t) const;

  /// Point-in-time cluster health: per-shard occupancy / queue state plus
  /// load-skew statistics (max/mean owned nodes and their imbalance ratio).
  /// Serializable via WriteHealthJson / WriteHealthPrometheus
  /// (cluster_health.h). O(shards).
  ClusterHealth HealthSnapshot() const;

  int32_t num_shards() const {
    return static_cast<int32_t>(shards_.size());
  }
  const ShardMap& shard_map() const { return shard_map_; }
  /// Rebalance accounting (0 / epoch 0 while rebalance_stride == 0).
  int64_t map_epoch() const { return shard_map_.epoch(); }
  int64_t rebalances() const { return rebalances_; }
  int64_t nodes_migrated() const { return nodes_migrated_; }
  /// One shard's queue, for tests and diagnostics.
  const UpdateQueue& shard_queue(int32_t shard) const {
    return shards_[shard].queue;
  }

 protected:
  /// Create's validation and construction, returning the server by value.
  static StatusOr<ServerCluster> Build(const ServerClusterConfig& config,
                                       const LoadSheddingPolicy* policy,
                                       const UpdateReductionFunction* reduction,
                                       const QueryRegistry* queries);

 private:
  struct Shard {
    UpdateQueue queue;
    /// Nodes this shard owns (owner_of_ entries equal to its index).
    int64_t owned = 0;
    /// Batch routing scratch, reused across ticks.
    std::vector<ModelUpdate> route;
    /// The updates served this tick, reused across ticks. Valid until the
    /// next tick's Serve, so after the fan-out joins too.
    std::vector<ModelUpdate> served;
    /// Indices into `served` of the updates for nodes the shard did not own
    /// at tick start, in serve order; committed after the fan-out joins.
    /// Reused.
    std::vector<int32_t> staged;
    /// Receive fan-out scratch: drops admitted this batch.
    int64_t last_dropped = 0;
    /// `lira.shard<k>.*` instruments, resolved once; null when telemetry
    /// is off.
    telemetry::Counter* arrivals_counter = nullptr;
    telemetry::Counter* dropped_counter = nullptr;
    telemetry::Gauge* depth_gauge = nullptr;
    telemetry::Gauge* high_watermark_gauge = nullptr;
    /// Owned-node gauge, set after each adaptation's rebuild.
    telemetry::Gauge* nodes_gauge = nullptr;
  };

  ServerCluster(const ServerClusterConfig& config,
                const LoadSheddingPolicy* policy,
                const UpdateReductionFunction* reduction,
                const QueryRegistry* queries, ShardMap shard_map,
                std::vector<Shard> shards, StatsStage stats,
                ThrotLoop throttle, SheddingPlan plan);

  /// Writes one served report: records it in the history (when enabled),
  /// and replaces the node's model unless the model in place has a later t0.
  /// Ties go to the later write, and a NaN t0 replaces nothing. Returns
  /// whether the model was replaced. Touches only the report's node, so
  /// shards call it concurrently for the lanes they own.
  bool ApplyReport(const ModelUpdate& update);
  /// The deterministic rebalance step (start of every R-th adaptation):
  /// re-splits the map from the grid's column occupancy, migrates
  /// ownership, and records flight/telemetry.
  void MaybeRebalance();
  /// Hands every owned node whose origin now routes to another shard to
  /// that shard; returns the migration count. One pool-parallel pass over
  /// the store's records rewrites owner entries; no model moves.
  int64_t MigrateOwnership();
  /// max/mean per-shard load under the *current* strip boundaries, from
  /// per-column loads (1.0 = balanced, 0 when total load is 0).
  double SpanImbalance(const std::vector<int64_t>& column_load) const;
  /// Serial post-fan-out pass: applies every shard's staged updates, in
  /// shard order and each shard's serve order. An update that replaces the
  /// node's model moves the node's ownership to its shard.
  void CommitStaged();
  /// Appends end-of-tick FlightSamples: one per shard in shard order when
  /// S > 1 (so ring contents are deterministic), then one coordinator
  /// sample (shard -1).
  void RecordFlightSamples();

  ServerClusterConfig config_;
  const LoadSheddingPolicy* policy_;
  const UpdateReductionFunction* reduction_;
  const QueryRegistry* queries_;
  ShardMap shard_map_;
  std::vector<Shard> shards_;
  /// The cluster's one model store and history; shards write the lanes
  /// owner_of_ gives them, through ApplyReport only.
  PositionTracker tracker_;
  std::optional<HistoryStore> history_;
  /// Coordinator-owned: the cluster's only grid (+ query-count cache).
  StatsStage stats_;
  /// THROTLOOP; steps only under auto_throttle.
  ThrotLoop throttle_;
  /// The plan in force: uniform at the reduction's delta_min (maximum
  /// accuracy) until the first adaptation builds one.
  SheddingPlan plan_;
  /// Arrival rate (upd/s) of the last THROTLOOP window; 0 until the first
  /// THROTLOOP step, so always 0 in fixed mode.
  double last_lambda_ = 0.0;
  /// Plan-build accounting: successful builds and their summed seconds.
  double plan_build_seconds_ = 0.0;
  int64_t plan_builds_ = 0;
  /// The pool the cluster built when config.server.pool is unset.
  std::unique_ptr<ThreadPool> owned_pool_;
  /// Every parallel section's pool: config.server.pool or owned_pool_.
  ThreadPool* pool_;
  double time_ = 0.0;
  int64_t tick_ = 0;
  double next_adaptation_;
  /// The shard that may write each node's lane; -1 until the node's first
  /// update is committed, and thereafter exactly when the store holds a
  /// model for it.
  std::vector<int32_t> owner_of_;
  /// Malformed updates rejected at ReceiveBatch.
  int64_t rejected_ = 0;
  /// Largest total queue depth seen after any ReceiveBatch (telemetry on).
  size_t depth_high_watermark_ = 0;
  /// Adaptations completed (the rebalance stride counts these).
  int64_t adaptations_ = 0;
  /// Cumulative rebalance accounting.
  int64_t rebalances_ = 0;
  int64_t nodes_migrated_ = 0;
  /// The range index over every node with a model; nullopt when
  /// maintain_index is off.
  std::optional<SnapshotGrid> snapshot_;
  /// Server-wide instruments (sums over shards), resolved once.
  telemetry::Counter* arrivals_counter_ = nullptr;
  telemetry::Counter* dropped_counter_ = nullptr;
  telemetry::Counter* rejected_counter_ = nullptr;
  telemetry::Gauge* depth_gauge_ = nullptr;
  telemetry::Gauge* high_watermark_gauge_ = nullptr;
  telemetry::Counter* rebalance_epochs_counter_ = nullptr;
  telemetry::Counter* rebalance_columns_counter_ = nullptr;
  telemetry::Counter* rebalance_migrated_counter_ = nullptr;
};

}  // namespace lira

#endif  // LIRA_SERVER_SERVER_CLUSTER_H_
