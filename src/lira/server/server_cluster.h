// Region-sharded CQ server cluster (DESIGN.md §9).
//
// S shard ingest stages -- each with its own bounded queue (capacity
// ceil(B/S)), service rate mu/S, and seed stream -- fed by a spatial
// ShardMap that routes each update by its model origin to the shard owning
// that statistics-grid column strip. The cluster holds one TrackerStage
// (one model store and one history, indexed by node id), one StatsStage
// and one OptimizerStage: at each adaptation it rebuilds the one global
// grid from the store in place, and builds ONE global SheddingPlan under
// the global budget z * n * f(delta) and the fairness constraint, so shard
// boundaries never fragment the optimizer's view.
//
// Shards own lanes of the store, not copies of it. owner_of_ names the
// shard that may write each node's lane. In the parallel fan-out a shard
// writes the lanes of the nodes it owned at tick start and stages its
// other updates; after the join the staged updates are committed serially
// in shard order, and one replaces a lane's model only if it is not older
// (ties go to the later commit). A committed update moves the node's
// ownership; a handoff or a migration is an owner-map write and copies no
// model. After each tick's commit, with maintain_index on, the cluster
// rebuilds one global believed-position SnapshotGrid from the store; every
// range query scans it, so shard boundaries never split a query
// (DESIGN.md §12).
//
// Determinism contract: all cross-shard work (routing, the staged commit,
// throttle-window summation) is ordered by shard index, every shard's
// random stream is a pure function of (config seed, shard index), and the
// parallel sections touch only per-shard state, the lanes a shard owns and
// atomic instruments (or, in the pooled snapshot fill and migration pass,
// disjoint id blocks). Hence results are bitwise identical for any worker
// thread count, and an S=1 cluster is bitwise identical to a plain CqServer
// with the same config (asserted in tests/server/server_cluster_test and
// sim/simulation_test).

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
#include "lira/cq/query_registry.h"
#include "lira/mobility/position.h"
#include "lira/motion/linear_model.h"
#include "lira/motion/update_reduction.h"
#include "lira/server/cluster_health.h"
#include "lira/server/cq_server.h"
#include "lira/server/ingest_stage.h"
#include "lira/server/optimizer_stage.h"
#include "lira/server/server_pipeline.h"
#include "lira/server/shard_map.h"
#include "lira/server/snapshot_grid.h"
#include "lira/server/stats_stage.h"
#include "lira/server/tracker_stage.h"
#include "lira/telemetry/telemetry.h"

namespace lira {

struct ServerClusterConfig {
  /// Global parameters; queue_capacity, service_rate and seed are divided /
  /// mixed across shards (see server_cluster.cc). The telemetry sink, when
  /// set, additionally gains per-shard `lira.shard<k>.*` instruments (the
  /// shard id is a label dimension the Prometheus exporter folds back into
  /// `{shard="k"}`, telemetry/exposition.h) and coordinator-owned
  /// `lira.coord.*` instruments for the statistics stage. The trace
  /// recorder, when set, needs shards + 1 lanes: shard k records its
  /// parallel-section spans into lane k + 1 and the coordinator into lane 0.
  CqServerConfig server;
  /// Number of spatial shards S, in [1, alpha].
  int32_t shards = 1;
  /// Worker threads for the per-shard fan-out sections; 0 = min(hardware
  /// concurrency, shards). Results are identical for any value.
  int32_t threads = 0;
  /// Shard-map rebalancing stride R (DESIGN.md §12): every R adaptation
  /// windows the coordinator re-splits the grid columns across shards from
  /// the grid's integer per-column occupancy. 0 (default) disables
  /// rebalancing entirely -- the map stays the initial even split and every
  /// observable output is unchanged from earlier versions. The decision
  /// consumes only integer grid state, so any thread count produces the
  /// identical map sequence.
  int32_t rebalance_stride = 0;
  /// Hysteresis bound: max columns each strip boundary may travel per
  /// rebalance epoch.
  int32_t rebalance_max_moves = 2;
};

/// The cluster facade; drives S shard ingest stages over one model store
/// behind the same interface a single CqServer implements. Not movable
/// (owns a ThreadPool).
class ServerCluster : public ServerPipeline {
 public:
  static StatusOr<std::unique_ptr<ServerCluster>> Create(
      const ServerClusterConfig& config, const LoadSheddingPolicy* policy,
      const UpdateReductionFunction* reduction,
      const QueryRegistry* queries);

  ServerCluster(const ServerCluster&) = delete;
  ServerCluster& operator=(const ServerCluster&) = delete;

  Status InstallQueries(const QueryRegistry* queries) override;
  void ReceiveBatch(std::vector<ModelUpdate>* updates) override;
  Status Tick(double dt) override;
  Status Adapt() override;

  double time() const override { return time_; }
  double z() const override { return optimizer_.z(); }
  const SheddingPlan& plan() const override { return optimizer_.plan(); }
  std::optional<Point> BelievedPositionAt(NodeId id,
                                          double t) const override;
  /// Columnar BelievedPositionAt: predicts the store's lanes in place with
  /// the PredictPositions kernel, as CqServer does. Bitwise equal to the
  /// per-id loop. Reads only, so disjoint id ranges may fill concurrently.
  void FillBelievedInto(NodeId begin, int64_t n, double t, double* out_x,
                        double* out_y, uint8_t* known) const override;
  size_t queue_size() const override;
  int64_t queue_arrivals() const override;
  int64_t queue_dropped() const override;
  int64_t updates_applied() const override;
  int64_t plan_builds() const override { return optimizer_.plan_builds(); }
  double total_plan_build_seconds() const override {
    return optimizer_.total_plan_build_seconds();
  }
  bool records_history() const override {
    return config_.server.record_history;
  }
  std::vector<NodeId> HistoricalRangeAt(const Rect& range,
                                        double t) const override;
  std::optional<Point> HistoricalPositionAt(NodeId id,
                                            double t) const override;
  int64_t history_bytes() const override;

  /// Ad-hoc snapshot range query at t >= now over the cluster's one
  /// snapshot grid, where each node appears once. Requires maintain_index.
  /// The contract is CqServer's: AnswerSnapshotRange (snapshot_grid.h). On
  /// the same belief state the answer equals the unsharded CqServer's.
  StatusOr<std::vector<NodeId>> AnswerRange(const Rect& range,
                                            double t) const;

  /// Evaluates a *registered* query (by id) at the current time:
  /// AnswerSnapshotQuery (snapshot_grid.h).
  StatusOr<std::vector<NodeId>> AnswerQuery(QueryId query) const;

  /// Historical snapshot range query at a past time t (Status-checked
  /// variant of HistoricalRangeAt). Requires record_history.
  StatusOr<std::vector<NodeId>> AnswerHistoricalRange(const Rect& range,
                                                      double t) const;

  /// Point-in-time cluster health: per-shard occupancy / queue state plus
  /// load-skew statistics (max/mean owned nodes and their imbalance ratio).
  /// Serializable via WriteHealthJson / WriteHealthPrometheus
  /// (cluster_health.h). O(shards).
  ClusterHealth HealthSnapshot() const;

  /// Ticks processed so far (the frame stamp on trace spans).
  int64_t ticks() const { return tick_; }

  int32_t num_shards() const {
    return static_cast<int32_t>(shards_.size());
  }
  const ShardMap& shard_map() const { return shard_map_; }
  /// Rebalance accounting (0 / epoch 0 while rebalance_stride == 0).
  int64_t map_epoch() const { return shard_map_.epoch(); }
  int64_t rebalances() const { return rebalances_; }
  int64_t nodes_migrated() const { return nodes_migrated_; }
  /// The cluster's statistics grid (valid after an adaptation).
  const StatisticsGrid& stats() const { return stats_.grid(); }
  /// One shard's queue, for tests and diagnostics.
  const UpdateQueue& shard_queue(int32_t shard) const {
    return shards_[shard].ingest.queue();
  }

 private:
  struct Shard {
    IngestStage ingest;
    /// Nodes this shard owns (owner_of_ entries equal to its index).
    int64_t owned = 0;
    /// Batch routing scratch, reused across ticks.
    std::vector<ModelUpdate> route;
    /// The updates served this tick, reused across ticks.
    std::vector<ModelUpdate> served;
    /// Served updates for nodes the shard did not own at tick start, in
    /// serve order; committed after the fan-out joins. Reused.
    std::vector<ModelUpdate> staged;
    /// Receive fan-out scratch: drops admitted this batch.
    int64_t last_dropped = 0;
  };

  ServerCluster(const ServerClusterConfig& config,
                const LoadSheddingPolicy* policy,
                const UpdateReductionFunction* reduction,
                const QueryRegistry* queries, ShardMap shard_map,
                std::vector<Shard> shards, TrackerStage tracker,
                StatsStage stats, OptimizerStage optimizer,
                int32_t pool_threads);

  double QueryMargin() const;
  /// The deterministic rebalance step (start of every R-th adaptation):
  /// re-splits the map from the grid's column occupancy, migrates
  /// ownership, and records flight/telemetry.
  void MaybeRebalance();
  /// Hands every owned node whose origin now routes to another shard to
  /// that shard; returns the migration count. One pool-parallel pass over
  /// the store's origin columns rewrites owner entries; no model moves.
  int64_t MigrateOwnership();
  /// max/mean per-shard load under the *current* strip boundaries, from
  /// per-column loads (1.0 = balanced, 0 when total load is 0).
  double SpanImbalance(const std::vector<int64_t>& column_load) const;
  /// Serial post-fan-out pass: commits every shard's staged updates, in
  /// shard order and each shard's serve order. An update is written when
  /// the node has no model or its t0 is at least the model's; a written
  /// update moves the node's ownership to its shard. Older ones are
  /// discarded.
  void CommitStaged();
  /// Appends end-of-tick FlightSamples, serially in shard order (so ring
  /// contents are deterministic), then one coordinator sample (shard -1).
  void RecordFlightSamples();

  ServerClusterConfig config_;
  const LoadSheddingPolicy* policy_;
  const UpdateReductionFunction* reduction_;
  const QueryRegistry* queries_;
  ShardMap shard_map_;
  std::vector<Shard> shards_;
  /// The cluster's one model store and history; shards write the lanes
  /// owner_of_ gives them.
  TrackerStage tracker_;
  /// Coordinator-owned: the cluster's only grid (+ query-count cache).
  StatsStage stats_;
  OptimizerStage optimizer_;
  ThreadPool pool_;
  double time_ = 0.0;
  int64_t tick_ = 0;
  double next_adaptation_;
  /// The shard that may write each node's lane; -1 until the node's first
  /// update is committed, and thereafter exactly when the store holds a
  /// model for it.
  std::vector<int32_t> owner_of_;
  /// Adaptations completed (the rebalance stride counts these).
  int64_t adaptations_ = 0;
  /// Cumulative rebalance accounting.
  int64_t rebalances_ = 0;
  int64_t nodes_migrated_ = 0;
  /// The range index over every owned node; nullopt when maintain_index is
  /// off.
  std::optional<SnapshotGrid> snapshot_;
  /// Cluster-level instruments (sums over shards), resolved once.
  telemetry::Counter* arrivals_counter_ = nullptr;
  telemetry::Counter* dropped_counter_ = nullptr;
  telemetry::Counter* rebalance_epochs_counter_ = nullptr;
  telemetry::Counter* rebalance_columns_counter_ = nullptr;
  telemetry::Counter* rebalance_migrated_counter_ = nullptr;
  /// Per-shard owned-node gauges, set after each adaptation's rebuild.
  std::vector<telemetry::Gauge*> shard_nodes_gauges_;
};

}  // namespace lira

#endif  // LIRA_SERVER_SERVER_CLUSTER_H_
