// The mobile CQ server (paper Section 2.2, first layer).
//
// A thin facade over the four pipeline stages:
//
//   IngestStage    bounded queue, drop accounting, service pacing
//   TrackerStage   position tracker + history
//   StatsStage     incremental StatisticsGrid maintenance
//   OptimizerStage THROTLOOP (z) -> policy (GRIDREDUCE + GREEDYINCREMENT
//                  for LIRA) -> new SheddingPlan
//
// plus, with maintain_index on, the believed-position SnapshotGrid that
// range queries scan, rebuilt at the end of every tick (snapshot_grid.h).
// The facade owns the clock and the adaptation schedule and wires the
// stages together exactly as the original monolithic server did; its
// public API, metric names, and bitwise behavior are unchanged. The stages
// are separately constructible and tested (tests/server/*_stage_test), and
// ServerCluster composes S ingest stages over one tracker stage, one stats
// stage and one optimizer (server_cluster.h).

#ifndef LIRA_SERVER_CQ_SERVER_H_
#define LIRA_SERVER_CQ_SERVER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/parallel.h"
#include "lira/common/status.h"
#include "lira/core/policy.h"
#include "lira/core/shedding_plan.h"
#include "lira/core/statistics_grid.h"
#include "lira/cq/query_registry.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/motion/update_reduction.h"
#include "lira/server/history_store.h"
#include "lira/server/ingest_stage.h"
#include "lira/server/optimizer_stage.h"
#include "lira/server/server_pipeline.h"
#include "lira/server/snapshot_grid.h"
#include "lira/server/stats_stage.h"
#include "lira/server/tracker_stage.h"
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
  /// Margin (meters) added around query rectangles when counting them into
  /// the statistics grid; negative means "use the reduction function's
  /// delta_max" (see StatisticsGrid::AddQueries).
  double query_margin = -1.0;
  /// When true the server keeps a range index, so AnswerQuery/AnswerRange
  /// work: a snapshot grid of every node's believed position, rebuilt at the
  /// end of every tick in O(n) (snapshot_grid.h). Turning it off saves the
  /// rebuild and its arrays for deployments that evaluate queries
  /// elsewhere; the answer calls then return FailedPrecondition.
  bool maintain_index = true;
  /// When true the server retains every applied motion model in a
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
  /// server maintains `lira.queue.*` instruments on every Receive and
  /// records the adaptation loop -- z trajectory, per-stage plan-build
  /// spans, plan shape gauges, typed events (DESIGN.md "Telemetry").
  /// nullptr disables all instrumentation at the cost of a pointer test.
  telemetry::TelemetrySink* telemetry = nullptr;
  /// Optional span tracer (not owned; must outlive the server). When set,
  /// every tick and adaptation records per-stage wall-time spans stamped
  /// with (tick, shard) -- the single server writes the driver lane; a
  /// ServerCluster additionally writes shard k's spans into lane k+1
  /// (DESIGN.md §10). nullptr costs one pointer test per stage.
  telemetry::TraceRecorder* trace = nullptr;
  /// Optional flight recorder (not owned; must outlive the server). When
  /// set, every tick appends one FlightSample per pipeline (queue depth and
  /// drops, z, lambda, utilization, node count, plan shape) to the ring, so
  /// a crash or chaos event leaves a postmortem of the last N ticks.
  telemetry::FlightRecorder* flight_recorder = nullptr;
  uint64_t seed = 1234;
  /// Optional worker pool (not owned; must outlive the server) for the
  /// adaptation path -- the columnar statistics rebuild, the quad-tree
  /// build, and the GRIDREDUCE drill-down waves -- and the per-tick snapshot
  /// rebuild. Plans, statistics and answers are bitwise identical for every
  /// thread count (and without a pool); see the determinism notes on
  /// StatsStage and GridReduceConfig.
  ThreadPool* pool = nullptr;
};

/// Single-threaded discrete-time CQ server.
class CqServer : public ServerPipeline {
 public:
  /// `policy`, `reduction` and `queries` must outlive the server. The
  /// registry may gain queries while the server runs (InstallQueries); the
  /// statistics grid refreshes its query counts at every adaptation.
  static StatusOr<CqServer> Create(const CqServerConfig& config,
                                   const LoadSheddingPolicy* policy,
                                   const UpdateReductionFunction* reduction,
                                   const QueryRegistry* queries);

  /// Points the server at a (possibly different) query registry -- the CQ
  /// workload changed. Takes effect at the next adaptation step (or an
  /// explicit Adapt()). The registry must outlive the server.
  Status InstallQueries(const QueryRegistry* queries) override;

  /// Enqueues a batch of arriving position updates (drops when full),
  /// consuming `*updates` in place (shuffled, elements moved from) so the
  /// caller can clear and reuse the buffer's capacity across ticks -- the
  /// simulator's frame loop calls this every frame. Receive (inherited)
  /// takes an owned batch.
  void ReceiveBatch(std::vector<ModelUpdate>* updates) override;

  /// Advances the server clock by dt seconds: services the queue and runs
  /// the adaptation step when the period elapses.
  Status Tick(double dt) override;

  /// Forces an adaptation step immediately (also used internally).
  Status Adapt() override;

  /// Answers an installed continual query at the server's current time,
  /// from the snapshot grid. Requires maintain_index. Same contract as
  /// ServerCluster::AnswerQuery: AnswerSnapshotQuery (snapshot_grid.h).
  StatusOr<std::vector<NodeId>> AnswerQuery(QueryId query) const;

  /// Answers an ad-hoc snapshot range query at time t >= now. Requires
  /// maintain_index. Contract: AnswerSnapshotRange (snapshot_grid.h).
  StatusOr<std::vector<NodeId>> AnswerRange(const Rect& range,
                                            double t) const;

  /// Answers a historical snapshot range query at a past time t. Requires
  /// record_history.
  StatusOr<std::vector<NodeId>> AnswerHistoricalRange(const Rect& range,
                                                      double t) const;

  /// The history store, or nullptr when record_history is off.
  const HistoryStore* history() const { return tracker_stage_.history(); }

  double time() const override { return time_; }
  /// Ticks processed so far (the frame stamp on trace spans).
  int64_t ticks() const { return tick_; }
  double z() const override { return optimizer_.z(); }
  const SheddingPlan& plan() const override { return optimizer_.plan(); }
  const PositionTracker& tracker() const { return tracker_stage_.tracker(); }
  const UpdateQueue& queue() const { return ingest_.queue(); }
  const StatisticsGrid& stats() const { return stats_stage_.grid(); }

  /// Cumulative time spent building plans (seconds) and number of builds,
  /// for the server-side-cost experiments.
  double total_plan_build_seconds() const override {
    return optimizer_.total_plan_build_seconds();
  }
  int64_t plan_builds() const override { return optimizer_.plan_builds(); }
  /// Every served update is applied, so the queue's served count is the
  /// applied count.
  int64_t updates_applied() const override {
    return ingest_.queue().total_served();
  }

  std::optional<Point> BelievedPositionAt(NodeId id,
                                          double t) const override {
    return tracker_stage_.tracker().PredictAt(id, t);
  }
  void FillBelievedInto(NodeId begin, int64_t n, double t, double* out_x,
                        double* out_y, uint8_t* known) const override {
    tracker_stage_.tracker().PredictSpan(begin, n, t, /*fallback_x=*/nullptr,
                                         /*fallback_y=*/nullptr, out_x, out_y,
                                         known);
  }
  size_t queue_size() const override { return ingest_.queue().size(); }
  int64_t queue_arrivals() const override {
    return ingest_.queue().total_arrivals();
  }
  int64_t queue_dropped() const override {
    return ingest_.queue().total_dropped();
  }
  bool records_history() const override { return history() != nullptr; }
  std::vector<NodeId> HistoricalRangeAt(const Rect& range,
                                        double t) const override;
  std::optional<Point> HistoricalPositionAt(NodeId id,
                                            double t) const override;
  int64_t history_bytes() const override;

 private:
  CqServer(const CqServerConfig& config, const LoadSheddingPolicy* policy,
           const UpdateReductionFunction* reduction,
           const QueryRegistry* queries, IngestStage ingest,
           TrackerStage tracker_stage, StatsStage stats_stage,
           OptimizerStage optimizer);

  /// Query margin in force: explicit config or the reduction's delta_max.
  double QueryMargin() const;

  /// Appends one end-of-tick FlightSample (flight recorder configured).
  void RecordFlightSample();

  CqServerConfig config_;
  const LoadSheddingPolicy* policy_;
  const UpdateReductionFunction* reduction_;
  const QueryRegistry* queries_;
  IngestStage ingest_;
  TrackerStage tracker_stage_;
  StatsStage stats_stage_;
  OptimizerStage optimizer_;
  /// The range index; nullopt when maintain_index is off.
  std::optional<SnapshotGrid> snapshot_;
  /// The updates served this tick (reused across ticks).
  std::vector<ModelUpdate> served_;
  double time_ = 0.0;
  int64_t tick_ = 0;
  double next_adaptation_;
};

}  // namespace lira

#endif  // LIRA_SERVER_CQ_SERVER_H_
