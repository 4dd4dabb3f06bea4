// The narrow driving interface of a CQ-serving pipeline.
//
// Both the single-process CqServer and the region-sharded ServerCluster
// implement this: the simulator's frame loop (and any other driver) feeds
// batches in, ticks the clock, and reads the plan/accounting back without
// knowing whether one pipeline or S shards sit behind the calls. The
// contract every implementation honors is the repo's determinism rule:
// given the same seed and the same input batches, the observable state
// (plan, z, drop counts, believed positions) is bitwise identical for any
// worker thread count.

#ifndef LIRA_SERVER_SERVER_PIPELINE_H_
#define LIRA_SERVER_SERVER_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/status.h"
#include "lira/core/shedding_plan.h"
#include "lira/cq/query_registry.h"
#include "lira/mobility/position.h"
#include "lira/motion/linear_model.h"

namespace lira {

class ServerPipeline {
 public:
  virtual ~ServerPipeline() = default;

  /// Points the pipeline at a (possibly different) query registry; takes
  /// effect at the next adaptation. The registry must outlive the pipeline.
  virtual Status InstallQueries(const QueryRegistry* queries) = 0;

  /// Admits one tick's batch of position updates, consuming `*updates` in
  /// place (shuffled, elements moved from) so the caller can clear and
  /// reuse the buffer's capacity across ticks.
  virtual void ReceiveBatch(std::vector<ModelUpdate>* updates) = 0;

  /// As ReceiveBatch with an owned batch.
  void Receive(std::vector<ModelUpdate> updates) { ReceiveBatch(&updates); }

  /// Advances the clock by dt seconds: services the queue(s) and runs the
  /// adaptation step when the period elapses.
  virtual Status Tick(double dt) = 0;

  /// Forces an adaptation step immediately.
  virtual Status Adapt() = 0;

  virtual double time() const = 0;
  /// Throttle fraction currently in force.
  virtual double z() const = 0;
  /// The active (global) shedding plan.
  virtual const SheddingPlan& plan() const = 0;

  /// The pipeline's believed position of a node at time t; nullopt when the
  /// node has not reported (or its update was shed).
  virtual std::optional<Point> BelievedPositionAt(NodeId id,
                                                  double t) const = 0;

  /// Bulk BelievedPositionAt over the id range [begin, begin + n): writes
  /// the believed position columns and the known mask (lane i is node
  /// begin + i; out slots of unknown lanes are unspecified). This default
  /// loops over BelievedPositionAt; pipelines with columnar trackers
  /// override it with the PredictPositions kernel (CqServer,
  /// ServerCluster). Either path yields bitwise-identical columns. The
  /// server's snapshot grid is rebuilt through this call every tick.
  virtual void FillBelievedInto(NodeId begin, int64_t n, double t,
                                double* out_x, double* out_y,
                                uint8_t* known) const {
    for (int64_t i = 0; i < n; ++i) {
      const auto believed =
          BelievedPositionAt(begin + static_cast<NodeId>(i), t);
      known[i] = believed.has_value() ? 1 : 0;
      if (believed.has_value()) {
        out_x[i] = believed->x;
        out_y[i] = believed->y;
      }
    }
  }

  /// Queue accounting, aggregated over all shards.
  virtual size_t queue_size() const = 0;
  virtual int64_t queue_arrivals() const = 0;
  virtual int64_t queue_dropped() const = 0;

  virtual int64_t updates_applied() const = 0;
  virtual int64_t plan_builds() const = 0;
  virtual double total_plan_build_seconds() const = 0;

  /// Historical reconstruction (empty/nullopt when history recording is
  /// off -- check records_history() first).
  virtual bool records_history() const = 0;
  virtual std::vector<NodeId> HistoricalRangeAt(const Rect& range,
                                                double t) const = 0;
  virtual std::optional<Point> HistoricalPositionAt(NodeId id,
                                                    double t) const = 0;
  virtual int64_t history_bytes() const = 0;
};

}  // namespace lira

#endif  // LIRA_SERVER_SERVER_PIPELINE_H_
