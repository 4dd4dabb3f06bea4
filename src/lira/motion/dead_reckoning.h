// Node-side dead-reckoning encoder and server-side position tracker.
//
// The two stores are laid out for how each is used. The encoder keeps its
// motion-model state as structure-of-arrays columns
// (origin_x/origin_y/vel_x/vel_y/t0/has): every frame it streams contiguous
// id spans through the DeviationFilter kernels (common/kernels.h), and the
// scalar Observe works on the same columns, so the two paths can never
// disagree about state. The tracker keeps one ModelRecord per node: a
// server applies the reports its queues serve in random node order, and a
// record puts everything one report reads and writes in one or two cache
// lines, where six columns cost six. Its bulk readers (PredictSpan, the
// statistics rebuild, the cluster's migration scan) stream the records in
// id order with the same per-lane arithmetic.

#ifndef LIRA_MOTION_DEAD_RECKONING_H_
#define LIRA_MOTION_DEAD_RECKONING_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/mobility/position.h"
#include "lira/motion/linear_model.h"

namespace lira {

/// Node-side encoder: holds each node's last *sent* model and emits a new
/// ModelUpdate whenever the true position deviates from it by more than the
/// node's current inaccuracy threshold delta.
///
/// The encoder updates its reference model when it sends, regardless of
/// whether the server later drops the message -- mobile nodes get no
/// feedback about server-side drops, which is exactly why random dropping is
/// so harmful (Section 1).
///
/// Thread-safety: Observe / ObserveSpan may run concurrently for *disjoint*
/// node ids (the simulator's ParallelFor partitions by id); the emitted-
/// update counter is a relaxed atomic so the total stays exact.
class DeadReckoningEncoder {
 public:
  /// `num_nodes` nodes with ids 0..num_nodes-1, none having reported yet.
  explicit DeadReckoningEncoder(int32_t num_nodes);

  DeadReckoningEncoder(DeadReckoningEncoder&& other) noexcept
      : origin_x_(std::move(other.origin_x_)),
        origin_y_(std::move(other.origin_y_)),
        vel_x_(std::move(other.vel_x_)),
        vel_y_(std::move(other.vel_y_)),
        t0_(std::move(other.t0_)),
        has_model_(std::move(other.has_model_)),
        updates_emitted_(other.updates_emitted_.load()) {}

  /// Observes the true state of a node; returns the update to transmit, if
  /// any. The first observation of a node always produces an update.
  std::optional<ModelUpdate> Observe(const PositionSample& sample,
                                     double delta);

  /// Bulk Observe over the id range [begin, begin + n), all observed at one
  /// common time t. obs_x/obs_y/obs_vx/obs_vy/delta are n-lane columns (lane
  /// i is node begin + i). `decision` is caller scratch of n bytes (a
  /// FrameArena span). Appends the emitted updates to *out in ascending id
  /// order -- bitwise identical to n scalar Observe calls: the
  /// DeviationFilter kernel classifies lanes as certainly-send /
  /// certainly-keep with a band that swallows every rounding difference,
  /// and ambiguous lanes fall back to Observe's exact hypot comparison.
  void ObserveSpan(NodeId begin, int64_t n, const double* obs_x,
                   const double* obs_y, const double* obs_vx,
                   const double* obs_vy, double t, const double* delta,
                   uint8_t* decision, std::vector<ModelUpdate>* out);

  /// As ObserveSpan with one threshold for every lane.
  void ObserveSpanUniform(NodeId begin, int64_t n, const double* obs_x,
                          const double* obs_y, const double* obs_vx,
                          const double* obs_vy, double t, double delta,
                          uint8_t* decision, std::vector<ModelUpdate>* out);

  /// Number of updates emitted so far.
  int64_t updates_emitted() const { return updates_emitted_.load(); }

  int32_t num_nodes() const { return static_cast<int32_t>(t0_.size()); }

  /// The node's current reference model (the last one sent); nullopt before
  /// the first report.
  std::optional<LinearMotionModel> ModelOf(NodeId id) const;

 private:
  /// Resolves one ambiguous lane with Observe's exact scalar expression and
  /// emits/records the update when it sends.
  void ResolveAndMaybeSend(NodeId id, double ox, double oy, double vx,
                           double vy, double t, double delta,
                           std::vector<ModelUpdate>* out, int64_t* emitted);

  std::vector<double> origin_x_;
  std::vector<double> origin_y_;
  std::vector<double> vel_x_;
  std::vector<double> vel_y_;
  std::vector<double> t0_;
  std::vector<uint8_t> has_model_;
  std::atomic<int64_t> updates_emitted_{0};
};

/// One node's motion model as the server holds it: LinearMotionModel's
/// operands and whether the node has reported. The operands are meaningful
/// only where has != 0; a node that never reported holds zeros. `has` keeps
/// a byte of its own, so shards writing adjacent ids never share a word.
struct ModelRecord {
  double origin_x = 0.0;
  double origin_y = 0.0;
  double vel_x = 0.0;
  double vel_y = 0.0;
  double t0 = 0.0;
  uint8_t has = 0;
};
static_assert(sizeof(ModelRecord) == 48);

/// Server-side tracker: the server's belief about node positions, built from
/// the ModelUpdates that survived the network and the input queue. One
/// store per server, indexed by node id (a cluster's shards own lanes of
/// it, DESIGN.md §9).
///
/// Thread-safety: Apply writes only the node's own record, so concurrent
/// calls for disjoint node ids are safe. Readers must not run concurrently
/// with writers. The store counts nothing; servers count the updates they
/// serve.
class PositionTracker {
 public:
  explicit PositionTracker(int32_t num_nodes);

  /// Move-only, so a store spanning every node is never copied by
  /// accident.
  PositionTracker(PositionTracker&&) noexcept = default;

  /// Replaces the node's model with the update's.
  void Apply(const ModelUpdate& update);

  /// Prefetch hint for a coming Apply or read of the node's record (no
  /// effect on state). A record may straddle two cache lines; both are
  /// requested.
  void PrefetchForWrite(NodeId id) const {
    const char* first = reinterpret_cast<const char*>(records_.data() + id);
    __builtin_prefetch(first, 1);
    __builtin_prefetch(first + sizeof(ModelRecord) - 1, 1);
  }

  /// Believed position of a node at time t; nullopt if never reported.
  std::optional<Point> PredictAt(NodeId id, double t) const;

  /// Believed speed of a node (from the last model); 0 if never reported.
  double BelievedSpeed(NodeId id) const;

  /// Bulk PredictAt over the id range [begin, begin + n), with PredictAt's
  /// exact expression per lane. Model-less lanes take fallback_x/fallback_y
  /// when given, else their out slots are unspecified. `known` (optional)
  /// receives the model flags, matching PredictAt's has_value() per lane.
  void PredictSpan(NodeId begin, int64_t n, double t,
                   const double* fallback_x, const double* fallback_y,
                   double* out_x, double* out_y, uint8_t* known) const;

  bool HasModel(NodeId id) const {
    return id >= 0 && id < num_nodes() && records_[id].has != 0;
  }

  /// The records, record i = node i, for bulk readers that stream them in
  /// place. The statistics rebuild also compares velocity operands across
  /// rebuilds to skip recomputing the non-vectorizable hypot in
  /// BelievedSpeed: equal operand bits imply an equal speed, so a cached
  /// speed is bitwise safe.
  const ModelRecord* records() const { return records_.data(); }
  int32_t num_nodes() const { return static_cast<int32_t>(records_.size()); }

  /// Heap footprint of the records (health snapshots / telemetry).
  size_t MemoryBytes() const {
    return records_.capacity() * sizeof(ModelRecord);
  }

 private:
  std::vector<ModelRecord> records_;
};

}  // namespace lira

#endif  // LIRA_MOTION_DEAD_RECKONING_H_
