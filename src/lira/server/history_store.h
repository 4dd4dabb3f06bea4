// Historical trajectory store.
//
// The paper motivates the fairness threshold with "mobile CQ systems
// supporting historic and ad-hoc queries" (Section 3.1.1): because LIRA
// keeps *every* node tracked (just at varying accuracy), the server can
// retain the stream of accepted motion models and answer questions about
// the past -- something the distributed schemes in the related work cannot
// do. The accuracy of these answers in query-free regions is exactly what
// the fairness threshold trades off (see bench_ext_historical).
//
// The store keeps, per node, the time-ordered list of applied motion
// models; the position at a past time t is the prediction of the model in
// force at t.

#ifndef LIRA_SERVER_HISTORY_STORE_H_
#define LIRA_SERVER_HISTORY_STORE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/mobility/position.h"
#include "lira/motion/linear_model.h"

namespace lira {

/// Append-mostly per-node model history with point-in-time reconstruction.
///
/// Thread-safety: Record touches only the node's own list, so it is safe
/// for concurrent *disjoint* node ids. Queries must not run concurrently
/// with records.
class HistoryStore {
 public:
  explicit HistoryStore(int32_t num_nodes);

  /// Move-only, so a store spanning every node's history is never copied
  /// by accident.
  HistoryStore(HistoryStore&&) noexcept = default;

  /// Records an applied update. Out-of-order records (older t0 than the
  /// node's latest) are inserted at their sorted position; a record with a
  /// duplicate t0 replaces the existing one.
  void Record(const ModelUpdate& update);

  /// The node's believed position at time t: the prediction of the model
  /// in force at t. nullopt when the node had not reported by t.
  std::optional<Point> PositionAt(NodeId id, double t) const;

  /// Ids of nodes whose reconstructed position at time t lies in `range`
  /// (historical snapshot query; linear in the number of nodes, with a
  /// binary search per node).
  std::vector<NodeId> RangeAt(const Rect& range, double t) const;

  int32_t num_nodes() const { return static_cast<int32_t>(history_.size()); }
  /// Records stored over all nodes (a pass over the per-node lists).
  int64_t total_records() const;
  /// Records stored for one node.
  int64_t RecordsFor(NodeId id) const;
  /// Approximate memory footprint in bytes.
  int64_t ApproxBytes() const;

 private:
  struct Record_ {
    double t0;
    Point origin;
    Vec2 velocity;
  };

  std::vector<std::vector<Record_>> history_;
};

}  // namespace lira

#endif  // LIRA_SERVER_HISTORY_STORE_H_
