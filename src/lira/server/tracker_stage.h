// Pipeline stage 2: the server's belief state.
//
// Owns the PositionTracker (current motion model per node) and the optional
// HistoryStore retaining every served model. One Apply call keeps both
// consistent and holds the server's one rule for which report a node's
// model keeps. Each server holds one stage: its shards own lanes of it
// through the owner map and never copy a model (DESIGN.md §9). Range
// answers come from the server's snapshot grid, which reads the tracker
// (snapshot_grid.h).

#ifndef LIRA_SERVER_TRACKER_STAGE_H_
#define LIRA_SERVER_TRACKER_STAGE_H_

#include <cstdint>
#include <optional>

#include "lira/common/status.h"
#include "lira/mobility/position.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/motion/linear_model.h"
#include "lira/server/history_store.h"

namespace lira {

/// Tracker + history, applied to in lock step. Apply touches only the
/// update's node, so concurrent calls for disjoint node ids are safe (a
/// cluster's shards apply their own lanes in parallel); readers must not
/// run concurrently with Apply.
class TrackerStage {
 public:
  static StatusOr<TrackerStage> Create(int32_t num_nodes, bool record_history);

  /// Serves one report: records it in the history (when enabled), and
  /// replaces the node's model unless the model in place has a later t0.
  /// Ties go to the later write, and a NaN t0 replaces nothing. Returns
  /// whether the model was replaced. Counts nothing: each server counts the
  /// updates its queues served.
  bool Apply(const ModelUpdate& update);

  const PositionTracker& tracker() const { return tracker_; }
  /// nullptr when record_history is off.
  const HistoryStore* history() const {
    return history_.has_value() ? &*history_ : nullptr;
  }

 private:
  TrackerStage(int32_t num_nodes, bool record_history);

  PositionTracker tracker_;
  std::optional<HistoryStore> history_;
};

}  // namespace lira

#endif  // LIRA_SERVER_TRACKER_STAGE_H_
