// Pipeline stage 2: the server's belief state.
//
// Owns the PositionTracker (current motion model per node) and the optional
// HistoryStore retaining every applied model. One Apply call keeps both
// consistent; Forget retracts a node's *current* model when its ownership
// migrates to another shard (the history is retained -- past answers stay
// valid at the shard that served them). Range answers come from the
// server's snapshot grid, which reads the trackers (snapshot_grid.h).

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

/// Tracker + history, applied to in lock step. Not thread-safe; distinct
/// stages (cluster shards) are fully independent.
class TrackerStage {
 public:
  static StatusOr<TrackerStage> Create(int32_t num_nodes, bool record_history);

  /// Applies one surviving update to the tracker and, when enabled, the
  /// history store.
  void Apply(const ModelUpdate& update);

  /// Takes over a node migrating from another shard: reinstates its model
  /// in the tracker (without counting as a newly applied update) and the
  /// history store, so the adopting shard answers historical and current
  /// queries exactly as the previous owner would have. Counterpart of
  /// Forget on the losing shard.
  void Adopt(const ModelUpdate& update);

  /// Drops the node's current model from the tracker (the history keeps its
  /// records). Used on cross-shard handoff.
  void Forget(NodeId id) { tracker_.Forget(id); }

  /// The node's current believed model; nullopt when it never reported here
  /// or was forgotten. The migration source for Adopt.
  std::optional<LinearMotionModel> ModelOf(NodeId id) const {
    return tracker_.ModelOf(id);
  }

  const PositionTracker& tracker() const { return tracker_; }
  /// nullptr when record_history is off.
  const HistoryStore* history() const {
    return history_.has_value() ? &*history_ : nullptr;
  }
  int64_t updates_applied() const { return tracker_.updates_applied(); }

 private:
  TrackerStage(int32_t num_nodes, bool record_history);

  PositionTracker tracker_;
  std::optional<HistoryStore> history_;
};

}  // namespace lira

#endif  // LIRA_SERVER_TRACKER_STAGE_H_
