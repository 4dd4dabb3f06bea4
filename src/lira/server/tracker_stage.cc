#include "lira/server/tracker_stage.h"

#include "lira/common/check.h"

namespace lira {

TrackerStage::TrackerStage(int32_t num_nodes, bool record_history)
    : tracker_(num_nodes),
      history_(record_history
                   ? std::optional<HistoryStore>(HistoryStore(num_nodes))
                   : std::nullopt) {}

StatusOr<TrackerStage> TrackerStage::Create(int32_t num_nodes,
                                            bool record_history) {
  if (num_nodes <= 0) {
    return InvalidArgumentError("num_nodes must be positive");
  }
  return TrackerStage(num_nodes, record_history);
}

bool TrackerStage::Apply(const ModelUpdate& update) {
  // The history keeps itself sorted by t0, so it takes every report; the
  // tracker then stays equal to the history's latest record.
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

}  // namespace lira
