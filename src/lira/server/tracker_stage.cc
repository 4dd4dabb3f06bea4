#include "lira/server/tracker_stage.h"

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

void TrackerStage::Apply(const ModelUpdate& update) {
  tracker_.Apply(update);
  if (history_.has_value()) {
    history_->Record(update);
  }
}

}  // namespace lira
