#include "lira/server/history_store.h"

#include <algorithm>

#include "lira/common/check.h"

namespace lira {

HistoryStore::HistoryStore(int32_t num_nodes) : history_(num_nodes) {
  LIRA_CHECK(num_nodes >= 0);
}

void HistoryStore::Record(const ModelUpdate& update) {
  LIRA_DCHECK(update.node_id >= 0 && update.node_id < num_nodes());
  auto& records = history_[update.node_id];
  const Record_ record{update.model.t0, update.model.origin,
                       update.model.velocity};
  if (records.empty() || records.back().t0 < record.t0) {
    records.push_back(record);
    return;
  }
  // Out-of-order or duplicate timestamp: keep the list sorted by t0.
  auto it = std::lower_bound(
      records.begin(), records.end(), record.t0,
      [](const Record_& r, double t) { return r.t0 < t; });
  if (it != records.end() && it->t0 == record.t0) {
    *it = record;
  } else {
    records.insert(it, record);
  }
}

std::optional<Point> HistoryStore::PositionAt(NodeId id, double t) const {
  if (id < 0 || id >= num_nodes()) {
    return std::nullopt;
  }
  const auto& records = history_[id];
  // The model in force at t: last record with t0 <= t.
  auto it = std::upper_bound(
      records.begin(), records.end(), t,
      [](double time, const Record_& r) { return time < r.t0; });
  if (it == records.begin()) {
    return std::nullopt;  // no report yet at time t
  }
  --it;
  return it->origin + it->velocity * (t - it->t0);
}

std::vector<NodeId> HistoryStore::RangeAt(const Rect& range, double t) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const auto position = PositionAt(id, t);
    if (position.has_value() && range.Contains(*position)) {
      out.push_back(id);
    }
  }
  return out;
}

int64_t HistoryStore::RecordsFor(NodeId id) const {
  LIRA_DCHECK(id >= 0 && id < num_nodes());
  return static_cast<int64_t>(history_[id].size());
}

int64_t HistoryStore::total_records() const {
  int64_t total = 0;
  for (const std::vector<Record_>& records : history_) {
    total += static_cast<int64_t>(records.size());
  }
  return total;
}

int64_t HistoryStore::ApproxBytes() const {
  return total_records() * static_cast<int64_t>(sizeof(Record_)) +
         static_cast<int64_t>(history_.size()) *
             static_cast<int64_t>(sizeof(std::vector<Record_>));
}

}  // namespace lira
