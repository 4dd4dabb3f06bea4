#include "lira/server/update_queue.h"

#include <algorithm>
#include <utility>

namespace lira {

StatusOr<UpdateQueue> UpdateQueue::Create(size_t capacity, uint64_t seed) {
  if (capacity < 1) {
    return InvalidArgumentError("queue capacity must be >= 1");
  }
  return UpdateQueue(capacity, seed);
}

int64_t UpdateQueue::OfferAll(std::vector<ModelUpdate> updates) {
  return OfferAll(&updates);
}

int64_t UpdateQueue::OfferAll(std::vector<ModelUpdate>* updates) {
  // Fisher-Yates shuffle so tail drops pick a uniform random subset of the
  // tick's arrivals.
  for (size_t i = updates->size(); i > 1; --i) {
    const size_t j = rng_.UniformInt(i);
    std::swap((*updates)[i - 1], (*updates)[j]);
  }
  const int64_t dropped_before = queue_.dropped();
  for (ModelUpdate& update : *updates) {
    queue_.TryPush(std::move(update));
  }
  total_arrivals_ += static_cast<int64_t>(updates->size());
  window_arrivals_ += static_cast<int64_t>(updates->size());
  const int64_t dropped = queue_.dropped() - dropped_before;
  window_dropped_ += dropped;
  high_watermark_ = std::max(high_watermark_, queue_.size());
  return dropped;
}

void UpdateQueue::Drain(int64_t max_count, std::vector<ModelUpdate>* out) {
  out->clear();
  while (max_count-- > 0) {
    auto update = queue_.TryPop();
    if (!update.has_value()) {
      break;
    }
    out->push_back(*update);
  }
  total_served_ += static_cast<int64_t>(out->size());
  window_served_ += static_cast<int64_t>(out->size());
}

void UpdateQueue::ResetWindow() {
  window_arrivals_ = 0;
  window_served_ = 0;
  window_dropped_ = 0;
}

}  // namespace lira
