#include "lira/server/update_queue.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace lira {

StatusOr<UpdateQueue> UpdateQueue::Create(size_t capacity,
                                          double service_rate, uint64_t seed) {
  if (capacity < 1) {
    return InvalidArgumentError("queue capacity must be >= 1");
  }
  if (!std::isfinite(service_rate) || service_rate <= 0.0) {
    return InvalidArgumentError("service_rate must be finite and positive");
  }
  return UpdateQueue(capacity, service_rate, seed);
}

int64_t UpdateQueue::Receive(std::vector<ModelUpdate>* arrivals) {
  // Fisher-Yates shuffle so tail drops pick a uniform random subset of the
  // tick's arrivals.
  for (size_t i = arrivals->size(); i > 1; --i) {
    const size_t j = rng_.UniformInt(i);
    std::swap((*arrivals)[i - 1], (*arrivals)[j]);
  }
  const size_t admitted =
      std::min(arrivals->size(), capacity_ - items_.size());
  items_.insert(items_.end(), arrivals->begin(), arrivals->begin() + admitted);
  const auto arrived = static_cast<int64_t>(arrivals->size());
  const int64_t dropped = arrived - static_cast<int64_t>(admitted);
  total_arrivals_ += arrived;
  window_arrivals_ += arrived;
  total_dropped_ += dropped;
  window_dropped_ += dropped;
  high_watermark_ = std::max(high_watermark_, items_.size());
  return dropped;
}

void UpdateQueue::Serve(double dt, std::vector<ModelUpdate>* served) {
  credit_ += service_rate_ * dt;
  const double whole = std::floor(credit_);
  credit_ -= whole;
  const auto count = static_cast<std::ptrdiff_t>(
      std::clamp(whole, 0.0, static_cast<double>(items_.size())));
  served->assign(items_.begin(), items_.begin() + count);
  items_.erase(items_.begin(), items_.begin() + count);
  total_served_ += count;
  window_served_ += count;
}

void UpdateQueue::ResetWindow() {
  window_arrivals_ = 0;
  window_served_ = 0;
  window_dropped_ = 0;
}

}  // namespace lira
