// The server's position-update input queue: a bounded FIFO with random-
// order admission, drop accounting, and windowed rate measurement for
// THROTLOOP.

#ifndef LIRA_SERVER_UPDATE_QUEUE_H_
#define LIRA_SERVER_UPDATE_QUEUE_H_

#include <cstdint>
#include <vector>

#include "lira/common/bounded_queue.h"
#include "lira/common/rng.h"
#include "lira/common/status.h"
#include "lira/motion/linear_model.h"

namespace lira {

/// Bounded update FIFO. Arrivals within a tick are admitted in random order
/// so that tail drops under overload hit a uniform random subset -- the
/// paper's "random dropping of the updates".
class UpdateQueue {
 public:
  static StatusOr<UpdateQueue> Create(size_t capacity, uint64_t seed);

  /// Offers a batch of arrivals (one simulation tick's worth); returns how
  /// many were dropped because the queue was full.
  int64_t OfferAll(std::vector<ModelUpdate> updates);

  /// As above, but consumes the batch in place (it is shuffled and its
  /// elements moved from; the caller clears and reuses the buffer, keeping
  /// its capacity across ticks).
  int64_t OfferAll(std::vector<ModelUpdate>* updates);

  /// Dequeues up to `max_count` updates in FIFO order into `*out`, which is
  /// cleared first; its capacity is kept, so a caller that drains into the
  /// same buffer every tick allocates only while the batch size grows.
  void Drain(int64_t max_count, std::vector<ModelUpdate>* out);

  size_t size() const { return queue_.size(); }
  size_t capacity() const { return queue_.capacity(); }
  /// Largest queue depth ever observed (after admitting each batch).
  size_t high_watermark() const { return high_watermark_; }

  int64_t total_arrivals() const { return total_arrivals_; }
  int64_t total_dropped() const { return queue_.dropped(); }
  int64_t total_served() const { return total_served_; }

  /// Windowed counters for THROTLOOP's lambda measurement and per-window
  /// loss diagnostics.
  void ResetWindow();
  int64_t window_arrivals() const { return window_arrivals_; }
  int64_t window_served() const { return window_served_; }
  int64_t window_dropped() const { return window_dropped_; }

 private:
  UpdateQueue(size_t capacity, uint64_t seed)
      : queue_(capacity), rng_(seed) {}

  BoundedQueue<ModelUpdate> queue_;
  Rng rng_;
  int64_t total_arrivals_ = 0;
  int64_t total_served_ = 0;
  int64_t window_arrivals_ = 0;
  int64_t window_served_ = 0;
  int64_t window_dropped_ = 0;
  size_t high_watermark_ = 0;
};

}  // namespace lira

#endif  // LIRA_SERVER_UPDATE_QUEUE_H_
