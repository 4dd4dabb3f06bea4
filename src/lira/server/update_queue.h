// The server's position-update input queue (paper Section 3.4): a bounded
// FIFO with random-order admission and tail drop, service paced at the rate
// mu, and the total and windowed counters THROTLOOP reads. Each shard of a
// ServerCluster holds one; it keeps no telemetry of its own.

#ifndef LIRA_SERVER_UPDATE_QUEUE_H_
#define LIRA_SERVER_UPDATE_QUEUE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "lira/common/rng.h"
#include "lira/common/status.h"
#include "lira/motion/linear_model.h"

namespace lira {

/// Bounded update FIFO. Arrivals within a tick are admitted in random order
/// so that tail drops under overload hit a uniform random subset -- the
/// paper's "random dropping of the updates". Not thread-safe; distinct
/// queues are independent.
class UpdateQueue {
 public:
  /// InvalidArgument unless capacity >= 1 and service_rate (updates/s) is
  /// finite and positive.
  static StatusOr<UpdateQueue> Create(size_t capacity, double service_rate,
                                      uint64_t seed);

  /// Admits one tick's arrivals, consuming `*arrivals` in place: the batch
  /// is shuffled, its first capacity() - size() updates are admitted and the
  /// rest dropped. The caller clears and reuses the buffer, keeping its
  /// capacity across ticks. Returns how many were dropped.
  int64_t Receive(std::vector<ModelUpdate>* arrivals);

  /// Advances the service clock by dt seconds and dequeues, in FIFO order,
  /// the whole updates the service rate affords into `*served` (cleared
  /// first, capacity kept). The fraction of an update carries to the next
  /// call; credit the queue cannot use because it ran short is not refunded.
  void Serve(double dt, std::vector<ModelUpdate>* served);

  size_t size() const { return items_.size(); }
  size_t capacity() const { return capacity_; }
  /// Largest queue depth ever observed (after admitting each batch).
  size_t high_watermark() const { return high_watermark_; }

  int64_t total_arrivals() const { return total_arrivals_; }
  int64_t total_dropped() const { return total_dropped_; }
  int64_t total_served() const { return total_served_; }

  /// Windowed counters for THROTLOOP's lambda measurement and per-window
  /// loss diagnostics.
  void ResetWindow();
  int64_t window_arrivals() const { return window_arrivals_; }
  int64_t window_served() const { return window_served_; }
  int64_t window_dropped() const { return window_dropped_; }

 private:
  UpdateQueue(size_t capacity, double service_rate, uint64_t seed)
      : capacity_(capacity), service_rate_(service_rate), rng_(seed) {}

  std::deque<ModelUpdate> items_;
  size_t capacity_;
  double service_rate_;
  /// The fraction of an update the rate has paid for but Serve has not yet
  /// dequeued.
  double credit_ = 0.0;
  Rng rng_;
  int64_t total_arrivals_ = 0;
  int64_t total_dropped_ = 0;
  int64_t total_served_ = 0;
  int64_t window_arrivals_ = 0;
  int64_t window_served_ = 0;
  int64_t window_dropped_ = 0;
  size_t high_watermark_ = 0;
};

}  // namespace lira

#endif  // LIRA_SERVER_UPDATE_QUEUE_H_
