// THROTLOOP (paper Section 3.4): adaptive control of the throttle fraction
// z from the observed utilization of the position-update input queue.
//
// With a bounded queue of size B and an M/M/1 argument, the target
// utilization keeping the mean queue length within the buffer is
// rho* = 1 - 1/B. Periodically:
//
//     u = rho / (1 - 1/B),   z <- clamp(z / u, kMinZ, 1)
//
// so overload (u > 1) shrinks z and slack (u < 1) grows it back towards 1.

#ifndef LIRA_CORE_THROT_LOOP_H_
#define LIRA_CORE_THROT_LOOP_H_

#include <cstdint>

#include "lira/common/status.h"

namespace lira {

/// The throttle-fraction controller. Not thread-safe.
class ThrotLoop {
 public:
  /// Floor on z; keeps the controller out of the degenerate z = 0 fixpoint
  /// under measurement noise.
  static constexpr double kMinZ = 0.01;

  /// `queue_capacity` is the maximum input-queue size B (messages). Fails
  /// when B < 2.
  static StatusOr<ThrotLoop> Create(int64_t queue_capacity);

  /// Current throttle fraction (starts at 1).
  double z() const { return z_; }

  /// Target utilization rho* = 1 - 1/B.
  double TargetUtilization() const;

  /// One periodic adaptation step given the arrival rate lambda and service
  /// rate mu observed over the last period (both in updates/second). A zero
  /// arrival rate resets z towards 1. Returns the new z.
  double Update(double lambda, double mu);

 private:
  explicit ThrotLoop(int64_t queue_capacity)
      : queue_capacity_(queue_capacity) {}

  int64_t queue_capacity_;
  double z_ = 1.0;
};

}  // namespace lira

#endif  // LIRA_CORE_THROT_LOOP_H_
