#include "lira/core/throt_loop.h"

#include <algorithm>

namespace lira {

StatusOr<ThrotLoop> ThrotLoop::Create(int64_t queue_capacity) {
  if (queue_capacity < 2) {
    return InvalidArgumentError("queue_capacity must be >= 2");
  }
  return ThrotLoop(queue_capacity);
}

double ThrotLoop::TargetUtilization() const {
  return 1.0 - 1.0 / static_cast<double>(queue_capacity_);
}

double ThrotLoop::Update(double lambda, double mu) {
  if (lambda <= 0.0 || mu <= 0.0) {
    // Nothing arriving (or a stalled server measurement): relax fully open;
    // the next period's measurements will pull z back down if needed.
    z_ = 1.0;
    return z_;
  }
  const double rho = lambda / mu;
  const double u = rho / TargetUtilization();
  z_ = std::clamp(z_ / u, kMinZ, 1.0);
  return z_;
}

}  // namespace lira
