// The update-reduction function f (paper Figure 1 and Section 3.3.3).
//
// f(delta) is the number of position updates received when every node uses
// inaccuracy threshold delta, relative to delta = delta_min (f(delta_min) =
// 1, non-increasing). LIRA's optimizer consumes f through a small interface:
//
//   * Eval(delta)          -- f(delta)
//   * Rate(delta)          -- r(delta) = -f'(delta), the paper's update
//                             reduction rate
//   * InverseEval(target)  -- the smallest delta with f(delta) <= target
//
// The canonical implementation is the piece-wise linear model with kappa
// segments of width c_delta, the exact premise of the paper's Theorem 3.1
// (GREEDYINCREMENT is optimal for PWL f). It can be built either from an
// analytic curve or by calibrating against a recorded trace, the same way
// the paper measured its Figure 1.

#ifndef LIRA_MOTION_UPDATE_REDUCTION_H_
#define LIRA_MOTION_UPDATE_REDUCTION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "lira/common/status.h"
#include "lira/mobility/trace.h"

namespace lira {

/// Abstract non-increasing update-reduction function on
/// [delta_min(), delta_max()] with Eval(delta_min()) == 1.
class UpdateReductionFunction {
 public:
  virtual ~UpdateReductionFunction() = default;

  virtual double delta_min() const = 0;
  virtual double delta_max() const = 0;

  /// f(delta); arguments outside the domain are clamped.
  virtual double Eval(double delta) const = 0;

  /// r(delta) = -f'(delta) >= 0. At a PWL knot this is the slope of the
  /// segment to the right (the direction GREEDYINCREMENT moves).
  virtual double Rate(double delta) const = 0;

  /// Smallest delta with f(delta) <= target; returns delta_min() when the
  /// target is >= 1 and delta_max() when even f(delta_max()) > target.
  virtual double InverseEval(double target) const = 0;
};

/// Non-increasing piece-wise linear f with evenly spaced knots.
class PiecewiseLinearReduction final : public UpdateReductionFunction {
 public:
  /// Builds from kappa+1 knot values at delta_min + i * segment_width.
  /// Values are normalized so the first knot is 1 and clamped to be
  /// non-increasing. Requires >= 2 values, delta_min < delta_max, and a
  /// positive first value.
  static StatusOr<PiecewiseLinearReduction> FromKnots(
      double delta_min, double delta_max, std::vector<double> knot_values);

  /// Samples an arbitrary function at kappa+1 evenly spaced knots.
  static StatusOr<PiecewiseLinearReduction> SampleFunction(
      double delta_min, double delta_max, int32_t kappa,
      const std::function<double(double)>& f);

  double delta_min() const override { return delta_min_; }
  double delta_max() const override { return delta_max_; }
  double Eval(double delta) const override;
  double Rate(double delta) const override;
  double InverseEval(double target) const override;

  int32_t kappa() const { return static_cast<int32_t>(knots_.size()) - 1; }
  double segment_width() const { return segment_width_; }

 private:
  PiecewiseLinearReduction(double delta_min, double delta_max,
                           std::vector<double> knots);

  double delta_min_;
  double delta_max_;
  double segment_width_;
  std::vector<double> knots_;
};

/// Closed-form f used as a default and in unit tests:
///   f(d) = w * (delta_min / d)^gamma + (1 - w) * (delta_max - d) /
///          (delta_max - delta_min)
/// -- a steep convex drop near delta_min blending into a linear tail, the
/// shape of the paper's Figure 1.
class AnalyticReduction final : public UpdateReductionFunction {
 public:
  /// Requires 0 < delta_min < delta_max, w in [0, 1], gamma > 0.
  static StatusOr<AnalyticReduction> Create(double delta_min,
                                            double delta_max,
                                            double power_weight = 0.7,
                                            double gamma = 1.0);

  double delta_min() const override { return delta_min_; }
  double delta_max() const override { return delta_max_; }
  double Eval(double delta) const override;
  double Rate(double delta) const override;
  double InverseEval(double target) const override;

 private:
  AnalyticReduction(double delta_min, double delta_max, double w, double gamma)
      : delta_min_(delta_min),
        delta_max_(delta_max),
        w_(w),
        gamma_(gamma) {}

  double delta_min_;
  double delta_max_;
  double w_;
  double gamma_;
};

/// Calibration parameters for measuring f on a trace.
struct CalibrationConfig {
  double delta_min = 5.0;
  double delta_max = 100.0;
  /// Number of probe thresholds (geometrically spaced across the domain).
  int32_t num_probes = 12;
  /// Number of PWL segments of the resulting model. The paper's increment
  /// c_delta = 1 m over [5, 100] m corresponds to kappa = 95.
  int32_t kappa = 95;
};

/// Measures f on `trace` by running a dead-reckoning encoder at each probe
/// threshold and counting emitted updates (the first frame initializes the
/// encoders and is not counted), then interpolates the probe measurements
/// onto the PWL knot grid. This reproduces how the paper obtained Figure 1.
/// Rejects a bad config (see MeasureReductionProbes, and kappa >= 1) before
/// reading the trace.
StatusOr<PiecewiseLinearReduction> CalibrateReduction(
    const Trace& trace, const CalibrationConfig& config);

/// Raw probe measurements (delta, relative update count), exposed for the
/// Figure 1 bench. All probes are counted in one pass over the trace: each
/// block of node ids is read once per frame and fed to every probe's
/// encoder, with counts identical to one scalar Observe per node, frame and
/// probe. Requires finite 0 < delta_min < delta_max and num_probes >= 2,
/// checked before the pass.
StatusOr<std::vector<std::pair<double, double>>> MeasureReductionProbes(
    const Trace& trace, const CalibrationConfig& config);

/// Absolute update rate (updates/second, whole population) when every node
/// dead-reckons with threshold `delta` on `trace`. Used to size the server's
/// service capacity relative to the full load at delta_min. `delta` must be
/// finite and positive.
StatusOr<double> MeasureUpdateRate(const Trace& trace, double delta);

}  // namespace lira

#endif  // LIRA_MOTION_UPDATE_REDUCTION_H_
