#include "lira/motion/update_reduction.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "lira/common/kernels.h"
#include "lira/motion/dead_reckoning.h"

namespace lira {

PiecewiseLinearReduction::PiecewiseLinearReduction(double delta_min,
                                                   double delta_max,
                                                   std::vector<double> knots)
    : delta_min_(delta_min),
      delta_max_(delta_max),
      segment_width_((delta_max - delta_min) /
                     static_cast<double>(knots.size() - 1)),
      knots_(std::move(knots)) {}

StatusOr<PiecewiseLinearReduction> PiecewiseLinearReduction::FromKnots(
    double delta_min, double delta_max, std::vector<double> knot_values) {
  if (!(delta_min < delta_max) || delta_min <= 0.0) {
    return InvalidArgumentError("require 0 < delta_min < delta_max");
  }
  if (knot_values.size() < 2) {
    return InvalidArgumentError("need at least 2 knot values");
  }
  if (knot_values[0] <= 0.0) {
    return InvalidArgumentError("first knot value must be positive");
  }
  // Normalize to f(delta_min) = 1 and enforce monotone non-increase (the
  // measured curve can wiggle slightly due to sampling noise).
  const double first = knot_values[0];
  for (double& v : knot_values) {
    v = std::max(0.0, v / first);
  }
  for (size_t i = 1; i < knot_values.size(); ++i) {
    knot_values[i] = std::min(knot_values[i], knot_values[i - 1]);
  }
  return PiecewiseLinearReduction(delta_min, delta_max,
                                  std::move(knot_values));
}

StatusOr<PiecewiseLinearReduction> PiecewiseLinearReduction::SampleFunction(
    double delta_min, double delta_max, int32_t kappa,
    const std::function<double(double)>& f) {
  if (kappa < 1) {
    return InvalidArgumentError("kappa must be >= 1");
  }
  std::vector<double> values(kappa + 1);
  for (int32_t i = 0; i <= kappa; ++i) {
    const double d = delta_min + (delta_max - delta_min) * i / kappa;
    values[i] = f(d);
  }
  return FromKnots(delta_min, delta_max, std::move(values));
}

double PiecewiseLinearReduction::Eval(double delta) const {
  delta = std::clamp(delta, delta_min_, delta_max_);
  const double pos = (delta - delta_min_) / segment_width_;
  const auto seg = std::min<int64_t>(static_cast<int64_t>(pos),
                                     static_cast<int64_t>(knots_.size()) - 2);
  const double frac = pos - static_cast<double>(seg);
  return knots_[seg] + (knots_[seg + 1] - knots_[seg]) * frac;
}

double PiecewiseLinearReduction::Rate(double delta) const {
  delta = std::clamp(delta, delta_min_, delta_max_);
  const double pos = (delta - delta_min_) / segment_width_;
  const auto seg = std::min<int64_t>(static_cast<int64_t>(pos),
                                     static_cast<int64_t>(knots_.size()) - 2);
  return (knots_[seg] - knots_[seg + 1]) / segment_width_;
}

double PiecewiseLinearReduction::InverseEval(double target) const {
  if (target >= knots_.front()) {
    return delta_min_;
  }
  if (target < knots_.back()) {
    return delta_max_;
  }
  for (size_t i = 1; i < knots_.size(); ++i) {
    if (knots_[i] <= target) {
      const double lo = knots_[i - 1];
      const double hi = knots_[i];
      const double frac = (lo - hi) > 0.0 ? (lo - target) / (lo - hi) : 1.0;
      return delta_min_ + segment_width_ * (static_cast<double>(i - 1) + frac);
    }
  }
  return delta_max_;
}

StatusOr<AnalyticReduction> AnalyticReduction::Create(double delta_min,
                                                      double delta_max,
                                                      double power_weight,
                                                      double gamma) {
  if (!(0.0 < delta_min && delta_min < delta_max)) {
    return InvalidArgumentError("require 0 < delta_min < delta_max");
  }
  if (power_weight < 0.0 || power_weight > 1.0) {
    return InvalidArgumentError("power_weight must be in [0, 1]");
  }
  if (gamma <= 0.0) {
    return InvalidArgumentError("gamma must be positive");
  }
  return AnalyticReduction(delta_min, delta_max, power_weight, gamma);
}

double AnalyticReduction::Eval(double delta) const {
  delta = std::clamp(delta, delta_min_, delta_max_);
  const double power = std::pow(delta_min_ / delta, gamma_);
  const double linear = (delta_max_ - delta) / (delta_max_ - delta_min_);
  return w_ * power + (1.0 - w_) * linear;
}

double AnalyticReduction::Rate(double delta) const {
  delta = std::clamp(delta, delta_min_, delta_max_);
  const double power_rate =
      gamma_ * std::pow(delta_min_, gamma_) / std::pow(delta, gamma_ + 1.0);
  const double linear_rate = 1.0 / (delta_max_ - delta_min_);
  return w_ * power_rate + (1.0 - w_) * linear_rate;
}

double AnalyticReduction::InverseEval(double target) const {
  if (target >= 1.0) {
    return delta_min_;
  }
  if (Eval(delta_max_) > target) {
    return delta_max_;
  }
  double lo = delta_min_;
  double hi = delta_max_;
  for (int iter = 0; iter < 64; ++iter) {
    const double mid = (lo + hi) / 2;
    if (Eval(mid) <= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

namespace {

/// Node ids per block of the counting pass. Each block keeps one
/// block-sized encoder per threshold (41 B per lane) and one widened frame
/// row (32 B per lane), so at the default 12 probes a block's working set
/// stays in L2 while every frame of the trace streams through it.
constexpr int64_t kCountBlock = 2048;

/// Updates emitted at each threshold in `deltas` when every node of `trace`
/// dead-reckons with it. Frame 0 initializes every node's model and is not
/// counted. One pass: each block of node ids is read once per frame, widened
/// once with UnpackFrame and fed to every threshold's encoder through
/// ObserveSpanUniform, which is bitwise the scalar Observe. Nodes never
/// interact, so the counts do not depend on the block size.
std::vector<int64_t> CountUpdates(const Trace& trace,
                                  const std::vector<double>& deltas) {
  const int64_t num_nodes = trace.num_nodes();
  const size_t num_deltas = deltas.size();
  std::vector<int64_t> counts(num_deltas, 0);
  std::vector<int64_t> initial(num_deltas, 0);
  std::vector<double> x(kCountBlock);
  std::vector<double> y(kCountBlock);
  std::vector<double> vx(kCountBlock);
  std::vector<double> vy(kCountBlock);
  std::vector<uint8_t> decision(kCountBlock);
  std::vector<ModelUpdate> emitted;
  for (int64_t begin = 0; begin < num_nodes; begin += kCountBlock) {
    const int64_t len = std::min(kCountBlock, num_nodes - begin);
    std::vector<DeadReckoningEncoder> encoders;
    encoders.reserve(num_deltas);
    for (size_t p = 0; p < num_deltas; ++p) {
      encoders.emplace_back(static_cast<int32_t>(len));
    }
    for (int32_t f = 0; f < trace.num_frames(); ++f) {
      kernels::UnpackFrame(len, trace.FrameData(f) + 4 * begin, x.data(),
                           y.data(), vx.data(), vy.data());
      const double t = trace.TimeOf(f);
      for (size_t p = 0; p < num_deltas; ++p) {
        encoders[p].ObserveSpanUniform(0, len, x.data(), y.data(), vx.data(),
                                       vy.data(), t, deltas[p],
                                       decision.data(), &emitted);
        emitted.clear();
      }
      if (f == 0) {
        for (size_t p = 0; p < num_deltas; ++p) {
          initial[p] = encoders[p].updates_emitted();
        }
      }
    }
    for (size_t p = 0; p < num_deltas; ++p) {
      counts[p] += encoders[p].updates_emitted() - initial[p];
    }
  }
  return counts;
}

}  // namespace

StatusOr<std::vector<std::pair<double, double>>> MeasureReductionProbes(
    const Trace& trace, const CalibrationConfig& config) {
  if (!(std::isfinite(config.delta_max) && 0.0 < config.delta_min &&
        config.delta_min < config.delta_max)) {
    return InvalidArgumentError("require finite 0 < delta_min < delta_max");
  }
  if (config.num_probes < 2) {
    return InvalidArgumentError("need at least 2 probe thresholds");
  }
  if (trace.num_frames() < 2) {
    return FailedPreconditionError("trace too short to calibrate");
  }
  std::vector<double> deltas(config.num_probes);
  const double ratio = config.delta_max / config.delta_min;
  for (int32_t p = 0; p < config.num_probes; ++p) {
    deltas[p] =
        config.delta_min *
        std::pow(ratio, static_cast<double>(p) / (config.num_probes - 1));
  }
  const std::vector<int64_t> counts = CountUpdates(trace, deltas);
  const auto base_count = static_cast<double>(counts[0]);
  if (base_count <= 0.0) {
    return FailedPreconditionError(
        "no updates emitted at delta_min; trace is degenerate");
  }
  std::vector<std::pair<double, double>> probes;
  probes.reserve(config.num_probes);
  for (int32_t p = 0; p < config.num_probes; ++p) {
    probes.emplace_back(deltas[p],
                        static_cast<double>(counts[p]) / base_count);
  }
  return probes;
}

StatusOr<double> MeasureUpdateRate(const Trace& trace, double delta) {
  if (!(std::isfinite(delta) && delta > 0.0)) {
    return InvalidArgumentError("delta must be finite and positive");
  }
  if (trace.num_frames() < 2) {
    return FailedPreconditionError("trace too short");
  }
  const double seconds = (trace.num_frames() - 1) * trace.dt();
  return static_cast<double>(CountUpdates(trace, {delta})[0]) / seconds;
}

StatusOr<PiecewiseLinearReduction> CalibrateReduction(
    const Trace& trace, const CalibrationConfig& config) {
  if (config.kappa < 1) {
    return InvalidArgumentError("kappa must be >= 1");
  }
  auto probes = MeasureReductionProbes(trace, config);
  if (!probes.ok()) {
    return probes.status();
  }
  // Linear interpolation of the probe curve onto the PWL knot grid.
  const auto& pts = *probes;
  auto interp = [&pts](double d) {
    if (d <= pts.front().first) {
      return pts.front().second;
    }
    if (d >= pts.back().first) {
      return pts.back().second;
    }
    for (size_t i = 1; i < pts.size(); ++i) {
      if (d <= pts[i].first) {
        const double t =
            (d - pts[i - 1].first) / (pts[i].first - pts[i - 1].first);
        return pts[i - 1].second + t * (pts[i].second - pts[i - 1].second);
      }
    }
    return pts.back().second;
  };
  return PiecewiseLinearReduction::SampleFunction(
      config.delta_min, config.delta_max, config.kappa, interp);
}

}  // namespace lira
