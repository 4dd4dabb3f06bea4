#include "lira/motion/dead_reckoning.h"

#include "lira/common/check.h"
#include "lira/common/kernels.h"

namespace lira {

DeadReckoningEncoder::DeadReckoningEncoder(int32_t num_nodes)
    : origin_x_(num_nodes, 0.0),
      origin_y_(num_nodes, 0.0),
      vel_x_(num_nodes, 0.0),
      vel_y_(num_nodes, 0.0),
      t0_(num_nodes, 0.0),
      has_model_(num_nodes, 0) {
  LIRA_CHECK(num_nodes >= 0);
}

std::optional<ModelUpdate> DeadReckoningEncoder::Observe(
    const PositionSample& sample, double delta) {
  const NodeId id = sample.node_id;
  LIRA_DCHECK(id >= 0 && id < num_nodes());
  bool send = false;
  if (!has_model_[id]) {
    send = true;
  } else {
    const LinearMotionModel model{Point{origin_x_[id], origin_y_[id]},
                                  Vec2{vel_x_[id], vel_y_[id]}, t0_[id]};
    const Point predicted = model.PredictAt(sample.time);
    send = Distance(predicted, sample.position) > delta;
  }
  if (!send) {
    return std::nullopt;
  }
  origin_x_[id] = sample.position.x;
  origin_y_[id] = sample.position.y;
  vel_x_[id] = sample.velocity.x;
  vel_y_[id] = sample.velocity.y;
  t0_[id] = sample.time;
  has_model_[id] = 1;
  updates_emitted_.fetch_add(1, std::memory_order_relaxed);
  return ModelUpdate{
      id, LinearMotionModel{sample.position, sample.velocity, sample.time}};
}

void DeadReckoningEncoder::ResolveAndMaybeSend(NodeId id, double ox, double oy,
                                               double vx, double vy, double t,
                                               double delta,
                                               std::vector<ModelUpdate>* out,
                                               int64_t* emitted) {
  // Observe's exact expression, reproduced verbatim for lanes inside the
  // kernel's rounding band.
  const LinearMotionModel model{Point{origin_x_[id], origin_y_[id]},
                                Vec2{vel_x_[id], vel_y_[id]}, t0_[id]};
  const Point predicted = model.PredictAt(t);
  if (!(Distance(predicted, Point{ox, oy}) > delta)) {
    return;
  }
  origin_x_[id] = ox;
  origin_y_[id] = oy;
  vel_x_[id] = vx;
  vel_y_[id] = vy;
  t0_[id] = t;
  has_model_[id] = 1;
  ++*emitted;
  out->push_back(
      ModelUpdate{id, LinearMotionModel{Point{ox, oy}, Vec2{vx, vy}, t}});
}

void DeadReckoningEncoder::ObserveSpan(NodeId begin, int64_t n,
                                       const double* obs_x,
                                       const double* obs_y,
                                       const double* obs_vx,
                                       const double* obs_vy, double t,
                                       const double* delta, uint8_t* decision,
                                       std::vector<ModelUpdate>* out) {
  LIRA_DCHECK(begin >= 0 && begin + n <= num_nodes());
  kernels::DeviationFilter(n, origin_x_.data() + begin,
                           origin_y_.data() + begin, vel_x_.data() + begin,
                           vel_y_.data() + begin, t0_.data() + begin,
                           has_model_.data() + begin, t, obs_x, obs_y, delta,
                           decision);
  int64_t emitted = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint8_t d = decision[i];
    if (d == kernels::kDevKeep) {
      continue;
    }
    const NodeId id = begin + static_cast<NodeId>(i);
    if (d == kernels::kDevAmbiguous) {
      ResolveAndMaybeSend(id, obs_x[i], obs_y[i], obs_vx[i], obs_vy[i], t,
                          delta[i], out, &emitted);
      continue;
    }
    origin_x_[id] = obs_x[i];
    origin_y_[id] = obs_y[i];
    vel_x_[id] = obs_vx[i];
    vel_y_[id] = obs_vy[i];
    t0_[id] = t;
    has_model_[id] = 1;
    ++emitted;
    out->push_back(ModelUpdate{
        id, LinearMotionModel{Point{obs_x[i], obs_y[i]},
                              Vec2{obs_vx[i], obs_vy[i]}, t}});
  }
  if (emitted > 0) {
    updates_emitted_.fetch_add(emitted, std::memory_order_relaxed);
  }
}

void DeadReckoningEncoder::ObserveSpanUniform(
    NodeId begin, int64_t n, const double* obs_x, const double* obs_y,
    const double* obs_vx, const double* obs_vy, double t, double delta,
    uint8_t* decision, std::vector<ModelUpdate>* out) {
  LIRA_DCHECK(begin >= 0 && begin + n <= num_nodes());
  kernels::DeviationFilterUniform(
      n, origin_x_.data() + begin, origin_y_.data() + begin,
      vel_x_.data() + begin, vel_y_.data() + begin, t0_.data() + begin,
      has_model_.data() + begin, t, obs_x, obs_y, delta, decision);
  int64_t emitted = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint8_t d = decision[i];
    if (d == kernels::kDevKeep) {
      continue;
    }
    const NodeId id = begin + static_cast<NodeId>(i);
    if (d == kernels::kDevAmbiguous) {
      ResolveAndMaybeSend(id, obs_x[i], obs_y[i], obs_vx[i], obs_vy[i], t,
                          delta, out, &emitted);
      continue;
    }
    origin_x_[id] = obs_x[i];
    origin_y_[id] = obs_y[i];
    vel_x_[id] = obs_vx[i];
    vel_y_[id] = obs_vy[i];
    t0_[id] = t;
    has_model_[id] = 1;
    ++emitted;
    out->push_back(ModelUpdate{
        id, LinearMotionModel{Point{obs_x[i], obs_y[i]},
                              Vec2{obs_vx[i], obs_vy[i]}, t}});
  }
  if (emitted > 0) {
    updates_emitted_.fetch_add(emitted, std::memory_order_relaxed);
  }
}

std::optional<LinearMotionModel> DeadReckoningEncoder::ModelOf(
    NodeId id) const {
  if (id < 0 || id >= num_nodes() || !has_model_[id]) {
    return std::nullopt;
  }
  return LinearMotionModel{Point{origin_x_[id], origin_y_[id]},
                           Vec2{vel_x_[id], vel_y_[id]}, t0_[id]};
}

PositionTracker::PositionTracker(int32_t num_nodes) : records_(num_nodes) {
  LIRA_CHECK(num_nodes >= 0);
}

void PositionTracker::Apply(const ModelUpdate& update) {
  const NodeId id = update.node_id;
  LIRA_DCHECK(id >= 0 && id < num_nodes());
  ModelRecord& record = records_[id];
  record.origin_x = update.model.origin.x;
  record.origin_y = update.model.origin.y;
  record.vel_x = update.model.velocity.x;
  record.vel_y = update.model.velocity.y;
  record.t0 = update.model.t0;
  record.has = 1;
}

std::optional<Point> PositionTracker::PredictAt(NodeId id, double t) const {
  if (!HasModel(id)) {
    return std::nullopt;
  }
  const ModelRecord& r = records_[id];
  const LinearMotionModel model{Point{r.origin_x, r.origin_y},
                                Vec2{r.vel_x, r.vel_y}, r.t0};
  return model.PredictAt(t);
}

double PositionTracker::BelievedSpeed(NodeId id) const {
  if (!HasModel(id)) {
    return 0.0;
  }
  return Norm(Vec2{records_[id].vel_x, records_[id].vel_y});
}

void PositionTracker::PredictSpan(NodeId begin, int64_t n, double t,
                                  const double* fallback_x,
                                  const double* fallback_y, double* out_x,
                                  double* out_y, uint8_t* known) const {
  LIRA_DCHECK(begin >= 0 && begin + n <= num_nodes());
  LIRA_DCHECK((fallback_x == nullptr) == (fallback_y == nullptr));
  const ModelRecord* records = records_.data() + begin;
  const auto predict = [&](int64_t i) {
    const ModelRecord& r = records[i];
    // LinearMotionModel::PredictAt's expression, operation for operation.
    const double dt = t - r.t0;
    double x = r.origin_x + r.vel_x * dt;
    double y = r.origin_y + r.vel_y * dt;
    if (r.has == 0 && fallback_x != nullptr) {
      x = fallback_x[i];
      y = fallback_y[i];
    }
    out_x[i] = x;
    out_y[i] = y;
    if (known != nullptr) {
      known[i] = r.has;
    }
  };
  // A sequential walk over the records is one memory stream, and hardware
  // prefetchers keep fewer lines in flight for one stream than for
  // several. Walking the span as four interleaved quarters read a store
  // too large for the cache about 1.5x faster (EXPERIMENTS.md). Lanes are
  // independent, so the order changes no output.
  constexpr int64_t kStreams = 4;
  const int64_t quarter = n / kStreams;
  for (int64_t i = 0; i < quarter; ++i) {
    for (int64_t s = 0; s < kStreams; ++s) {
      predict(s * quarter + i);
    }
  }
  for (int64_t i = kStreams * quarter; i < n; ++i) {
    predict(i);
  }
}

}  // namespace lira
