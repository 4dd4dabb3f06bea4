// Recorded position traces.
//
// A Trace stores the full kinematic state of every node at every tick in a
// compact float representation, standing in for the paper's "hour long car
// position trace". Recording once and replaying lets every load-shedding
// policy in an experiment see the identical workload.

#ifndef LIRA_MOBILITY_TRACE_H_
#define LIRA_MOBILITY_TRACE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/status.h"
#include "lira/mobility/position.h"
#include "lira/mobility/traffic_model.h"

namespace lira {

/// An immutable recorded trace: `num_frames` snapshots, dt seconds apart, of
/// `num_nodes` nodes each.
class Trace {
 public:
  /// Advances `model` by `num_frames` ticks of `dt` seconds, recording a
  /// snapshot after each tick. Works with any model exposing Tick /
  /// NumVehicles / Sample (TrafficModel, TripTrafficModel). dt must be
  /// finite.
  template <typename Model>
  static StatusOr<Trace> Record(Model& model, int32_t num_frames, double dt) {
    if (num_frames <= 0 || !ValidDt(dt)) {
      return InvalidArgumentError(
          "num_frames must be positive and dt positive and finite");
    }
    Trace trace(num_frames, model.NumVehicles(), dt);
    trace.states_.reserve(static_cast<size_t>(num_frames) *
                          model.NumVehicles());
    for (int32_t f = 0; f < num_frames; ++f) {
      model.Tick(dt);
      for (NodeId id = 0; id < model.NumVehicles(); ++id) {
        const PositionSample s = model.Sample(id);
        trace.states_.push_back({static_cast<float>(s.position.x),
                                 static_cast<float>(s.position.y),
                                 static_cast<float>(s.velocity.x),
                                 static_cast<float>(s.velocity.y)});
      }
    }
    return trace;
  }

  /// Builds a trace from raw interleaved state floats laid out row-major:
  /// for each frame, for each node, {x, y, vx, vy}. `flat` must have
  /// exactly 4 * num_frames * num_nodes entries, all finite, and dt must be
  /// positive and finite. Used by the trace-IO layer to import externally
  /// produced traces.
  static StatusOr<Trace> FromFlatStates(int32_t num_frames,
                                        int32_t num_nodes, double dt,
                                        const std::vector<float>& flat);

  int32_t num_frames() const { return num_frames_; }
  int32_t num_nodes() const { return num_nodes_; }
  double dt() const { return dt_; }
  /// Simulation time of frame f (first frame is at t = dt).
  double TimeOf(int32_t frame) const { return dt_ * (frame + 1); }

  Point Position(int32_t frame, NodeId node) const {
    const CompactState& s = At(frame, node);
    return {s.x, s.y};
  }
  Vec2 Velocity(int32_t frame, NodeId node) const {
    const CompactState& s = At(frame, node);
    return {s.vx, s.vy};
  }
  double Speed(int32_t frame, NodeId node) const {
    return Norm(Velocity(frame, node));
  }
  PositionSample Sample(int32_t frame, NodeId node) const;

  /// Raw frame row: num_nodes() stride-4 float states {x, y, vx, vy} --
  /// exactly kernels::UnpackFrame's input layout, so a whole frame widens
  /// to double columns in one kernel call instead of num_nodes() Sample
  /// calls (float -> double conversion is exact either way).
  const float* FrameData(int32_t frame) const {
    LIRA_DCHECK(frame >= 0 && frame < num_frames_);
    return &states_[static_cast<size_t>(frame) * num_nodes_].x;
  }

  /// Mean speed over all nodes in a frame.
  double MeanSpeed(int32_t frame) const;

  /// Whether dt can space a trace's frames: positive and finite.
  static bool ValidDt(double dt) { return dt > 0.0 && std::isfinite(dt); }

 private:
  struct CompactState {
    float x, y, vx, vy;
  };
  static_assert(sizeof(CompactState) == 4 * sizeof(float),
                "FrameData exposes CompactState as a packed stride-4 row");

  Trace(int32_t num_frames, int32_t num_nodes, double dt)
      : num_frames_(num_frames), num_nodes_(num_nodes), dt_(dt) {}

  const CompactState& At(int32_t frame, NodeId node) const {
    LIRA_DCHECK(frame >= 0 && frame < num_frames_);
    LIRA_DCHECK(node >= 0 && node < num_nodes_);
    return states_[static_cast<size_t>(frame) * num_nodes_ + node];
  }

  int32_t num_frames_;
  int32_t num_nodes_;
  double dt_;
  std::vector<CompactState> states_;
};

}  // namespace lira

#endif  // LIRA_MOBILITY_TRACE_H_
