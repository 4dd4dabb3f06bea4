#include "lira/mobility/trace.h"

#include <cmath>
#include <string>

namespace lira {

StatusOr<Trace> Trace::FromFlatStates(int32_t num_frames, int32_t num_nodes,
                                      double dt,
                                      const std::vector<float>& flat) {
  if (num_frames <= 0 || num_nodes <= 0 || !ValidDt(dt)) {
    return InvalidArgumentError(
        "num_frames and num_nodes must be positive and dt positive and "
        "finite");
  }
  const size_t expected =
      4 * static_cast<size_t>(num_frames) * static_cast<size_t>(num_nodes);
  if (flat.size() != expected) {
    return InvalidArgumentError("flat state buffer has the wrong size");
  }
  for (size_t i = 0; i < flat.size(); ++i) {
    if (!std::isfinite(flat[i])) {
      const size_t row = i / 4;
      return InvalidArgumentError(
          "non-finite state at frame " + std::to_string(row / num_nodes) +
          ", node " + std::to_string(row % num_nodes));
    }
  }
  Trace trace(num_frames, num_nodes, dt);
  trace.states_.reserve(expected / 4);
  for (size_t i = 0; i < flat.size(); i += 4) {
    trace.states_.push_back({flat[i], flat[i + 1], flat[i + 2], flat[i + 3]});
  }
  return trace;
}

PositionSample Trace::Sample(int32_t frame, NodeId node) const {
  PositionSample s;
  s.node_id = node;
  s.time = TimeOf(frame);
  s.position = Position(frame, node);
  s.velocity = Velocity(frame, node);
  return s;
}

double Trace::MeanSpeed(int32_t frame) const {
  if (num_nodes_ == 0) {
    return 0.0;
  }
  double total = 0.0;
  for (NodeId id = 0; id < num_nodes_; ++id) {
    total += Speed(frame, id);
  }
  return total / num_nodes_;
}

}  // namespace lira
