// Structure-of-arrays node state for the hot paths (ISSUE 8 tentpole).
//
// The simulator's frame loop used to shuttle per-node state through arrays
// of structs (Point[], std::array<NodeState, 2>[]): every kernel touching
// one field dragged the rest of the struct through cache, and no loop could
// auto-vectorize over the strided lanes. NodeStore and NodeColumns keep each
// field in its own contiguous column with 32-bit node ids as the row index,
// so the skip/threshold/prediction kernels (common/kernels.h) stream
// exactly the bytes they need.
//
// NodeStore is the simulation-level store: the authoritative truth
// positions and velocities of the current frame, the believed positions,
// the per-node delta threshold from the active shedding plan, and the
// node's shedding-region cell.
// NodeColumns is the per-family (truth / believed) membership-walk state
// consumed by IncrementalEvaluator: position, the open safe box the last
// candidate walk certified (no membership flips while the position stays
// strictly inside it), the cached query-index cell, and the presence flag.
//
// Columns are plain std::vectors; callers hand raw pointers into kernels
// (restrict-qualified there). Nothing here is thread-safe -- parallel
// stages write disjoint contiguous row ranges, the same discipline every
// ParallelFor consumer in the repo follows.

#ifndef LIRA_COMMON_NODE_STORE_H_
#define LIRA_COMMON_NODE_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lira {

/// Per-family node-walk state columns (one instance per membership family).
struct NodeColumns {
  std::vector<double> pos_x;
  std::vector<double> pos_y;
  /// Open safe box (box_lo_x, box_hi_x) x (box_lo_y, box_hi_y) certified by
  /// the last candidate walk. All four bounds 0 is the empty box, which no
  /// point is strictly inside.
  std::vector<double> box_lo_x;
  std::vector<double> box_hi_x;
  std::vector<double> box_lo_y;
  std::vector<double> box_hi_y;
  /// Query-index cell of pos, cached so a walk never recomputes the old
  /// position's floor arithmetic; -1 when the box may leave the cell.
  std::vector<int32_t> cell;
  std::vector<uint8_t> present;

  void Resize(int32_t n) {
    pos_x.assign(n, 0.0);
    pos_y.assign(n, 0.0);
    box_lo_x.assign(n, 0.0);
    box_hi_x.assign(n, 0.0);
    box_lo_y.assign(n, 0.0);
    box_hi_y.assign(n, 0.0);
    cell.assign(n, -1);
    present.assign(n, 0);
  }

  /// Empties every box, so each node walks at its next sample.
  void EmptyBoxes() {
    for (std::vector<double>* bound :
         {&box_lo_x, &box_hi_x, &box_lo_y, &box_hi_y}) {
      std::fill(bound->begin(), bound->end(), 0.0);
    }
  }

  size_t MemoryBytes() const {
    return (pos_x.capacity() + pos_y.capacity() + box_lo_x.capacity() +
            box_hi_x.capacity() + box_lo_y.capacity() +
            box_hi_y.capacity()) * sizeof(double) +
           cell.capacity() * sizeof(int32_t) +
           present.capacity() * sizeof(uint8_t);
  }
};

/// Simulation-level SoA store for the per-frame node snapshot.
class NodeStore {
 public:
  NodeStore() = default;
  explicit NodeStore(int32_t num_nodes) { Resize(num_nodes); }

  void Resize(int32_t num_nodes) {
    num_nodes_ = num_nodes;
    truth_x_.assign(num_nodes, 0.0);
    truth_y_.assign(num_nodes, 0.0);
    vel_x_.assign(num_nodes, 0.0);
    vel_y_.assign(num_nodes, 0.0);
    believed_x_.assign(num_nodes, 0.0);
    believed_y_.assign(num_nodes, 0.0);
    believed_known_.assign(num_nodes, 0);
    delta_.assign(num_nodes, 0.0);
    region_cell_.assign(num_nodes, 0);
  }

  int32_t num_nodes() const { return num_nodes_; }

  double* truth_x() { return truth_x_.data(); }
  double* truth_y() { return truth_y_.data(); }
  double* vel_x() { return vel_x_.data(); }
  double* vel_y() { return vel_y_.data(); }
  double* believed_x() { return believed_x_.data(); }
  double* believed_y() { return believed_y_.data(); }
  uint8_t* believed_known() { return believed_known_.data(); }
  /// Per-node inaccuracy threshold from the active shedding plan, meters.
  double* delta() { return delta_.data(); }
  /// Shedding-plan region index of the node's last observed position.
  int32_t* region_cell() { return region_cell_.data(); }

  const double* truth_x() const { return truth_x_.data(); }
  const double* truth_y() const { return truth_y_.data(); }
  const double* vel_x() const { return vel_x_.data(); }
  const double* vel_y() const { return vel_y_.data(); }
  const double* believed_x() const { return believed_x_.data(); }
  const double* believed_y() const { return believed_y_.data(); }
  const uint8_t* believed_known() const { return believed_known_.data(); }
  const double* delta() const { return delta_.data(); }
  const int32_t* region_cell() const { return region_cell_.data(); }

  /// Heap footprint of the columns (for the bytes/node telemetry gauge).
  size_t MemoryBytes() const {
    return (truth_x_.capacity() + truth_y_.capacity() + vel_x_.capacity() +
            vel_y_.capacity() + believed_x_.capacity() +
            believed_y_.capacity() + delta_.capacity()) * sizeof(double) +
           believed_known_.capacity() * sizeof(uint8_t) +
           region_cell_.capacity() * sizeof(int32_t);
  }

 private:
  int32_t num_nodes_ = 0;
  std::vector<double> truth_x_;
  std::vector<double> truth_y_;
  std::vector<double> vel_x_;
  std::vector<double> vel_y_;
  std::vector<double> believed_x_;
  std::vector<double> believed_y_;
  std::vector<uint8_t> believed_known_;
  std::vector<double> delta_;
  std::vector<int32_t> region_cell_;
};

}  // namespace lira

#endif  // LIRA_COMMON_NODE_STORE_H_
