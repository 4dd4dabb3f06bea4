// Uniform-grid spatial index over moving objects.
//
// The paper assumes a grid-based index on node positions at the CQ server
// ([9], [11] in the paper); LIRA's statistics grid can piggyback on it. The
// index maps node ids to positions, buckets them into an evenly spaced grid,
// and answers axis-aligned range queries.

#ifndef LIRA_INDEX_GRID_INDEX_H_
#define LIRA_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/status.h"
#include "lira/mobility/position.h"

namespace lira {

/// Moving-object grid index. Positions outside the world rectangle are
/// clamped into it (vehicles live on the road network, which is inside the
/// world by construction, so clamping only guards float edge cases).
class GridIndex {
 public:
  /// `world` must be non-degenerate; `cells_per_side` >= 1. `num_nodes`
  /// fixes the id universe 0..num_nodes-1.
  static StatusOr<GridIndex> Create(const Rect& world, int32_t cells_per_side,
                                    int32_t num_nodes);

  /// Inserts or moves a node.
  void Update(NodeId id, Point position);

  /// Removes a node if present.
  void Remove(NodeId id);

  bool Contains(NodeId id) const {
    return id >= 0 && id < num_nodes() && cell_of_[id] >= 0;
  }

  /// Current position of a node; requires Contains(id).
  Point PositionOf(NodeId id) const;

  /// Ids of all nodes inside `range`, in unspecified order. Bucket order is
  /// NOT insertion order: Update/Remove compact buckets with an O(1)
  /// swap-remove, so a node's slot can change whenever any bucket mate
  /// leaves. Callers that need a canonical order must sort (SortedRangeQuery
  /// does).
  std::vector<NodeId> RangeQuery(const Rect& range) const;

  /// As above, but clears and fills `*out` instead of allocating a fresh
  /// vector -- the per-sample, per-query evaluation loop reuses one buffer
  /// across calls. Safe to call concurrently with other const methods.
  void RangeQuery(const Rect& range, std::vector<NodeId>* out) const;

  int32_t num_nodes() const { return static_cast<int32_t>(cell_of_.size()); }
  int32_t size() const { return size_; }
  int32_t cells_per_side() const { return cells_per_side_; }
  const Rect& world() const { return world_; }

 private:
  GridIndex(const Rect& world, int32_t cells_per_side, int32_t num_nodes);

  int32_t CellIndexFor(Point p) const;

  Rect world_;
  int32_t cells_per_side_;
  double cell_w_;
  double cell_h_;
  /// Swap-removes node `id` from its current bucket in O(1) via slot_of_.
  void RemoveFromBucket(NodeId id);

  std::vector<std::vector<NodeId>> cells_;  ///< node ids per cell
  std::vector<int32_t> cell_of_;            ///< node -> cell (-1 = absent)
  std::vector<int32_t> slot_of_;            ///< node -> index in its bucket
  std::vector<Point> position_of_;
  int32_t size_ = 0;
};

}  // namespace lira

#endif  // LIRA_INDEX_GRID_INDEX_H_
