// Spatial shard routing for ServerCluster.
//
// The world is split into S vertical strips of whole statistics-grid
// columns, so a shard's region is exactly a union of grid cells and its
// load is a sum of the coordinator grid's column counts. Routing a point
// clamps it into the world, divides once for its column -- the same column
// computation the grid itself uses -- and reads the column's shard from a
// table, so the ingest fan-out adds O(1) per update.
//
// The map is epoch-versioned (DESIGN.md §12): it starts as the balanced
// even split (epoch 0) and the cluster coordinator may Rebalance() it from
// observed per-column load. A rebalance is a pure function of the integer
// column loads, the previous boundaries, and the hysteresis bound, so any
// replica (or any thread count) fed the same grid statistics computes the
// identical next map. Strips stay contiguous across epochs: only the
// boundary positions move, each by at most `max_moves` columns per epoch,
// and every shard always keeps at least one column.

#ifndef LIRA_SERVER_SHARD_MAP_H_
#define LIRA_SERVER_SHARD_MAP_H_

#include <cstdint>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/status.h"

namespace lira {

class ShardMap {
 public:
  /// `alpha` is the statistics-grid resolution (positive power of two);
  /// `shards` must be in [1, alpha] so every shard owns at least one
  /// column.
  static StatusOr<ShardMap> Create(const Rect& world, int32_t alpha,
                                   int32_t shards);

  int32_t num_shards() const {
    return static_cast<int32_t>(col_begin_.size()) - 1;
  }
  int32_t alpha() const { return alpha_; }
  const Rect& world() const { return world_; }

  /// Rebalance generation: 0 for the initial even split, +1 per rebalance
  /// that actually moved a boundary.
  int64_t epoch() const { return epoch_; }

  /// Grid column of the (clamped) point -- the same floor arithmetic the
  /// statistics grid uses, exposed so load accounting and routing agree.
  int32_t ColumnOf(Point p) const;

  /// Shard owning the grid column that contains p (clamped into the
  /// world).
  int32_t ShardFor(Point p) const;

  /// Geographic extent of a shard: its contiguous column strip.
  Rect ShardRect(int32_t shard) const;

  /// Grid columns [first, last) owned by `shard`.
  int32_t ColumnBegin(int32_t shard) const { return col_begin_[shard]; }
  int32_t ColumnEnd(int32_t shard) const { return col_begin_[shard + 1]; }

  /// Re-splits the columns from observed load (one non-negative entry per
  /// column, e.g. the StatisticsGrid's per-column node counts): each
  /// internal boundary moves toward its balanced-prefix position -- the
  /// smallest column index where the cumulative load reaches k/S of the
  /// total, compared in exact integer arithmetic -- clamped to at most
  /// `max_moves` columns of travel per call (the per-epoch hysteresis
  /// bound) and to leaving every shard at least one column. Returns the
  /// total boundary travel in columns (== columns that changed owner,
  /// summed over boundaries); the epoch increments iff that is non-zero.
  /// A zero total load is a no-op: no information, no movement.
  int32_t Rebalance(const std::vector<int64_t>& column_load,
                    int32_t max_moves);

 private:
  ShardMap(const Rect& world, int32_t alpha, int32_t shards);

  /// Rebuilds the column -> shard table from col_begin_.
  void RefreshColumnOwners();

  Rect world_;
  int32_t alpha_;
  double cell_w_;
  int64_t epoch_ = 0;
  /// Column -> owning shard (size alpha).
  std::vector<int32_t> shard_of_col_;
  /// Shard k owns columns [col_begin_[k], col_begin_[k + 1]).
  std::vector<int32_t> col_begin_;
};

}  // namespace lira

#endif  // LIRA_SERVER_SHARD_MAP_H_
