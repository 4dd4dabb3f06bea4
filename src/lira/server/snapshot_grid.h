// The server's range index: one believed-position snapshot grid per server
// (DESIGN.md §12).
//
// At the end of every tick a server with maintain_index on refills the
// snapshot from every node's believed position at the tick's time and bins
// the positions into the cells of its own alpha x alpha statistics grid, in
// CSR layout (compressed sparse row): one array of node ids sorted by cell,
// ascending within a cell, the positions copied into the same order, and
// one start offset per cell. A range query locates its two corners with
// StatisticsGrid::CellIndexOf and scans the covered cells -- one contiguous
// run per covered row -- with the exact Rect::Contains test.
//
// The scan is exact because each axis's cell index never decreases as the
// coordinate grows (clamp, subtract, divide, truncate, clamp again), so
// every point with min <= x < max lies in a column between the columns of
// the range's two corners, and likewise for rows. Believed positions that
// drifted outside the world sit in the border cells, where range corners
// outside the world clamp too.
//
// The snapshot holds one time. ServerCluster::AnswerRange serves any later
// time with an O(n) fill of the believed positions at that time, filtered
// by the same Contains test.

#ifndef LIRA_SERVER_SNAPSHOT_GRID_H_
#define LIRA_SERVER_SNAPSHOT_GRID_H_

#include <cstdint>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/parallel.h"
#include "lira/core/statistics_grid.h"
#include "lira/mobility/position.h"
#include "lira/motion/dead_reckoning.h"

namespace lira {

/// Believed positions of ids [0, num_nodes) at one time, binned by cell.
/// Every method that bins or locates takes the grid whose cells it uses;
/// pass the same grid to Build/Rebuild and Range. Range is const and reads
/// only, so concurrent readers are safe between rebuilds.
class SnapshotGrid {
 public:
  /// An empty snapshot at time 0 over `num_nodes` ids and the cells of an
  /// alpha x alpha grid. Allocates every array once, here.
  SnapshotGrid(int32_t num_nodes, int32_t alpha);

  /// Refills the snapshot with `tracker`'s believed positions at time t,
  /// predicted and located in id blocks on `pool` (nullptr = inline; lanes
  /// are independent, so any thread count gives the same snapshot), then
  /// counting-sorts them as Build does. The tracker spans num_nodes() ids.
  void Rebuild(const PositionTracker& tracker, double t,
               const StatisticsGrid& grid, ThreadPool* pool);

  /// Bins caller columns by `grid`'s cells with a serial counting sort:
  /// lane i is node i, and lanes whose `known` byte is 0 are left out.
  /// Every column spans num_nodes() lanes; `grid` must have the alpha the
  /// snapshot was created with.
  void Build(double t, const double* x, const double* y, const uint8_t* known,
             const StatisticsGrid& grid);

  /// Ids whose snapshot position lies in `range` (Rect::Contains),
  /// ascending. Empty, inverted and NaN-edged ranges contain nothing.
  std::vector<NodeId> Range(const StatisticsGrid& grid,
                            const Rect& range) const;

  /// The time of the believed positions held.
  double time() const { return time_; }
  int32_t num_nodes() const { return static_cast<int32_t>(cell_.size()); }
  /// Nodes with a position in the snapshot.
  int32_t size() const { return cell_start_.back(); }

 private:
  /// The serial counting sort over cell_, which holds every lane's cell in
  /// `grid` (-1 = left out): fills the CSR arrays from the x/y columns and
  /// sets the time.
  void SortByCell(double t, const double* x, const double* y,
                  const StatisticsGrid& grid);

  double time_ = 0.0;
  /// Rebuild's believed columns.
  std::vector<double> fill_x_;
  std::vector<double> fill_y_;
  std::vector<uint8_t> fill_known_;
  /// Each lane's flat cell, -1 for a lane without a model.
  std::vector<int32_t> cell_;
  /// CSR: cell c holds entries [cell_start_[c], cell_start_[c + 1]) of
  /// ids_ / x_ / y_.
  std::vector<int32_t> cell_start_;
  std::vector<NodeId> ids_;
  std::vector<double> x_;
  std::vector<double> y_;
};

}  // namespace lira

#endif  // LIRA_SERVER_SNAPSHOT_GRID_H_
