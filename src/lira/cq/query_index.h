// Cells -> queries inverted index for incremental continual-query
// evaluation.
//
// The grid index maps cells to the nodes inside them; this is the dual
// structure: a uniform grid over the world where each cell lists the queries
// whose (slack-expanded) ranges overlap it. A node position update then only
// needs to consult the query lists of its old and new cells instead of
// re-executing every registered query -- the standard CQ-system optimization
// (ISSUE 3; cf. distributed continuous range query processing, PAPERS.md).
//
// Each cell keeps two lists, both sorted by query id:
//   - `full`: queries whose range covers the whole cell with slack to spare.
//     Every position inside the cell is a member, so a node moving within one
//     such cell can skip these queries entirely.
//   - `partial`: queries overlapping but not fully covering the cell. The
//     query rectangles are stored inline as structure-of-arrays columns
//     (CellPartials) so the membership test during a delta walk neither
//     chases a pointer into the registry nor strides over interleaved
//     fields -- a walk hands the four edge columns straight to the
//     RectWalkBox kernel (common/kernels.h).
//
// Correctness depends on a coverage guarantee: for any in-world position p
// assigned to cell c by CellIndexOf's floor arithmetic, every query
// containing p appears in c's lists. Floor arithmetic can disagree with the
// geometric cell rectangle by a few ulps at cell boundaries, so ranges are
// expanded by a slack much larger than an ulp (and full coverage is shrunk
// by the same slack) before classifying -- conservative in both directions.

#ifndef LIRA_CQ_QUERY_INDEX_H_
#define LIRA_CQ_QUERY_INDEX_H_

#include <cstdint>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/status.h"
#include "lira/cq/query.h"

namespace lira {

/// Maps grid cells to the queries overlapping them. Insert/Erase are
/// symmetric: Erase must be called with the same rectangle the query was
/// inserted with.
class QueryIndex {
 public:
  /// The queries partially overlapping one cell, as parallel columns sorted
  /// ascending by id: `id[i]` has range `{min_x[i], min_y[i], max_x[i],
  /// max_y[i]}`. The edge columns are contiguous doubles, ready for the
  /// vectorized rect kernels.
  struct CellPartials {
    std::vector<QueryId> id;
    std::vector<double> min_x;
    std::vector<double> min_y;
    std::vector<double> max_x;
    std::vector<double> max_y;

    size_t size() const { return id.size(); }
    bool empty() const { return id.empty(); }
    Rect RectAt(size_t i) const {
      return Rect{min_x[i], min_y[i], max_x[i], max_y[i]};
    }
  };

  /// `world` must be non-degenerate; `cells_per_side` >= 1. `margin`
  /// (meters, >= 0) additionally expands every range on all sides when
  /// choosing which cells list it, on top of the internal FP slack.
  static StatusOr<QueryIndex> Create(const Rect& world, int32_t cells_per_side,
                                     double margin = 0.0);

  /// Adds `id` with rectangle `range` to the lists of every overlapped cell.
  void Insert(QueryId id, const Rect& range);

  /// Removes `id` from every cell `Insert(id, range)` added it to.
  void Erase(QueryId id, const Rect& range);

  /// Flat index of the cell owning the (clamped) point. Identical floor
  /// arithmetic to GridIndex/StatisticsGrid.
  int32_t CellIndexOf(Point p) const;

  /// Geographic rectangle of a flat cell index.
  Rect CellRectOf(int32_t cell) const;

  /// Queries partially overlapping the cell, ascending by id.
  const CellPartials& Partial(int32_t cell) const { return partial_[cell]; }

  /// Queries fully covering the cell (with slack), ascending by id.
  const std::vector<QueryId>& Full(int32_t cell) const { return full_[cell]; }

  int32_t cells_per_side() const { return cells_per_side_; }
  const Rect& world() const { return world_; }
  double cell_width() const { return cell_w_; }
  double cell_height() const { return cell_h_; }
  /// The coverage slack (meters): total expansion applied on each side of a
  /// range when enumerating cells (margin + FP slack).
  double slack() const { return slack_; }
  /// The caller-chosen margin component of the slack. Any point within
  /// per-axis distance `margin()` of a cell (an L-infinity ball, not just
  /// an L1 one) is covered by that cell's lists: every query containing it
  /// is listed, and every full entry contains it. So a safe box may reach
  /// margin() past the cell on each axis (see
  /// IncrementalEvaluator::WalkCandidates).
  double margin() const { return margin_; }
  /// The FP component of the slack (slack() - margin()): the part that only
  /// absorbs floor-arithmetic ulp disagreement.
  double fp_slack() const { return slack_ - margin_; }
  /// Upper bound on the length of any cell's partial list (high watermark:
  /// Erase never lowers it). Lets walk scratch be sized once per chunk
  /// instead of once per candidate walk.
  size_t max_partial_size() const { return max_partial_; }

 private:
  QueryIndex(const Rect& world, int32_t cells_per_side, double margin);

  /// Covered cell span [cx0, cx1] x [cy0, cy1] of a slack-expanded range;
  /// false when the expanded range misses the world entirely.
  bool CellSpan(const Rect& range, int32_t* cx0, int32_t* cy0, int32_t* cx1,
                int32_t* cy1) const;

  Rect world_;
  int32_t cells_per_side_;
  double cell_w_;
  double cell_h_;
  double margin_;
  double slack_;
  std::vector<CellPartials> partial_;
  std::vector<std::vector<QueryId>> full_;
  size_t max_partial_ = 0;
};

}  // namespace lira

#endif  // LIRA_CQ_QUERY_INDEX_H_
