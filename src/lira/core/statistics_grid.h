// The statistics grid (paper Section 3.2.1): an alpha x alpha evenly spaced
// grid over the monitored space storing, per cell, the number of mobile
// nodes n_{i,j}, the fractional number of queries m_{i,j}, and the average
// node speed s_{i,j}. It is the only data structure the LIRA load shedder
// maintains.
//
// Node statistics are held in integer accumulators (counts, plus speeds in
// 2^-20 m/s fixed point) so that incremental maintenance is *exact*: any
// interleaving of AddNodeQAt/RemoveNodeQAt pairs leaves the grid bitwise
// identical to a from-scratch rebuild of the same observations, which is
// what lets the CQ server delta-maintain the grid across adaptations
// instead of clearing and repopulating it (DESIGN.md section 8).

#ifndef LIRA_CORE_STATISTICS_GRID_H_
#define LIRA_CORE_STATISTICS_GRID_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/status.h"
#include "lira/cq/query_registry.h"
#include "lira/core/region_stats.h"

namespace lira {

/// Per-cell node / query / speed statistics. Node statistics can be rebuilt
/// from scratch (the grid-index-piggyback mode of the paper) or maintained
/// incrementally per position update (constant time per update).
class StatisticsGrid {
 public:
  /// `alpha` is the number of cells per side; the paper requires a power of
  /// two so a complete quad-tree can be built on top.
  static StatusOr<StatisticsGrid> Create(const Rect& world, int32_t alpha);

  /// Paper Section 3.2.5: alpha = 2^floor(log2(x * sqrt(l))), default
  /// x = 10 ("around 100 times difference in area").
  static int32_t RecommendedAlpha(int32_t l, double x = 10.0);

  int32_t alpha() const { return alpha_; }
  const Rect& world() const { return world_; }
  /// Geographic extent of cell (ix, iy); cells tile the world exactly.
  Rect CellRect(int32_t ix, int32_t iy) const;

  /// Flat index (iy * alpha + ix) of the cell containing the (clamped)
  /// point -- the key used by AddNodeQAt/RemoveNodeQAt delta maintenance.
  int32_t CellIndexOf(Point p) const;

  /// Speeds are accumulated in units of 2^-20 m/s (~1e-6 m/s resolution,
  /// far below any physically meaningful speed difference). Integer
  /// accumulation is associative and exactly reversible, so incremental
  /// add/remove leaves the grid bitwise identical to a from-scratch rebuild.
  static constexpr double kSpeedScale = 1048576.0;  // 2^20

  /// Fixed-point representation of a speed as accumulated by the grid
  /// (llround(speed * kSpeedScale)). Two speeds with equal quantization
  /// contribute identically, so a maintainer may skip the remove/add pair
  /// when QuantizeSpeed is unchanged.
  static int64_t QuantizeSpeed(double speed);

  /// Clears node statistics (n and s); query statistics are kept.
  void ClearNodes();
  /// Clears query statistics (m).
  void ClearQueries();

  /// Adds one node observation at `position` moving at `speed` m/s:
  /// AddNodeQAt(CellIndexOf(position), QuantizeSpeed(speed)).
  void AddNode(Point position, double speed);

  /// Adds / removes one node observation by flat cell index (from
  /// CellIndexOf) with the speed already quantized (q ==
  /// QuantizeSpeed(speed)) -- the delta-maintenance hot path, which caches
  /// each node's contribution and relocates only the observations that
  /// actually changed cell or speed. Unmatched removals clamp at zero.
  void AddNodeQAt(int32_t cell, int64_t q);
  void RemoveNodeQAt(int32_t cell, int64_t q);

  /// Concurrent AddNodeQAt/RemoveNodeQAt for the pooled relocation: adds a
  /// signed integer delta to one cell's accumulators with relaxed atomic
  /// adds, so several threads may add into the same cell at once. The grid
  /// totals are left alone: each thread sums its own deltas and the caller
  /// adds those sums once per thread through AddNodeTotals after the
  /// threads join (never once per delta, which would make every thread
  /// contend on the totals' cache line). Integer addition commutes and
  /// associates, so any interleaving of a set of matched remove/add pairs
  /// leaves the accumulators bitwise identical to performing the pairs
  /// serially, even when a cell's count is transiently negative; a pair
  /// within one cell may be folded into one (0, new_q - old_q) delta, which
  /// skips the count add. Removals must match contributions already present
  /// (the relocation path's do by construction); unlike RemoveNodeQAt they
  /// are NOT clamped. Nothing else may touch the grid while threads add.
  void AddNodeDeltaAtomic(int32_t cell, int64_t count_delta,
                          int64_t speed_q_delta) {
    // atomic_ref needs this alignment; node_acc_'s lanes only have int64's.
    static_assert(std::atomic_ref<int64_t>::required_alignment <=
                  alignof(int64_t));
    LIRA_DCHECK(cell >= 0 &&
                cell < static_cast<int32_t>(node_acc_.size() / 2));
    int64_t* const acc = node_acc_.data() + 2 * static_cast<size_t>(cell);
    if (count_delta != 0) {
      std::atomic_ref<int64_t>(acc[0]).fetch_add(count_delta,
                                                 std::memory_order_relaxed);
    }
    std::atomic_ref<int64_t>(acc[1]).fetch_add(speed_q_delta,
                                               std::memory_order_relaxed);
  }
  /// Adds one thread's summed AddNodeDeltaAtomic deltas to the grid totals.
  void AddNodeTotals(int64_t count_delta, int64_t speed_q_delta) {
    total_node_count_ += count_delta;
    total_speed_q_ += speed_q_delta;
  }

  /// Adds the registry's queries with fractional counting: each query adds
  /// area(q ∩ cell) / area(q) to every overlapped cell's m.
  ///
  /// `margin` (meters) expands every query rectangle on all sides before
  /// counting. A mobile node within Delta of a query border can wrongly
  /// enter/leave the result, so regions within the attainable inaccuracy of
  /// a query border should not be treated as query-free; a margin of about
  /// the maximum throttler keeps the optimizer from pressing high-Delta
  /// regions flush against query boundaries.
  void AddQueries(const QueryRegistry& registry, double margin = 0.0);

  /// As AddQueries for the registry sub-range [begin, end) only. The full
  /// count is a sum of per-query cell contributions accumulated in
  /// registration order, so counting [0, k) and later appending [k, size)
  /// is bitwise identical to one AddQueries pass over the whole registry --
  /// the append-only delta path StatsStage::RebuildQueries uses when the
  /// registry merely grew.
  void AddQueriesRange(const QueryRegistry& registry, int32_t begin,
                       int32_t end, double margin = 0.0);

  /// Bitwise equality of the fractional query counts (debug verification of
  /// the delta-maintained path against a full rescan).
  bool QueryCountsEqual(const StatisticsGrid& other) const;

  /// Per-cell accessors.
  double NodeCount(int32_t ix, int32_t iy) const;
  double QueryCount(int32_t ix, int32_t iy) const;
  double MeanSpeed(int32_t ix, int32_t iy) const;
  RegionStats CellStats(int32_t ix, int32_t iy) const;

  /// Bulk CellIndexOf over structure-of-arrays point lanes: cell[i] =
  /// CellIndexOf({px[i], py[i]}), or -1 where known[i] == 0 (known ==
  /// nullptr means every lane is valid). Dispatches to the vectorized
  /// LocateCells kernel, which reproduces LocateCell bit-for-bit.
  void LocateCells(int64_t n, const double* px, const double* py,
                   const uint8_t* known, int32_t* cell) const;

  /// Writes row iy's statistics into out[0..alpha): bitwise equal to
  /// CellStats(ix, iy) per cell, but one walk over the raw accumulator rows
  /// instead of three accessor calls per cell -- the quad-tree leaf fill
  /// path, where the per-cell call overhead dominates at alpha = 1024.
  void CellStatsRow(int32_t iy, RegionStats* out) const;

  /// Prefetch hint for a cell's node accumulators (no numeric effect). The
  /// relocation loop knows its upcoming cells from the bulk-located lane
  /// array, so it issues these a few lanes ahead to hide the
  /// read-modify-write latency of effectively random cell accesses (plain
  /// or atomic).
  void PrefetchCellAcc(int32_t cell) const {
    __builtin_prefetch(node_acc_.data() + 2 * static_cast<size_t>(cell), 1, 1);
  }

  /// Aggregated statistics of an arbitrary rectangle. Cells partially
  /// covered contribute proportionally to the covered area fraction (their
  /// contents are assumed uniformly spread). Used by the even
  /// l-partitioning baseline and by tests.
  RegionStats AggregateRect(const Rect& rect) const;

  /// Fills `out` (resized to alpha) with the exact integer node count of
  /// each grid column (sum of the column's cells). These are the load
  /// figures the cluster coordinator feeds ShardMap::Rebalance -- integers
  /// so every thread count derives the identical split.
  void ColumnNodeCounts(std::vector<int64_t>* out) const;

  /// Totals over the whole grid. Node totals are running sums maintained by
  /// Add/Remove (O(1)); the query total is cached lazily after AddQueries.
  double TotalNodes() const;
  double TotalQueries() const;
  /// Node-weighted mean speed over the grid (the paper's s-hat).
  double OverallMeanSpeed() const;

 private:
  StatisticsGrid(const Rect& world, int32_t alpha);

  size_t CellIndex(int32_t ix, int32_t iy) const {
    return static_cast<size_t>(iy) * alpha_ + ix;
  }
  /// Cell containing a (clamped) point.
  void LocateCell(Point p, int32_t* ix, int32_t* iy) const;
  double SpeedSumAt(size_t idx) const;

  Rect world_;
  int32_t alpha_;
  double cell_w_;
  double cell_h_;
  /// Node accumulators, interleaved per cell: lane 2*cell holds the count,
  /// lane 2*cell + 1 the speed sum in fixed point (QuantizeSpeed units).
  /// A relocation's read-modify-write touches one cache line per cell
  /// instead of two, which matters at alpha = 1024 where the hot-path cell
  /// accesses are effectively random.
  std::vector<int64_t> node_acc_;
  std::vector<double> query_count_;
  int64_t total_node_count_ = 0;
  int64_t total_speed_q_ = 0;
  /// Lazy per-cell sum; recomputed on first TotalQueries() after a change.
  /// Not safe against concurrent first reads (the grid is single-writer,
  /// single-reader per server).
  mutable double total_queries_ = 0.0;
  mutable bool total_queries_valid_ = true;
};

}  // namespace lira

#endif  // LIRA_CORE_STATISTICS_GRID_H_
