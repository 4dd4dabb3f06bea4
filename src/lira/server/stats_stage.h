// Pipeline stage 3: statistics-grid maintenance.
//
// Owns a server's only StatisticsGrid and everything needed to refresh it
// from the believed node states at each adaptation: the delta-maintenance
// state (last contribution per node), the sampling RNG, and the query-count
// refresh cache. The believed states live in the server's one tracker,
// read in place. The rebuild paths are bitwise equal to each other:
//
//  * incremental (fraction == 1.0): relocate only contributions whose cell
//    or quantized speed changed -- bitwise identical to ClearNodes() + full
//    repopulation (integer accumulators), no RNG consumed;
//  * full (incremental_stats off) or sampled (fraction < 1.0):
//    ClearNodes() + repopulation, when sampled Bernoulli-sampled with
//    unbiased 1/fraction weighting. One RNG draw per node id, reported or
//    not, so the stream is a function of (seed, rebuild ordinal) only --
//    never of the shard count.
//
// The incremental path predicts id blocks of the tracker's records with
// PositionTracker::PredictSpan and gathers their velocities beside the
// predictions. Cells are located from the bulk-predicted positions
// (Rect::Clamp is idempotent, so clamping once in CellIndexOf
// matches a Clamp-then-locate bit-for-bit), and each node's believed
// velocity is cached so the non-vectorizable std::hypot in BelievedSpeed
// runs only for nodes whose velocity bits actually changed. The per-node
// state is keyed by node id: a cluster migration rewrites only the owner
// map, so it relocates nothing. With a worker pool of more than one thread
// the id range splits into contiguous chunks and each worker relocates its
// own nodes straight into the one grid with relaxed atomic adds
// (StatisticsGrid::AddNodeDeltaAtomic), summing its node and speed totals
// privately; the caller adds the per-worker totals to the grid after the
// join. Integer adds from matched remove/add pairs commute, so the grid is
// bitwise identical for every thread count. The serial path (no pool, or
// one thread) keeps plain adds.
//
// Query counts are delta-maintained: the registry is append-only, so when
// only its size grew (same margin), the stage counts just the appended
// tail via AddQueriesRange -- bitwise identical to the full rescan, which
// remains the fallback for margin changes or explicit invalidation (and
// double-checks the delta path in debug builds).

#ifndef LIRA_SERVER_STATS_STAGE_H_
#define LIRA_SERVER_STATS_STAGE_H_

#include <cstdint>
#include <vector>

#include "lira/common/arena.h"
#include "lira/common/geometry.h"
#include "lira/common/parallel.h"
#include "lira/common/rng.h"
#include "lira/common/status.h"
#include "lira/core/statistics_grid.h"
#include "lira/cq/query_registry.h"
#include "lira/mobility/position.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/telemetry/telemetry.h"

namespace lira {

struct StatsStageConfig {
  int32_t num_nodes = 0;
  Rect world;
  /// Statistics-grid resolution (power of two).
  int32_t alpha = 128;
  /// Fraction of nodes fed into the grid per rebuild; 1.0 = exact.
  double stats_sample_fraction = 1.0;
  /// Delta-maintain across rebuilds when the fraction is 1.0.
  bool incremental_stats = true;
  /// Final sampling-RNG seed; the server passes `seed ^ 0x57a75`.
  uint64_t seed = 1234;
  /// Optional telemetry (not owned; must outlive the stage). The stage
  /// counts `lira.coord.stats.cells_dirtied`: it runs at the cluster's
  /// coordinator.
  telemetry::TelemetrySink* telemetry = nullptr;
};

/// Grid + rebuild machinery. Not thread-safe.
class StatsStage {
 public:
  static StatusOr<StatsStage> Create(const StatsStageConfig& config);

  /// Refreshes node statistics (n, s) from the tracker's believed state at
  /// time `now`, by delta relocation or sampled repopulation per config.
  /// The tracker spans num_nodes ids. The incremental rebuild splits the id
  /// range across `pool` (not owned; nullptr = serial). It calls
  /// ParallelFor, which does not nest, so it must run outside any other
  /// section of the same pool.
  void RebuildNodes(const PositionTracker& tracker, double now,
                    ThreadPool* pool);

  /// Refreshes query statistics (m) with `margin` meters added around each
  /// query rectangle. Skips the pass entirely when the (registry size,
  /// margin) already counted is current; counts only the appended tail when
  /// the registry merely grew at the same margin (the registry is
  /// append-only, so its size captures content changes); falls back to a
  /// full rescan otherwise. InvalidateQueryCache forces the full rescan.
  void RebuildQueries(const QueryRegistry& queries, double margin);
  void InvalidateQueryCache() { query_stats_valid_ = false; }

  const StatisticsGrid& grid() const { return grid_; }

  /// True when the delta-maintenance fast path owns the node statistics.
  bool IncrementalEnabled() const {
    return incremental_stats_ && stats_sample_fraction_ == 1.0;
  }

 private:
  /// One pooled worker's relocation tally: cells dirtied, and the node and
  /// quantized-speed totals its atomic cell adds moved, which the caller
  /// adds to the grid totals after the join.
  struct WorkerTally {
    int64_t dirtied = 0;
    int64_t nodes = 0;
    int64_t speed_q = 0;
  };

  StatsStage(const StatsStageConfig& config, StatisticsGrid grid);

  /// Incremental rebuild over ids [begin, end) of `tracker` (see file
  /// comment). `shared` == nullptr mutates the grid with plain adds (serial
  /// mode); otherwise cell adds are atomic, so other workers may relocate
  /// into the grid at the same time, and the totals they move go into
  /// *shared instead of the grid. Returns cells dirtied.
  int64_t RelocateRange(const PositionTracker& tracker, double now,
                        FrameArena* arena, int64_t begin, int64_t end,
                        WorkerTally* shared);
  void RebuildNodesColumnar(const PositionTracker& tracker, double now,
                            ThreadPool* pool);

  Rect world_;
  double stats_sample_fraction_;
  bool incremental_stats_;
  StatisticsGrid grid_;
  Rng stats_rng_;
  /// Delta-maintenance state: each node's last contribution to the grid
  /// (flat cell index, -1 = none, and its quantized speed, valid while the
  /// cell is >= 0).
  std::vector<int32_t> stats_cell_of_;
  std::vector<int64_t> stats_speed_q_of_;
  /// Believed-velocity cache: the velocity bits behind stats_speed_q_of_.
  /// Consulted only while the node contributes (stats_cell_of_ >= 0); equal
  /// bits let the rebuild reuse the stored quantized speed instead of
  /// recomputing std::hypot.
  std::vector<double> stats_vel_x_;
  std::vector<double> stats_vel_y_;
  /// Incremental-rebuild scratch: one arena (and, under a pool, one tally)
  /// per worker; arenas hold the per-block prediction, velocity and cell
  /// spans.
  std::vector<FrameArena> rebuild_arenas_;
  std::vector<WorkerTally> rebuild_tallies_;
  /// Query-count refresh skip state.
  bool query_stats_valid_ = false;
  int32_t query_stats_size_ = -1;
  double query_stats_margin_ = -1.0;
  telemetry::Counter* cells_dirtied_counter_ = nullptr;
};

}  // namespace lira

#endif  // LIRA_SERVER_STATS_STAGE_H_
