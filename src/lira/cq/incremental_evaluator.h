// Incremental continual-query evaluation (ISSUE 3 tentpole; SoA hot path,
// ISSUE 8).
//
// CompareAllQueries re-executes every registered range query on each
// accuracy sample: O(Q * avg_result) work even when almost nothing moved.
// IncrementalEvaluator instead maintains each query's membership state
// across samples (a believed member list plus a truth member counter): a
// node's position update consults only the query lists of its old and new
// grid cells (QueryIndex), emits membership deltas for the handful of
// queries whose boundary it crossed, and the per-sample cost drops to
// O(moved_nodes * queries_per_cell).
//
// Per-node walk state lives in structure-of-arrays columns (NodeColumns,
// one instance per membership family). Each candidate walk certifies a
// safe box: an open axis-aligned box around the walked position inside
// which no query of the cell changes membership and the cell's lists stay
// complete. The per-chunk pre-passes -- clamping the incoming positions
// and testing every node against its box -- run as contiguous
// auto-vectorized kernels (common/kernels.h) before a scalar driver walks
// only the nodes that left their box. A walk streams the new cell's
// partial-query rect columns through the RectWalkBox kernel into per-chunk
// FrameArena scratch (sized once per chunk from the query index's
// partial-list high watermark); the event emission and the reduction of
// the box cuts stay scalar.
//
// Determinism contract (DESIGN.md sections 7, 8 and 11): the evaluator's
// output is bitwise identical to the from-scratch CompareAllQueries path at
// any thread count, and identical between the vectorized and scalar-
// reference kernel builds. ApplySample's parallel phase writes only
// per-node column slots and per-worker delta buffers; the per-worker
// buffers are regrouped into (query, family) buckets with a stable
// counting sort. Every chunk walks its nodes in ascending id and the
// chunks are contiguous and ascending, so each bucket arrives in ascending
// node order whatever the thread count: the applied event stream is a pure
// function of the event SET.
// Membership deltas are integers, the symmetric difference is maintained as
// an integer counter (its update rule keeps the invariant exact at every
// step, so the final counts are independent of application order), and the
// per-query position error sums identical per-node distance terms in the
// same ascending-id order as CompareQuery -- so no floating-point
// reassociation can occur.
//
// kFullRescan keeps the original two-GridIndex + CompareQuery path alive
// behind the same interface for verification and benchmarking.

#ifndef LIRA_CQ_INCREMENTAL_EVALUATOR_H_
#define LIRA_CQ_INCREMENTAL_EVALUATOR_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "lira/common/arena.h"
#include "lira/common/geometry.h"
#include "lira/common/kernels.h"
#include "lira/common/node_store.h"
#include "lira/common/parallel.h"
#include "lira/common/status.h"
#include "lira/cq/evaluator.h"
#include "lira/cq/query_index.h"
#include "lira/cq/query_registry.h"
#include "lira/index/grid_index.h"

namespace lira {

/// Evaluation strategy; both produce bitwise-identical QueryAccuracy.
enum class EvalMode {
  /// Delta-maintained member sets via the QueryIndex (the fast path).
  kIncremental,
  /// Rebuild member sets per sample with two GridIndexes + CompareQuery
  /// (the original path, kept for verification).
  kFullRescan,
};

/// Maintains per-query truth/believed member sets across accuracy samples.
/// One instance per simulation run; call ApplySample with the full per-node
/// position snapshot each sample, then Evaluate for the per-query accuracy.
class IncrementalEvaluator {
 public:
  /// `cells_per_side` controls the QueryIndex granularity (use the same
  /// value as the snapshot GridIndexes it replaces). `margin` expands query
  /// ranges in the cell->query index: correctness never requires it, but it
  /// lets safe boxes cross cell boundaries (a node hugging a cell edge with
  /// no query nearby would otherwise re-walk every sample). The default
  /// (any negative value) picks cell_size / 8, a good trade between list
  /// length and skip rate; 0 disables the headroom.
  static StatusOr<IncrementalEvaluator> Create(
      const Rect& world, int32_t cells_per_side, int32_t num_nodes,
      const QueryRegistry& registry, EvalMode mode = EvalMode::kIncremental,
      double margin = -1.0);

  /// Ingests one accuracy sample from SoA position columns: per-node truth
  /// position, believed position, and whether the server believes it knows
  /// the node at all. Lanes with believed_known[id] == 0 ignore the
  /// believed columns. With a pool, nodes are processed in deterministic
  /// contiguous chunks; per-worker delta buffers are concatenated in chunk
  /// (= node) order and applied grouped by query.
  void ApplySample(const double* truth_x, const double* truth_y,
                   const double* believed_x, const double* believed_y,
                   const uint8_t* believed_known, ThreadPool* pool = nullptr);

  /// Array-of-structs convenience overload (tests and legacy callers);
  /// stages the points into reusable columns and runs the SoA path.
  void ApplySample(const std::vector<Point>& truth_positions,
                   const std::vector<Point>& believed_positions,
                   const std::vector<char>& believed_known,
                   ThreadPool* pool = nullptr);

  /// Per-query accuracy of the current sample; slot q corresponds to query
  /// id q (removed queries report a default-constructed QueryAccuracy).
  /// Bitwise identical to CompareAllQueries over the same positions.
  std::vector<QueryAccuracy> Evaluate(ThreadPool* pool = nullptr);

  /// Registers a new query mid-run; returns its dense id (registration
  /// order, matching QueryRegistry semantics). Member sets are initialized
  /// from the currently stored positions.
  QueryId AddQuery(const Rect& range);

  /// Unregisters a query mid-run; its Evaluate slot reports defaults.
  void RemoveQuery(QueryId id);

  int32_t num_queries() const { return static_cast<int32_t>(queries_.size()); }
  int32_t num_nodes() const { return num_nodes_; }
  EvalMode mode() const { return mode_; }

  /// Cumulative membership deltas applied (incremental mode only).
  int64_t deltas_applied() const { return deltas_applied_; }
  /// Cumulative candidate (node, query) pairs examined during delta walks
  /// (incremental mode only).
  int64_t queries_touched() const { return queries_touched_; }

  /// Heap footprint of the per-node walk columns (bytes/node telemetry).
  size_t node_state_bytes() const {
    return cols_[0].MemoryBytes() + cols_[1].MemoryBytes() +
           node_distance_.capacity() * sizeof(double);
  }
  /// Largest per-worker scratch-arena watermark seen so far (bytes).
  size_t arena_high_watermark() const {
    size_t hw = 0;
    for (const WorkerScratch& ws : scratch_) {
      hw = std::max(hw, ws.chunk_arena.high_watermark());
    }
    return hw;
  }

 private:
  /// Index into the per-family state arrays.
  enum Family : int { kTruth = 0, kBelieved = 1 };

  /// One membership flip, produced by the parallel walk and applied
  /// serially in node order. Packed to 8 bytes: query ids occupy the top 30
  /// bits of `tag` (AddQuery checks the bound), family bit 1, add bit 0.
  struct MemberEvent {
    uint32_t tag;
    NodeId node;
  };

  static MemberEvent MakeEvent(QueryId query, NodeId node, int family,
                               bool add) {
    return MemberEvent{(static_cast<uint32_t>(query) << 2) |
                           (static_cast<uint32_t>(family) << 1) |
                           static_cast<uint32_t>(add),
                       node};
  }

  /// Open axis-aligned box (lo_x, hi_x) x (lo_y, hi_y) certified by a
  /// walk; the default is the empty box.
  struct SafeBox {
    double lo_x = 0.0;
    double hi_x = 0.0;
    double lo_y = 0.0;
    double hi_y = 0.0;
  };

  /// RectWalkBox's output columns, one slot per partial entry of a cell.
  struct WalkColumns {
    double* old_side = nullptr;
    double* new_side = nullptr;
    double* cut_lo_x = nullptr;
    double* cut_hi_x = nullptr;
    double* cut_lo_y = nullptr;
    double* cut_hi_y = nullptr;
  };

  /// Per-worker output and scratch of the parallel phase. The arena is
  /// exclusively owned by one worker per sample (ParallelFor chunk c runs
  /// on worker c) and holds the per-chunk clamp/skip columns plus the
  /// candidate-walk columns, all allocated once per chunk; `walk` aliases
  /// into it and is rewritten by every ProcessChunk call.
  struct WorkerScratch {
    std::vector<MemberEvent> events;
    int64_t touched = 0;
    FrameArena chunk_arena;
    WalkColumns walk;
  };

  IncrementalEvaluator(const Rect& world, int32_t num_nodes, EvalMode mode,
                       QueryIndex query_index);

  /// Runs the clamp + box-skip kernels over node rows [begin, end), then
  /// walks the nodes whose skip test failed as one deferred batch, in
  /// ascending id (ApplyEvents relies on that order).
  void ProcessChunk(int64_t begin, int64_t end, const double* truth_x,
                    const double* truth_y, const double* believed_x,
                    const double* believed_y, const uint8_t* believed_known,
                    WorkerScratch* ws);
  /// Re-walks one family of one node after a failed skip test; updates the
  /// family's columns. `new_cell` is the query-index cell of new_pos (-1
  /// when !new_present), precomputed by the driver.
  void WalkFamily(Family family, NodeId id, bool new_present, Point new_pos,
                  int32_t new_cell, WorkerScratch* ws);
  /// Emits membership-flip events for the move old -> new and returns the
  /// safe box around `new_pos` (computed inside the same pass over the new
  /// cell's partial list; empty when !new_present). Maintains the family's
  /// cached cell id.
  SafeBox WalkCandidates(Family family, NodeId id, bool old_present,
                         Point old_pos, bool new_present, Point new_pos,
                         int32_t new_cell, WorkerScratch* ws);
  /// Intersects `box` with the first n cuts in `walk`.
  static void NarrowBox(int64_t n, const WalkColumns& walk, SafeBox* box);
  void ApplyEvents(const std::vector<WorkerScratch>& scratch);

  Rect world_;
  int32_t num_nodes_;
  EvalMode mode_;
  QueryIndex query_index_;
  /// world_'s Rect::Clamp bounds, precomputed for the ClampPoints kernel.
  kernels::ClampSpec clamp_spec_;

  /// Dense query state; ids are registration order.
  std::vector<Rect> queries_;
  std::vector<char> active_;
  /// Truth member-set sizes, maintained as counters. The truth sets are
  /// only ever consumed as a size (Evaluate) and a membership test
  /// (ApplyEvents' in_other), and the test is answered geometrically
  /// against the authoritative truth columns -- `present && Contains(pos)`
  /// equals list membership at all times -- so no truth lists are stored or
  /// rebuilt.
  std::vector<int32_t> truth_size_;
  /// believed_members_[q]: current believed member ids, ascending (Evaluate
  /// streams them to sum the per-node distance terms in ascending-id
  /// order, which the determinism contract requires).
  std::vector<std::vector<NodeId>> believed_members_;
  /// |truth(q) symmetric-difference believed(q)|, maintained exactly.
  std::vector<int32_t> sym_diff_;

  /// Per-family per-node walk state columns: authoritative clamped
  /// position, the safe box the last candidate walk certified (no
  /// membership flips while the position stays strictly inside it), and
  /// the cached query-index cell (>= 0 only while the box provably keeps
  /// the cell assignment, so a later walk can skip CellIndexOf's floor
  /// arithmetic).
  std::array<NodeColumns, 2> cols_;
  /// Distance(believed, truth) per believed-known node, refreshed each
  /// sample; summed per query in ascending id order by Evaluate.
  std::vector<double> node_distance_;

  /// Per-worker scratch, kept across samples so steady-state samples do no
  /// heap allocation (events keep their capacity, arenas their block).
  std::vector<WorkerScratch> scratch_;
  /// AoS-overload staging columns, reused across samples.
  std::vector<double> stage_tx_;
  std::vector<double> stage_ty_;
  std::vector<double> stage_bx_;
  std::vector<double> stage_by_;

  /// ApplyEvents scratch, kept across samples to avoid reallocation:
  /// counting-sort bucket boundaries ((query, family) keys), the regrouped
  /// event buffer, and the member-merge output (swapped with the live
  /// member vector per bucket).
  std::vector<uint32_t> event_starts_;
  std::vector<MemberEvent> sorted_events_;
  std::vector<NodeId> merge_buf_;

  /// kFullRescan state: the original snapshot indexes.
  std::optional<GridIndex> truth_index_;
  std::optional<GridIndex> believed_index_;

  int64_t deltas_applied_ = 0;
  int64_t queries_touched_ = 0;
  /// False until the first ApplySample: no node is present yet, so
  /// AddQuery (Create's bulk registration) skips the member seeding walk
  /// and the box reset.
  bool sample_seen_ = false;
};

}  // namespace lira

#endif  // LIRA_CQ_INCREMENTAL_EVALUATOR_H_
