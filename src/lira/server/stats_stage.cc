#include "lira/server/stats_stage.h"

#include <algorithm>
#include <utility>

#include "lira/common/check.h"
#include "lira/common/kernels.h"

namespace lira {
namespace {

/// Columnar rebuild block size: ids stream through the prediction pass
/// this many lanes at a time (bounds the arena spans and keeps the block
/// resident in cache), and a pooled rebuild never cuts chunks finer.
constexpr int64_t kColumnarBlock = 8192;

}  // namespace

StatsStage::StatsStage(const StatsStageConfig& config, StatisticsGrid grid)
    : world_(config.world),
      stats_sample_fraction_(config.stats_sample_fraction),
      incremental_stats_(config.incremental_stats),
      grid_(std::move(grid)),
      stats_rng_(config.seed),
      stats_cell_of_(config.num_nodes, -1),
      stats_speed_q_of_(config.num_nodes, 0),
      stats_vel_x_(config.num_nodes, 0.0),
      stats_vel_y_(config.num_nodes, 0.0) {
  if (config.telemetry != nullptr) {
    cells_dirtied_counter_ = config.telemetry->metrics().GetCounter(
        "lira.coord.stats.cells_dirtied");
  }
}

StatusOr<StatsStage> StatsStage::Create(const StatsStageConfig& config) {
  if (config.num_nodes <= 0) {
    return InvalidArgumentError("num_nodes must be positive");
  }
  if (config.stats_sample_fraction <= 0.0 ||
      config.stats_sample_fraction > 1.0) {
    return InvalidArgumentError("stats_sample_fraction must be in (0, 1]");
  }
  auto grid = StatisticsGrid::Create(config.world, config.alpha);
  if (!grid.ok()) {
    return grid.status();
  }
  return StatsStage(config, *std::move(grid));
}

int64_t StatsStage::RelocateRange(const PositionTracker& tracker, double now,
                                  FrameArena* arena, int64_t begin,
                                  int64_t end, WorkerTally* shared) {
  arena->Reset();
  const auto span =
      static_cast<size_t>(std::min<int64_t>(end - begin, kColumnarBlock));
  auto px = arena->AllocSpan<double>(span);
  auto py = arena->AllocSpan<double>(span);
  auto has = arena->AllocSpan<uint8_t>(span);
  auto vx = arena->AllocSpan<double>(span);
  auto vy = arena->AllocSpan<double>(span);
  auto cells = arena->AllocSpan<int32_t>(span);
  auto skip = arena->AllocSpan<uint8_t>(span);
  int64_t dirtied = 0;
  // Node and quantized-speed totals this range moved; only shared mode
  // reports them (the serial adds keep the grid totals themselves).
  int64_t nodes = 0;
  int64_t speed_q = 0;
  for (int64_t block = begin; block < end; block += kColumnarBlock) {
    const int64_t n = std::min<int64_t>(kColumnarBlock, end - block);
    tracker.PredictSpan(static_cast<NodeId>(block), n, now,
                        /*fallback_x=*/nullptr, /*fallback_y=*/nullptr, px,
                        py, has);
    const ModelRecord* records = tracker.records() + block;
    for (int64_t i = 0; i < n; ++i) {
      vx[i] = records[i].vel_x;
      vy[i] = records[i].vel_y;
    }
    // The LocateCells kernel clamps internally and Rect::Clamp is
    // idempotent, so locating the raw predicted points matches a
    // Clamp-then-CellIndexOf bit-for-bit; model-less lanes come back -1.
    grid_.LocateCells(n, px, py, has, cells);
    // Vectorized fast-path test: same cell, same velocity bits -> the grid
    // already holds this node's exact contribution. (A -1 model-less lane
    // never sets skip: cell >= 0 fails.)
    kernels::RelocateSkipMask(n, cells, stats_cell_of_.data() + block, vx, vy,
                              stats_vel_x_.data() + block,
                              stats_vel_y_.data() + block, skip);
    // How far ahead the relocation loop prefetches grid lines: far enough
    // to cover the lanes between two relocations, near enough that the
    // lines survive until use.
    constexpr int64_t kPrefetchAhead = 16;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t j = i + kPrefetchAhead;
      if (j < n && skip[j] == 0) {
        const int32_t ahead_old = stats_cell_of_[block + j];
        if (ahead_old >= 0) {
          grid_.PrefetchCellAcc(ahead_old);
        }
        if (cells[j] >= 0) {
          grid_.PrefetchCellAcc(cells[j]);
        }
      }
      if (skip[i] != 0) {
        continue;
      }
      const auto id = static_cast<NodeId>(block + i);
      const int32_t old_cell = stats_cell_of_[id];
      int32_t new_cell = -1;
      int64_t new_q = 0;
      if (has[i] != 0) {
        new_cell = cells[i];
        if (old_cell >= 0 && vx[i] == stats_vel_x_[id] &&
            vy[i] == stats_vel_y_[id]) {
          // Velocity bits unchanged since the stored contribution:
          // BelievedSpeed would hypot the same operands, so the stored
          // quantized speed is bitwise the recomputed one. The mask already
          // skipped the same-cell case, so this is always a pure cell move.
          new_q = stats_speed_q_of_[id];
        } else {
          // PositionTracker::BelievedSpeed's expression.
          new_q = StatisticsGrid::QuantizeSpeed(Norm(Vec2{vx[i], vy[i]}));
          stats_vel_x_[id] = vx[i];
          stats_vel_y_[id] = vy[i];
        }
      }
      const int64_t old_q = old_cell >= 0 ? stats_speed_q_of_[id] : 0;
      if (old_cell == new_cell && (new_cell < 0 || old_q == new_q)) {
        continue;
      }
      if (shared == nullptr) {
        if (old_cell >= 0) {
          grid_.RemoveNodeQAt(old_cell, old_q);
        }
        if (new_cell >= 0) {
          grid_.AddNodeQAt(new_cell, new_q);
        }
      } else if (old_cell == new_cell) {
        // A speed change within one cell: the count is unchanged, so one
        // atomic speed add replaces the remove/add pair's four.
        grid_.AddNodeDeltaAtomic(new_cell, 0, new_q - old_q);
      } else {
        if (old_cell >= 0) {
          grid_.AddNodeDeltaAtomic(old_cell, -1, -old_q);
        }
        if (new_cell >= 0) {
          grid_.AddNodeDeltaAtomic(new_cell, 1, new_q);
        }
      }
      // Model-less sides contribute 0 to both sums (old_q / new_q are 0).
      nodes += (new_cell >= 0 ? 1 : 0) - (old_cell >= 0 ? 1 : 0);
      speed_q += new_q - old_q;
      dirtied += (old_cell >= 0 ? 1 : 0) +
                 (new_cell >= 0 && new_cell != old_cell ? 1 : 0);
      stats_cell_of_[id] = new_cell;
      stats_speed_q_of_[id] = new_q;
    }
  }
  if (shared != nullptr) {
    *shared = {dirtied, nodes, speed_q};
  }
  return dirtied;
}

void StatsStage::RebuildNodesColumnar(const PositionTracker& tracker,
                                      double now, ThreadPool* pool) {
  const auto n = static_cast<int64_t>(stats_cell_of_.size());
  const bool pooled = pool != nullptr && pool->num_threads() > 1 &&
                      n >= 2 * kColumnarBlock;
  int64_t dirtied = 0;
  if (!pooled) {
    if (rebuild_arenas_.empty()) {
      rebuild_arenas_.resize(1);
    }
    dirtied =
        RelocateRange(tracker, now, &rebuild_arenas_[0], 0, n, nullptr);
  } else {
    const auto workers = static_cast<size_t>(pool->num_threads());
    if (rebuild_arenas_.size() < workers) {
      rebuild_arenas_.resize(workers);
    }
    rebuild_tallies_.assign(workers, WorkerTally{});
    // Workers own disjoint id ranges, so per-node state writes are private;
    // grid cells are shared and take atomic integer adds. Adds commute, so
    // the cells end bitwise equal to the serial loop's whatever the
    // interleaving, and adding each worker's totals once after the join
    // gives the serial totals.
    pool->ParallelFor(0, n, kColumnarBlock,
                      [&](int32_t chunk, int64_t begin, int64_t end) {
                        RelocateRange(tracker, now, &rebuild_arenas_[chunk],
                                      begin, end, &rebuild_tallies_[chunk]);
                      });
    for (const WorkerTally& tally : rebuild_tallies_) {
      dirtied += tally.dirtied;
      grid_.AddNodeTotals(tally.nodes, tally.speed_q);
    }
  }
  if (cells_dirtied_counter_ != nullptr) {
    cells_dirtied_counter_->Increment(dirtied);
  }
}

void StatsStage::RebuildNodes(const PositionTracker& tracker, double now,
                              ThreadPool* pool) {
  const auto num_nodes = static_cast<NodeId>(stats_cell_of_.size());
  LIRA_CHECK(tracker.num_nodes() == num_nodes);
  if (IncrementalEnabled()) {
    RebuildNodesColumnar(tracker, now, pool);
    return;
  }
  grid_.ClearNodes();
  const double fraction = stats_sample_fraction_;
  const double weight = 1.0 / fraction;
  // Every id draws from the RNG (sampled mode) whether or not it has a
  // model, keeping the stream independent of ownership and report state.
  for (NodeId id = 0; id < num_nodes; ++id) {
    if (fraction < 1.0 && !stats_rng_.Bernoulli(fraction)) {
      continue;
    }
    const auto position = tracker.PredictAt(id, now);
    if (!position.has_value()) {
      continue;
    }
    const Point where = world_.Clamp(*position);
    const double speed = tracker.BelievedSpeed(id);
    // Unbiased scaling: each sampled node stands for 1/fraction nodes.
    for (double mass = weight; mass > 1e-9; mass -= 1.0) {
      // AddNode has unit mass; add floor(weight) copies plus a Bernoulli
      // remainder so expectations match exactly.
      if (mass >= 1.0 || stats_rng_.Bernoulli(mass)) {
        grid_.AddNode(where, speed);
      }
    }
  }
}

void StatsStage::RebuildQueries(const QueryRegistry& queries, double margin) {
  if (query_stats_valid_ && query_stats_size_ == queries.size() &&
      query_stats_margin_ == margin) {
    return;  // counts already in the grid are current
  }
  if (query_stats_valid_ && query_stats_margin_ == margin &&
      query_stats_size_ >= 0 && queries.size() > query_stats_size_) {
    // The registry is append-only and the margin is unchanged, so only the
    // tail [counted, size) is new. Query contributions accumulate in
    // registration order, making the appended count bitwise identical to a
    // full rescan (StatisticsGrid::AddQueriesRange).
    grid_.AddQueriesRange(queries, query_stats_size_, queries.size(), margin);
#ifndef NDEBUG
    StatisticsGrid check = grid_;
    check.ClearQueries();
    check.AddQueries(queries, margin);
    LIRA_DCHECK(grid_.QueryCountsEqual(check));
#endif
  } else {
    grid_.ClearQueries();
    grid_.AddQueries(queries, margin);
  }
  query_stats_valid_ = true;
  query_stats_size_ = queries.size();
  query_stats_margin_ = margin;
}

}  // namespace lira
