#include "lira/core/statistics_grid.h"

#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/rng.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 800.0, 800.0};

StatisticsGrid MakeGrid(int32_t alpha = 8) {
  auto grid = StatisticsGrid::Create(kWorld, alpha);
  EXPECT_TRUE(grid.ok());
  return *std::move(grid);
}

/// Removes one observation by point and speed, the inverse of AddNode.
void RemoveNode(StatisticsGrid& grid, Point position, double speed) {
  grid.RemoveNodeQAt(grid.CellIndexOf(position),
                     StatisticsGrid::QuantizeSpeed(speed));
}

TEST(StatisticsGridTest, CreateRequiresPowerOfTwoAlpha) {
  EXPECT_TRUE(StatisticsGrid::Create(kWorld, 1).ok());
  EXPECT_TRUE(StatisticsGrid::Create(kWorld, 128).ok());
  EXPECT_FALSE(StatisticsGrid::Create(kWorld, 0).ok());
  EXPECT_FALSE(StatisticsGrid::Create(kWorld, 3).ok());
  EXPECT_FALSE(StatisticsGrid::Create(kWorld, -8).ok());
  EXPECT_FALSE(StatisticsGrid::Create(Rect{0, 0, 0, 1}, 8).ok());
}

TEST(StatisticsGridTest, RecommendedAlphaFormula) {
  // alpha = 2^floor(log2(10 * sqrt(l))).
  EXPECT_EQ(StatisticsGrid::RecommendedAlpha(250), 128);
  EXPECT_EQ(StatisticsGrid::RecommendedAlpha(4000), 512);  // paper Sec 4.3.2
  EXPECT_EQ(StatisticsGrid::RecommendedAlpha(1), 8);
  EXPECT_EQ(StatisticsGrid::RecommendedAlpha(100), 64);
}

TEST(StatisticsGridTest, CellRectsTileTheWorld) {
  StatisticsGrid grid = MakeGrid(4);
  double total = 0.0;
  for (int32_t iy = 0; iy < 4; ++iy) {
    for (int32_t ix = 0; ix < 4; ++ix) {
      total += grid.CellRect(ix, iy).Area();
    }
  }
  EXPECT_NEAR(total, kWorld.Area(), 1e-6);
  EXPECT_EQ(grid.CellRect(0, 0), (Rect{0, 0, 200, 200}));
  EXPECT_EQ(grid.CellRect(3, 3), (Rect{600, 600, 800, 800}));
}

TEST(StatisticsGridTest, AddNodeAccumulatesCountAndSpeed) {
  StatisticsGrid grid = MakeGrid();
  grid.AddNode({50.0, 50.0}, 10.0);
  grid.AddNode({60.0, 60.0}, 20.0);  // same 100 m cell
  EXPECT_DOUBLE_EQ(grid.NodeCount(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(grid.MeanSpeed(0, 0), 15.0);
  EXPECT_DOUBLE_EQ(grid.NodeCount(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(grid.MeanSpeed(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(grid.TotalNodes(), 2.0);
}

TEST(StatisticsGridTest, RemoveNodeIsInverseOfAdd) {
  StatisticsGrid grid = MakeGrid();
  grid.AddNode({50.0, 50.0}, 10.0);
  grid.AddNode({50.0, 50.0}, 30.0);
  RemoveNode(grid, {50.0, 50.0}, 10.0);
  EXPECT_DOUBLE_EQ(grid.NodeCount(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(grid.MeanSpeed(0, 0), 30.0);
  RemoveNode(grid, {50.0, 50.0}, 30.0);
  EXPECT_DOUBLE_EQ(grid.NodeCount(0, 0), 0.0);
  // Extra removals clamp at zero rather than going negative.
  RemoveNode(grid, {50.0, 50.0}, 5.0);
  EXPECT_DOUBLE_EQ(grid.NodeCount(0, 0), 0.0);
}

TEST(StatisticsGridTest, OutOfWorldNodesClampIntoEdgeCells) {
  StatisticsGrid grid = MakeGrid();
  grid.AddNode({-50.0, 900.0}, 5.0);
  EXPECT_DOUBLE_EQ(grid.NodeCount(0, 7), 1.0);
}

TEST(StatisticsGridTest, FractionalQueryCounting) {
  StatisticsGrid grid = MakeGrid(4);  // 200 m cells
  QueryRegistry registry;
  // A 200x200 query exactly covering cell (1,1).
  registry.Add(Rect{200, 200, 400, 400});
  // A 200x200 query straddling cells (0,0),(1,0),(0,1),(1,1) equally.
  registry.Add(Rect{100, 100, 300, 300});
  grid.AddQueries(registry);
  EXPECT_NEAR(grid.QueryCount(1, 1), 1.0 + 0.25, 1e-12);
  EXPECT_NEAR(grid.QueryCount(0, 0), 0.25, 1e-12);
  EXPECT_NEAR(grid.QueryCount(1, 0), 0.25, 1e-12);
  EXPECT_NEAR(grid.QueryCount(0, 1), 0.25, 1e-12);
  EXPECT_NEAR(grid.TotalQueries(), 2.0, 1e-12);
}

TEST(StatisticsGridTest, QueryMarginExpandsFootprint) {
  StatisticsGrid grid = MakeGrid(4);  // 200 m cells
  QueryRegistry registry;
  registry.Add(Rect{250, 250, 350, 350});  // strictly inside cell (1,1)
  grid.AddQueries(registry, /*margin=*/0.0);
  EXPECT_NEAR(grid.QueryCount(1, 1), 1.0, 1e-12);
  EXPECT_NEAR(grid.QueryCount(0, 0), 0.0, 1e-12);
  grid.ClearQueries();
  // A 100 m margin turns it into a 300x300 rect spanning [150, 450):
  // corners now reach the diagonal neighbors.
  grid.AddQueries(registry, /*margin=*/100.0);
  EXPECT_GT(grid.QueryCount(0, 0), 0.0);
  EXPECT_GT(grid.QueryCount(1, 0), 0.0);
  EXPECT_GT(grid.QueryCount(1, 1), 0.0);
  // Fractions still sum to one query.
  EXPECT_NEAR(grid.TotalQueries(), 1.0, 1e-9);
}

TEST(StatisticsGridTest, TotalQueriesEqualsRegistrySizeForInsideQueries) {
  StatisticsGrid grid = MakeGrid(16);
  QueryRegistry registry;
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    const double side = rng.Uniform(30.0, 150.0);
    const Point center{rng.Uniform(side / 2, 800.0 - side / 2),
                       rng.Uniform(side / 2, 800.0 - side / 2)};
    registry.Add(Rect::CenteredAt(center, side));
  }
  grid.AddQueries(registry);
  EXPECT_NEAR(grid.TotalQueries(), 40.0, 1e-9);
}

TEST(StatisticsGridTest, ClearSeparatesNodesAndQueries) {
  StatisticsGrid grid = MakeGrid();
  QueryRegistry registry;
  registry.Add(Rect{0, 0, 100, 100});
  grid.AddQueries(registry);
  grid.AddNode({50, 50}, 5.0);
  grid.ClearNodes();
  EXPECT_DOUBLE_EQ(grid.TotalNodes(), 0.0);
  EXPECT_NEAR(grid.TotalQueries(), 1.0, 1e-12);
  grid.ClearQueries();
  EXPECT_DOUBLE_EQ(grid.TotalQueries(), 0.0);
}

TEST(StatisticsGridTest, OverallMeanSpeedIsNodeWeighted) {
  StatisticsGrid grid = MakeGrid();
  grid.AddNode({50, 50}, 10.0);
  grid.AddNode({50, 50}, 10.0);
  grid.AddNode({50, 50}, 10.0);
  grid.AddNode({750, 750}, 30.0);
  EXPECT_DOUBLE_EQ(grid.OverallMeanSpeed(), 15.0);
  StatisticsGrid empty = MakeGrid();
  EXPECT_DOUBLE_EQ(empty.OverallMeanSpeed(), 0.0);
}

TEST(StatisticsGridTest, AggregateRectWholeWorldMatchesTotals) {
  StatisticsGrid grid = MakeGrid(8);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    grid.AddNode({rng.Uniform(0.0, 800.0), rng.Uniform(0.0, 800.0)},
                 rng.Uniform(5.0, 20.0));
  }
  QueryRegistry registry;
  registry.Add(Rect{100, 100, 300, 250});
  grid.AddQueries(registry);
  const RegionStats stats = grid.AggregateRect(kWorld);
  EXPECT_NEAR(stats.n, 200.0, 1e-9);
  EXPECT_NEAR(stats.m, 1.0, 1e-9);
  EXPECT_NEAR(stats.s, grid.OverallMeanSpeed(), 1e-9);
}

TEST(StatisticsGridTest, AggregateRectPartialCellsAreFractional) {
  StatisticsGrid grid = MakeGrid(4);  // 200 m cells
  grid.AddNode({100.0, 100.0}, 10.0);  // cell (0,0)
  // Rect covering the left half of cell (0,0): half of the cell's area ->
  // half a node under the uniform-spread assumption.
  const RegionStats stats = grid.AggregateRect(Rect{0, 0, 100, 200});
  EXPECT_NEAR(stats.n, 0.5, 1e-12);
  EXPECT_NEAR(stats.s, 10.0, 1e-12);
}

TEST(StatisticsGridTest, AggregateDisjointPartsSumToWhole) {
  StatisticsGrid grid = MakeGrid(8);
  Rng rng(12);
  for (int i = 0; i < 150; ++i) {
    grid.AddNode({rng.Uniform(0.0, 800.0), rng.Uniform(0.0, 800.0)}, 7.0);
  }
  const RegionStats left = grid.AggregateRect(Rect{0, 0, 333.0, 800.0});
  const RegionStats right = grid.AggregateRect(Rect{333.0, 0, 800.0, 800.0});
  EXPECT_NEAR(left.n + right.n, 150.0, 1e-9);
}

TEST(StatisticsGridTest, CellStatsBundlesAccessors) {
  StatisticsGrid grid = MakeGrid();
  grid.AddNode({150.0, 50.0}, 12.0);
  const RegionStats stats = grid.CellStats(1, 0);
  EXPECT_DOUBLE_EQ(stats.n, 1.0);
  EXPECT_DOUBLE_EQ(stats.s, 12.0);
  EXPECT_DOUBLE_EQ(stats.m, 0.0);
}

TEST(StatisticsGridTest, AddNodeQAtMatchesAddNode) {
  StatisticsGrid by_point = MakeGrid();
  StatisticsGrid by_cell = MakeGrid();
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const Point p{rng.Uniform(0.0, 800.0), rng.Uniform(0.0, 800.0)};
    const double speed = rng.Uniform(0.0, 40.0);
    by_point.AddNode(p, speed);
    by_cell.AddNodeQAt(by_cell.CellIndexOf(p),
                       StatisticsGrid::QuantizeSpeed(speed));
  }
  for (int32_t iy = 0; iy < 8; ++iy) {
    for (int32_t ix = 0; ix < 8; ++ix) {
      EXPECT_EQ(by_point.NodeCount(ix, iy), by_cell.NodeCount(ix, iy));
      EXPECT_EQ(by_point.MeanSpeed(ix, iy), by_cell.MeanSpeed(ix, iy));
    }
  }
  EXPECT_EQ(by_point.TotalNodes(), by_cell.TotalNodes());
  EXPECT_EQ(by_point.OverallMeanSpeed(), by_cell.OverallMeanSpeed());
}

// The delta-maintenance contract: after any interleaving of adds, removes,
// and node relocations, the grid is bitwise identical to a from-scratch
// rebuild of the surviving observations. Integer accumulators make this
// exact, not approximate.
TEST(StatisticsGridTest, IncrementalMaintenanceIsBitwiseEqualToRebuild) {
  constexpr int32_t kNodes = 150;
  StatisticsGrid live = MakeGrid();
  Rng rng(314);
  std::vector<bool> present(kNodes, false);
  std::vector<Point> positions(kNodes);
  std::vector<double> speeds(kNodes, 0.0);
  for (int step = 0; step < 3000; ++step) {
    const auto id = static_cast<int32_t>(rng.UniformInt(kNodes));
    if (present[id]) {
      RemoveNode(live, positions[id], speeds[id]);
      present[id] = false;
    }
    if (rng.Uniform(0.0, 1.0) < 0.85) {
      positions[id] = {rng.Uniform(0.0, 800.0), rng.Uniform(0.0, 800.0)};
      speeds[id] = rng.Uniform(0.0, 40.0);
      live.AddNode(positions[id], speeds[id]);
      present[id] = true;
    }
  }
  StatisticsGrid rebuilt = MakeGrid();
  for (int32_t id = 0; id < kNodes; ++id) {
    if (present[id]) {
      rebuilt.AddNode(positions[id], speeds[id]);
    }
  }
  for (int32_t iy = 0; iy < 8; ++iy) {
    for (int32_t ix = 0; ix < 8; ++ix) {
      ASSERT_EQ(live.NodeCount(ix, iy), rebuilt.NodeCount(ix, iy));
      ASSERT_EQ(live.MeanSpeed(ix, iy), rebuilt.MeanSpeed(ix, iy));
    }
  }
  EXPECT_EQ(live.TotalNodes(), rebuilt.TotalNodes());
  EXPECT_EQ(live.OverallMeanSpeed(), rebuilt.OverallMeanSpeed());
}

TEST(StatisticsGridTest, TotalsStayConsistentWithCellSums) {
  StatisticsGrid grid = MakeGrid();
  grid.AddNode({10.0, 10.0}, 5.0);
  grid.AddNode({700.0, 700.0}, 15.0);
  // Unmatched removal clamps at zero without corrupting the running totals.
  RemoveNode(grid, {400.0, 400.0}, 99.0);
  double cell_nodes = 0.0;
  double cell_speed_dot = 0.0;
  for (int32_t iy = 0; iy < 8; ++iy) {
    for (int32_t ix = 0; ix < 8; ++ix) {
      cell_nodes += grid.NodeCount(ix, iy);
      cell_speed_dot += grid.MeanSpeed(ix, iy) * grid.NodeCount(ix, iy);
    }
  }
  EXPECT_EQ(grid.TotalNodes(), cell_nodes);
  EXPECT_NEAR(grid.OverallMeanSpeed(), cell_speed_dot / cell_nodes, 1e-12);

  QueryRegistry registry;
  registry.Add(Rect{0.0, 0.0, 400.0, 400.0});
  registry.Add(Rect{100.0, 100.0, 300.0, 500.0});
  grid.AddQueries(registry);
  double cell_queries = 0.0;
  for (int32_t iy = 0; iy < 8; ++iy) {
    for (int32_t ix = 0; ix < 8; ++ix) {
      cell_queries += grid.QueryCount(ix, iy);
    }
  }
  EXPECT_EQ(grid.TotalQueries(), cell_queries);  // cached lazily
  EXPECT_EQ(grid.TotalQueries(), cell_queries);  // cache hit agrees
  grid.ClearQueries();
  EXPECT_EQ(grid.TotalQueries(), 0.0);
}

TEST(StatisticsGridTest, QAtRemoveUndoesQAtAdd) {
  StatisticsGrid b = MakeGrid();
  const int64_t q = StatisticsGrid::QuantizeSpeed(13.377);
  b.AddNodeQAt(3, q);
  EXPECT_EQ(b.NodeCount(3, 0), 1.0);
  b.RemoveNodeQAt(3, q);
  EXPECT_EQ(b.NodeCount(3, 0), 0.0);
  EXPECT_EQ(b.TotalNodes(), 0.0);
}

TEST(StatisticsGridTest, AtomicNodeDeltaMatchesDirectPairsAnyOrder) {
  // A set of matched remove/add relocations applied directly...
  StatisticsGrid direct = MakeGrid();
  StatisticsGrid deferred = MakeGrid();
  StatisticsGrid threaded = MakeGrid();
  Rng rng(77);
  std::vector<std::pair<int32_t, int64_t>> present;
  for (int i = 0; i < 40; ++i) {
    const int32_t cell = static_cast<int32_t>(rng.Uniform(0.0, 63.999));
    const int64_t q =
        StatisticsGrid::QuantizeSpeed(rng.Uniform(0.0, 30.0));
    direct.AddNodeQAt(cell, q);
    deferred.AddNodeQAt(cell, q);
    threaded.AddNodeQAt(cell, q);
    present.push_back({cell, q});
  }
  // ...must equal the same relocations added as per-cell atomic deltas in
  // a different order, with the totals folded in once afterwards (integer
  // addition commutes).
  struct Delta {
    int32_t cell;
    int64_t count;
    int64_t q;
  };
  std::vector<Delta> deltas;
  for (int i = 0; i < 20; ++i) {
    auto [old_cell, old_q] = present[static_cast<size_t>(i)];
    const int32_t new_cell = static_cast<int32_t>(rng.Uniform(0.0, 63.999));
    const int64_t new_q =
        StatisticsGrid::QuantizeSpeed(rng.Uniform(0.0, 30.0));
    direct.RemoveNodeQAt(old_cell, old_q);
    direct.AddNodeQAt(new_cell, new_q);
    deltas.push_back({old_cell, -1, -old_q});
    deltas.push_back({new_cell, 1, new_q});
  }
  // Reverse order: removals may transiently precede the matching balance.
  int64_t count_sum = 0;
  int64_t q_sum = 0;
  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
    deferred.AddNodeDeltaAtomic(it->cell, it->count, it->q);
    count_sum += it->count;
    q_sum += it->q;
  }
  deferred.AddNodeTotals(count_sum, q_sum);
  // The same deltas from 8 threads at once, each adding a strided share
  // and summing its own totals, folded in per thread after the join.
  constexpr int kThreads = 8;
  std::vector<std::pair<int64_t, int64_t>> sums(kThreads, {0, 0});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < deltas.size();
           i += kThreads) {
        threaded.AddNodeDeltaAtomic(deltas[i].cell, deltas[i].count,
                                    deltas[i].q);
        sums[t].first += deltas[i].count;
        sums[t].second += deltas[i].q;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const auto& [count, q] : sums) {
    threaded.AddNodeTotals(count, q);
  }
  for (const StatisticsGrid* added : {&deferred, &threaded}) {
    for (int32_t iy = 0; iy < 8; ++iy) {
      for (int32_t ix = 0; ix < 8; ++ix) {
        ASSERT_EQ(direct.NodeCount(ix, iy), added->NodeCount(ix, iy));
        ASSERT_EQ(direct.MeanSpeed(ix, iy), added->MeanSpeed(ix, iy));
      }
    }
    EXPECT_EQ(direct.TotalNodes(), added->TotalNodes());
    EXPECT_EQ(direct.OverallMeanSpeed(), added->OverallMeanSpeed());
  }
}

TEST(StatisticsGridTest, AddQueriesRangeAppendMatchesFullPass) {
  QueryRegistry registry;
  Rng rng(13);
  for (int i = 0; i < 9; ++i) {
    const Point c{rng.Uniform(50.0, 750.0), rng.Uniform(50.0, 750.0)};
    registry.Add(Rect::CenteredAt(c, rng.Uniform(30.0, 240.0)));
  }
  const double margin = 25.0;
  StatisticsGrid full = MakeGrid();
  full.AddQueries(registry, margin);
  StatisticsGrid split = MakeGrid();
  split.AddQueriesRange(registry, 0, 4, margin);
  split.AddQueriesRange(registry, 4, registry.size(), margin);
  EXPECT_TRUE(full.QueryCountsEqual(split));
  EXPECT_EQ(full.TotalQueries(), split.TotalQueries());

  // Different split point, same registration order: still bitwise equal.
  StatisticsGrid other = MakeGrid();
  other.AddQueriesRange(registry, 0, 7, margin);
  other.AddQueriesRange(registry, 7, registry.size(), margin);
  EXPECT_TRUE(full.QueryCountsEqual(other));

  StatisticsGrid reordered = MakeGrid();
  reordered.AddQueriesRange(registry, 4, registry.size(), margin);
  reordered.AddQueriesRange(registry, 0, 4, margin);
  // FP addition per cell is order-sensitive in general, but equality here
  // would not be wrong -- only the in-order contract is guaranteed.
  EXPECT_EQ(reordered.TotalQueries() > 0.0, true);
}

TEST(RegionStatsTest, AdditionMergesSpeedByNodeWeight) {
  RegionStats a;
  a.n = 3;
  a.m = 1;
  a.s = 10;
  RegionStats b;
  b.n = 1;
  b.m = 0.5;
  b.s = 30;
  const RegionStats sum = a + b;
  EXPECT_DOUBLE_EQ(sum.n, 4.0);
  EXPECT_DOUBLE_EQ(sum.m, 1.5);
  EXPECT_DOUBLE_EQ(sum.s, 15.0);
  const RegionStats zero = RegionStats{} + RegionStats{};
  EXPECT_DOUBLE_EQ(zero.s, 0.0);
}

}  // namespace
}  // namespace lira
