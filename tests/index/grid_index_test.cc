#include "lira/index/grid_index.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/rng.h"

namespace lira {
namespace {

GridIndex MakeIndex(int32_t cells = 8, int32_t nodes = 100) {
  auto index = GridIndex::Create(Rect{0.0, 0.0, 100.0, 100.0}, cells, nodes);
  EXPECT_TRUE(index.ok());
  return *std::move(index);
}

TEST(GridIndexTest, CreateValidation) {
  EXPECT_FALSE(GridIndex::Create(Rect{0, 0, 0, 10}, 4, 10).ok());
  EXPECT_FALSE(GridIndex::Create(Rect{0, 0, 10, 10}, 0, 10).ok());
  EXPECT_FALSE(GridIndex::Create(Rect{0, 0, 10, 10}, 4, -1).ok());
  EXPECT_TRUE(GridIndex::Create(Rect{0, 0, 10, 10}, 4, 0).ok());
}

TEST(GridIndexTest, InsertLookupRemove) {
  GridIndex index = MakeIndex();
  EXPECT_FALSE(index.Contains(3));
  index.Update(3, {10.0, 20.0});
  EXPECT_TRUE(index.Contains(3));
  EXPECT_EQ(index.PositionOf(3), (Point{10.0, 20.0}));
  EXPECT_EQ(index.size(), 1);
  index.Remove(3);
  EXPECT_FALSE(index.Contains(3));
  EXPECT_EQ(index.size(), 0);
  index.Remove(3);  // idempotent
  EXPECT_EQ(index.size(), 0);
}

TEST(GridIndexTest, UpdateMovesAcrossCells) {
  GridIndex index = MakeIndex();
  index.Update(1, {5.0, 5.0});
  index.Update(1, {95.0, 95.0});
  EXPECT_EQ(index.size(), 1);
  EXPECT_TRUE(index.RangeQuery(Rect{90.0, 90.0, 100.0, 100.0}) ==
              std::vector<NodeId>{1});
  EXPECT_TRUE(index.RangeQuery(Rect{0.0, 0.0, 10.0, 10.0}).empty());
}

TEST(GridIndexTest, RangeQueryExactBoundaries) {
  GridIndex index = MakeIndex();
  index.Update(0, {50.0, 50.0});
  // Half-open semantics: max edge excluded, min edge included.
  EXPECT_EQ(index.RangeQuery(Rect{50.0, 50.0, 60.0, 60.0}).size(), 1u);
  EXPECT_EQ(index.RangeQuery(Rect{40.0, 40.0, 50.0, 50.0}).size(), 0u);
}

TEST(GridIndexTest, OutOfWorldPositionsAreClamped) {
  GridIndex index = MakeIndex();
  index.Update(0, {-10.0, 500.0});
  EXPECT_TRUE(index.Contains(0));
  // Clamped into the world: findable with a whole-world query.
  EXPECT_EQ(index.RangeQuery(Rect{0.0, 0.0, 100.0, 100.0}).size(), 1u);
}

TEST(GridIndexTest, RangeQueryAgainstBruteForce) {
  GridIndex index = MakeIndex(/*cells=*/16, /*nodes=*/500);
  Rng rng(77);
  std::vector<Point> positions(500);
  for (NodeId id = 0; id < 500; ++id) {
    positions[id] = {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    index.Update(id, positions[id]);
  }
  for (int trial = 0; trial < 50; ++trial) {
    const double x0 = rng.Uniform(0.0, 90.0);
    const double y0 = rng.Uniform(0.0, 90.0);
    const Rect range{x0, y0, x0 + rng.Uniform(1.0, 30.0),
                     y0 + rng.Uniform(1.0, 30.0)};
    std::vector<NodeId> expected;
    for (NodeId id = 0; id < 500; ++id) {
      if (range.Contains(positions[id])) {
        expected.push_back(id);
      }
    }
    std::vector<NodeId> actual = index.RangeQuery(range);
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "trial " << trial;
  }
}

TEST(GridIndexTest, RangeQueryOutParamMatchesReturningOverload) {
  GridIndex index = MakeIndex(/*cells=*/16, /*nodes=*/200);
  Rng rng(31);
  for (NodeId id = 0; id < 200; ++id) {
    index.Update(id, {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)});
  }
  std::vector<NodeId> out = {999, 998};  // stale contents must be cleared
  for (int trial = 0; trial < 20; ++trial) {
    const double x0 = rng.Uniform(0.0, 80.0);
    const double y0 = rng.Uniform(0.0, 80.0);
    const Rect range{x0, y0, x0 + 20.0, y0 + 20.0};
    index.RangeQuery(range, &out);
    EXPECT_EQ(out, index.RangeQuery(range)) << "trial " << trial;
  }
}

TEST(GridIndexTest, QueryOutsideWorldIsEmpty) {
  GridIndex index = MakeIndex();
  index.Update(0, {50.0, 50.0});
  EXPECT_TRUE(index.RangeQuery(Rect{200.0, 200.0, 300.0, 300.0}).empty());
}

TEST(GridIndexTest, QueryPartiallyOutsideWorldIsClipped) {
  GridIndex index = MakeIndex();
  index.Update(0, {1.0, 1.0});
  EXPECT_EQ(index.RangeQuery(Rect{-50.0, -50.0, 5.0, 5.0}).size(), 1u);
}

// Swap-remove compaction must keep every bucket, slot, and position
// consistent under arbitrary interleavings of Update/Remove. Compare the
// index against a brute-force position map after a long random walk.
TEST(GridIndexTest, RandomizedUpdateRemoveMatchesBruteForce) {
  constexpr int32_t kNodes = 120;
  GridIndex index = MakeIndex(/*cells=*/8, kNodes);
  Rng rng(2024);
  std::vector<bool> present(kNodes, false);
  std::vector<Point> positions(kNodes);
  for (int step = 0; step < 5000; ++step) {
    const auto id = static_cast<NodeId>(rng.UniformInt(kNodes));
    if (present[id] && rng.Uniform(0.0, 1.0) < 0.3) {
      index.Remove(id);
      present[id] = false;
    } else {
      const Point p{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
      index.Update(id, p);
      present[id] = true;
      positions[id] = p;
    }
    if (step % 250 != 0) {
      continue;
    }
    int32_t expected_size = 0;
    for (NodeId n = 0; n < kNodes; ++n) {
      ASSERT_EQ(index.Contains(n), present[n]) << "step " << step;
      if (present[n]) {
        ++expected_size;
        ASSERT_EQ(index.PositionOf(n), positions[n]) << "step " << step;
      }
    }
    ASSERT_EQ(index.size(), expected_size);
    const double x0 = rng.Uniform(0.0, 70.0);
    const double y0 = rng.Uniform(0.0, 70.0);
    const Rect range{x0, y0, x0 + 30.0, y0 + 30.0};
    std::vector<NodeId> expected;
    for (NodeId n = 0; n < kNodes; ++n) {
      if (present[n] && range.Contains(positions[n])) {
        expected.push_back(n);
      }
    }
    std::vector<NodeId> actual = index.RangeQuery(range);
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(actual, expected) << "step " << step;
  }
}

TEST(GridIndexTest, ManyUpdatesKeepConsistentSize) {
  GridIndex index = MakeIndex(8, 50);
  Rng rng(5);
  for (int step = 0; step < 2000; ++step) {
    const auto id = static_cast<NodeId>(rng.UniformInt(50));
    index.Update(id, {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)});
  }
  EXPECT_LE(index.size(), 50);
  EXPECT_EQ(index.RangeQuery(Rect{0.0, 0.0, 100.0, 100.0}).size(),
            static_cast<size_t>(index.size()));
}

}  // namespace
}  // namespace lira
