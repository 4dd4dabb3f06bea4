#include "lira/cq/query_index.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/rng.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 1000.0, 1000.0};

QueryIndex MakeIndex(int32_t cells = 10, double margin = 0.0) {
  auto index = QueryIndex::Create(kWorld, cells, margin);
  EXPECT_TRUE(index.ok());
  return *std::move(index);
}

/// All candidate query ids listed for `cell`, ascending.
std::vector<QueryId> Candidates(const QueryIndex& index, int32_t cell) {
  std::vector<QueryId> ids = index.Partial(cell).id;
  for (QueryId id : index.Full(cell)) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(QueryIndexTest, CreateValidation) {
  EXPECT_FALSE(QueryIndex::Create(Rect{0, 0, 0, 10}, 4).ok());
  EXPECT_FALSE(QueryIndex::Create(kWorld, 0).ok());
  EXPECT_FALSE(QueryIndex::Create(kWorld, 4, -1.0).ok());
  EXPECT_TRUE(QueryIndex::Create(kWorld, 1).ok());
}

TEST(QueryIndexTest, InsertListsOverlappedCellsOnly) {
  QueryIndex index = MakeIndex();
  // Query inside cell (2,3) only.
  index.Insert(0, Rect{210.0, 310.0, 290.0, 390.0});
  const int32_t home = index.CellIndexOf({250.0, 350.0});
  EXPECT_EQ(Candidates(index, home), std::vector<QueryId>{0});
  EXPECT_TRUE(Candidates(index, index.CellIndexOf({50.0, 50.0})).empty());
  EXPECT_TRUE(index.Full(home).empty());  // does not cover the cell
}

TEST(QueryIndexTest, FullCoverageClassification) {
  QueryIndex index = MakeIndex();
  // Covers cells (1..3, 1..3) fully, overlaps the surrounding ring
  // partially.
  index.Insert(7, Rect{50.0, 50.0, 450.0, 450.0});
  const int32_t inner = index.CellIndexOf({250.0, 250.0});
  EXPECT_EQ(index.Full(inner), std::vector<QueryId>{7});
  EXPECT_TRUE(index.Partial(inner).empty());
  const int32_t edge = index.CellIndexOf({25.0, 250.0});
  EXPECT_TRUE(index.Full(edge).empty());
  ASSERT_EQ(index.Partial(edge).size(), 1u);
  EXPECT_EQ(index.Partial(edge).id[0], 7);
  EXPECT_EQ(index.Partial(edge).RectAt(0), (Rect{50.0, 50.0, 450.0, 450.0}));
}

TEST(QueryIndexTest, EraseIsInverseOfInsert) {
  QueryIndex index = MakeIndex();
  const Rect a{100.0, 100.0, 400.0, 400.0};
  const Rect b{250.0, 250.0, 600.0, 600.0};
  index.Insert(0, a);
  index.Insert(1, b);
  index.Erase(0, a);
  for (int32_t cell = 0; cell < 100; ++cell) {
    for (QueryId id : Candidates(index, cell)) {
      EXPECT_EQ(id, 1) << "cell " << cell;
    }
  }
  index.Erase(1, b);
  for (int32_t cell = 0; cell < 100; ++cell) {
    EXPECT_TRUE(Candidates(index, cell).empty()) << "cell " << cell;
  }
}

TEST(QueryIndexTest, ListsStaySortedById) {
  QueryIndex index = MakeIndex(4);
  Rng rng(11);
  // Insert in shuffled id order; lists must come out ascending.
  const std::vector<QueryId> order = {5, 1, 9, 0, 3, 7, 2, 8, 4, 6};
  for (QueryId id : order) {
    index.Insert(id, Rect{0.0, 0.0, 1000.0, 1000.0});
  }
  for (int32_t cell = 0; cell < 16; ++cell) {
    const auto& full = index.Full(cell);
    EXPECT_TRUE(std::is_sorted(full.begin(), full.end())) << "cell " << cell;
    const QueryIndex::CellPartials& partial = index.Partial(cell);
    EXPECT_TRUE(std::is_sorted(partial.id.begin(), partial.id.end()))
        << "cell " << cell;
    // The edge columns must stay aligned with the id column.
    ASSERT_EQ(partial.min_x.size(), partial.id.size());
    ASSERT_EQ(partial.min_y.size(), partial.id.size());
    ASSERT_EQ(partial.max_x.size(), partial.id.size());
    ASSERT_EQ(partial.max_y.size(), partial.id.size());
  }
}

/// Every query containing `p` is listed for `cell`, and every query listed
/// as full for `cell` contains `p`.
void ExpectCovered(const QueryIndex& index, const std::vector<Rect>& ranges,
                   int32_t cell, Point p) {
  const std::vector<QueryId> listed = Candidates(index, cell);
  for (QueryId id = 0; id < static_cast<QueryId>(ranges.size()); ++id) {
    if (ranges[id].Contains(p)) {
      EXPECT_TRUE(std::binary_search(listed.begin(), listed.end(), id))
          << "query " << id << " contains (" << p.x << ", " << p.y
          << ") but is not listed for cell " << cell;
    }
  }
  for (QueryId id : index.Full(cell)) {
    EXPECT_TRUE(ranges[id].Contains(p))
        << "query " << id << " is full for cell " << cell
        << " but does not contain (" << p.x << ", " << p.y << ")";
  }
}

// The coverage guarantee the IncrementalEvaluator depends on: every query
// containing a point appears in the lists of the point's assigned cell, and
// "full" classification implies containment of every point in the cell.
// With a margin the guarantee reaches past the cell: it holds for every
// point within per-axis distance < margin of the cell (the L-infinity form
// the evaluator's safe boxes lean on).
TEST(QueryIndexTest, CoverageGuaranteeAgainstBruteForce) {
  constexpr double kMargin = 7.8125;  // cell size / 8, the evaluator default
  QueryIndex index = MakeIndex(/*cells=*/16);
  QueryIndex wide = MakeIndex(/*cells=*/16, kMargin);
  Rng rng(404);
  std::vector<Rect> ranges;
  for (QueryId id = 0; id < 60; ++id) {
    const double x0 = rng.Uniform(-50.0, 950.0);
    const double y0 = rng.Uniform(-50.0, 950.0);
    const Rect range{x0, y0, x0 + rng.Uniform(5.0, 400.0),
                     y0 + rng.Uniform(5.0, 400.0)};
    ranges.push_back(range);
    index.Insert(id, range);
    wide.Insert(id, range);
  }
  // Query edges on the cell lines, where a point leaving the cell meets
  // them exactly.
  for (QueryId id = 60; id < 80; ++id) {
    const double x0 = 62.5 * static_cast<double>(rng.UniformInt(14));
    const double y0 = 62.5 * static_cast<double>(rng.UniformInt(14));
    const Rect range{x0, y0, x0 + 62.5 * (1 + rng.UniformInt(3)),
                     y0 + 62.5 * (1 + rng.UniformInt(3))};
    ranges.push_back(range);
    index.Insert(id, range);
    wide.Insert(id, range);
  }
  for (int trial = 0; trial < 2000; ++trial) {
    // Include exact cell-boundary coordinates in the probe distribution.
    Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    if (trial % 5 == 0) {
      p.x = 62.5 * static_cast<double>(rng.UniformInt(17));
      p.y = 62.5 * static_cast<double>(rng.UniformInt(17));
    }
    // Positions are clamped before any containment test in the evaluator.
    p = kWorld.Clamp(p);
    ExpectCovered(index, ranges, index.CellIndexOf(p), p);
    ExpectCovered(wide, ranges, wide.CellIndexOf(p), p);
  }
  // Points outside a cell but within per-axis distance < margin of it,
  // answered by that cell's lists. The extreme picks are the last doubles
  // short of the margin (cell edges and the margin are exact multiples of
  // 1/128, so c.min_x - kMargin is exact).
  for (int trial = 0; trial < 4000; ++trial) {
    const auto cell = static_cast<int32_t>(rng.UniformInt(16 * 16));
    const Rect c = wide.CellRectOf(cell);
    const double pick[] = {std::nextafter(c.min_x - kMargin, c.min_x),
                           std::nextafter(c.max_x + kMargin, c.max_x),
                           rng.Uniform(c.min_x - kMargin, c.max_x + kMargin)};
    const double pick_y[] = {std::nextafter(c.min_y - kMargin, c.min_y),
                             std::nextafter(c.max_y + kMargin, c.max_y),
                             rng.Uniform(c.min_y - kMargin, c.max_y + kMargin)};
    Point p{pick[rng.UniformInt(3)], pick_y[rng.UniformInt(3)]};
    if (trial % 4 == 0) {
      p.x = rng.Uniform(c.min_x - kMargin, c.min_x);
    }
    p = kWorld.Clamp(p);
    if (c.Contains(p)) {
      continue;
    }
    ASSERT_LT(std::max({c.min_x - p.x, p.x - c.max_x, c.min_y - p.y,
                        p.y - c.max_y}),
              kMargin);
    ExpectCovered(wide, ranges, cell, p);
  }
}

}  // namespace
}  // namespace lira
