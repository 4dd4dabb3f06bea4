#include "lira/server/snapshot_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/parallel.h"
#include "lira/common/rng.h"
#include "lira/core/policy.h"
#include "lira/motion/update_reduction.h"
#include "lira/server/cq_server.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 1000.0, 1000.0};
constexpr int32_t kAlpha = 16;  // 62.5 m cells

/// Believed-position columns a test edits directly, plus the brute-force
/// answer every snapshot answer must equal.
struct Columns {
  explicit Columns(int32_t n) : x(n, 0.0), y(n, 0.0), known(n, 0) {}

  void Set(NodeId id, Point p) {
    x[id] = p.x;
    y[id] = p.y;
    known[id] = 1;
  }

  std::vector<NodeId> BruteForce(const Rect& range) const {
    std::vector<NodeId> out;
    for (NodeId id = 0; id < static_cast<NodeId>(x.size()); ++id) {
      if (known[id] != 0 && range.Contains({x[id], y[id]})) {
        out.push_back(id);
      }
    }
    return out;
  }

  std::vector<double> x;
  std::vector<double> y;
  std::vector<uint8_t> known;
};

class SnapshotGridTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto grid = StatisticsGrid::Create(kWorld, kAlpha);
    ASSERT_TRUE(grid.ok());
    grid_.emplace(*std::move(grid));
  }

  SnapshotGrid BuildFrom(const Columns& c, double t = 0.0) {
    SnapshotGrid snapshot(static_cast<int32_t>(c.x.size()), kAlpha);
    snapshot.Build(t, c.x.data(), c.y.data(), c.known.data(), *grid_);
    return snapshot;
  }

  std::optional<StatisticsGrid> grid_;
};

TEST_F(SnapshotGridTest, MatchesBruteForceUnderChurn) {
  // Believed positions reach up to 1 km outside the world on every side,
  // and ranges cross the world edge or lie wholly outside it.
  constexpr int32_t kNodes = 300;
  Columns c(kNodes);
  SnapshotGrid snapshot(kNodes, kAlpha);
  Rng rng(31337);
  for (int step = 0; step < 300; ++step) {
    for (int k = 0; k < 30; ++k) {
      const auto id = static_cast<NodeId>(rng.UniformInt(kNodes));
      if (rng.Uniform01() < 0.85) {
        c.Set(id, {rng.Uniform(-1000.0, 2000.0), rng.Uniform(-1000.0, 2000.0)});
      } else {
        c.known[id] = 0;
      }
    }
    snapshot.Build(0.5 * step, c.x.data(), c.y.data(), c.known.data(),
                   *grid_);
    ASSERT_EQ(snapshot.time(), 0.5 * step);
    ASSERT_EQ(snapshot.size(),
              std::count(c.known.begin(), c.known.end(), uint8_t{1}));
    for (int q = 0; q < 6; ++q) {
      const Rect range = Rect::CenteredAt(
          {rng.Uniform(-1200.0, 2200.0), rng.Uniform(-1200.0, 2200.0)},
          rng.Uniform(10.0, 900.0));
      ASSERT_EQ(snapshot.Range(*grid_, range), c.BruteForce(range))
          << "step " << step << " range " << range;
    }
    // The whole plane, and the strips just outside each world edge.
    for (const Rect& range :
         {Rect{-3000.0, -3000.0, 3000.0, 3000.0},
          Rect{-1000.0, 0.0, 0.0, 1000.0}, Rect{1000.0, 0.0, 2000.0, 1000.0},
          Rect{0.0, -1000.0, 1000.0, 0.0}, Rect{0.0, 1000.0, 1000.0, 2000.0}}) {
      ASSERT_EQ(snapshot.Range(*grid_, range), c.BruteForce(range))
          << "step " << step << " range " << range;
    }
  }
}

TEST_F(SnapshotGridTest, MinEdgeIsInsideAndMaxEdgeIsOutside) {
  // Nodes 0..59 on the world's min edge x = 0 (a road along the border),
  // nodes 60..119 on x = 50.
  Columns c(120);
  for (NodeId id = 0; id < 60; ++id) {
    c.Set(id, {0.0, 10.0 * id});
    c.Set(id + 60, {50.0, 10.0 * id});
  }
  const SnapshotGrid snapshot = BuildFrom(c);
  // y in [95, 305) on the closed min edge x = 0: ids 10..30. The x = 50
  // column lies on the open max edge.
  const auto hits = snapshot.Range(*grid_, Rect{0.0, 95.0, 50.0, 305.0});
  EXPECT_EQ(hits.size(), 21u);
  EXPECT_EQ(hits.front(), 10);
  EXPECT_EQ(hits.back(), 30);
  // y = 100 lies on the min edge and is in; y = 300 on the max edge is out.
  const auto rows = snapshot.Range(*grid_, Rect{0.0, 100.0, 50.0, 300.0});
  EXPECT_EQ(rows.size(), 20u);
  EXPECT_EQ(rows.front(), 10);
  EXPECT_EQ(rows.back(), 29);
  // Edges exactly on a cell border (62.5 m cells): x = 62.5 is the first
  // coordinate of column 1.
  Columns border(2);
  border.Set(0, {62.5, 62.5});
  border.Set(1, {62.5 - 1e-9, 62.5 - 1e-9});
  const SnapshotGrid cells = BuildFrom(border);
  EXPECT_EQ(cells.Range(*grid_, Rect{62.5, 62.5, 125.0, 125.0}),
            std::vector<NodeId>{0});
  EXPECT_EQ(cells.Range(*grid_, Rect{0.0, 0.0, 62.5, 62.5}),
            std::vector<NodeId>{1});
}

TEST_F(SnapshotGridTest, ManyNodesOnOnePoint) {
  Columns c(100);
  for (NodeId id = 0; id < 100; ++id) {
    c.Set(id, {500.0, 500.0});
  }
  const SnapshotGrid snapshot = BuildFrom(c);
  std::vector<NodeId> all(100);
  for (NodeId id = 0; id < 100; ++id) {
    all[id] = id;
  }
  EXPECT_EQ(snapshot.Range(*grid_, Rect{499, 499, 501, 501}), all);
  EXPECT_EQ(snapshot.Range(*grid_, Rect{500, 500, 600, 600}), all);
  EXPECT_TRUE(snapshot.Range(*grid_, Rect{400, 400, 500, 500}).empty());
  EXPECT_TRUE(snapshot.Range(*grid_, Rect{509, 509, 511, 511}).empty());
}

TEST_F(SnapshotGridTest, DegenerateRangesReturnNothing) {
  Columns c(400);
  Rng rng(5);
  for (NodeId id = 0; id < 400; ++id) {
    c.Set(id, {rng.Uniform(-100.0, 1100.0), rng.Uniform(-100.0, 1100.0)});
  }
  // Nodes on the degenerate ranges' lines and corners.
  c.Set(0, {100.0, 100.0});
  c.Set(1, {100.0, 150.0});
  c.Set(2, {150.0, 100.0});
  const SnapshotGrid snapshot = BuildFrom(c);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Rect& range :
       {Rect{}, Rect{100, 100, 100, 200}, Rect{100, 100, 200, 100},
        Rect{100, 100, 100, 100}, Rect{200, 200, 100, 100},
        Rect{200, 0, 100, 1000}, Rect{0, 200, 1000, 100},
        Rect{nan, 0, 1000, 1000}, Rect{0, nan, 1000, 1000},
        Rect{0, 0, nan, 1000}, Rect{0, 0, 1000, nan},
        Rect{nan, nan, nan, nan}}) {
    EXPECT_TRUE(snapshot.Range(*grid_, range).empty()) << range;
    EXPECT_TRUE(c.BruteForce(range).empty()) << range;
  }
  // Infinite edges are ordinary: they clamp into the border cells.
  const double inf = std::numeric_limits<double>::infinity();
  const Rect everything{-inf, -inf, inf, inf};
  EXPECT_EQ(snapshot.Range(*grid_, everything).size(), 400u);
}

TEST_F(SnapshotGridTest, NodesWithoutModelNeverAppear) {
  Columns c(50);
  for (NodeId id = 0; id < 50; ++id) {
    c.Set(id, {20.0 * id, 500.0});
  }
  // Unknown lanes keep positions inside every range below -- even a NaN
  // one -- and must still be left out.
  for (NodeId id = 0; id < 50; id += 3) {
    c.known[id] = 0;
  }
  c.x[3] = std::numeric_limits<double>::quiet_NaN();
  const SnapshotGrid snapshot = BuildFrom(c);
  EXPECT_EQ(snapshot.size(), 50 - 17);
  for (const Rect& range : {kWorld, Rect{0, 400, 500, 600},
                            Rect{-1e6, -1e6, 1e6, 1e6}}) {
    const auto got = snapshot.Range(*grid_, range);
    EXPECT_EQ(got, c.BruteForce(range)) << range;
    for (const NodeId id : got) {
      EXPECT_NE(id % 3, 0) << id;
    }
  }
  // A fresh snapshot holds nothing at all.
  const SnapshotGrid empty(50, kAlpha);
  EXPECT_EQ(empty.size(), 0);
  EXPECT_EQ(empty.time(), 0.0);
  EXPECT_TRUE(empty.Range(*grid_, kWorld).empty());
}

TEST_F(SnapshotGridTest, OutputIsAscendingAcrossCellsAndRows) {
  // Ids run against the cell order: id 0 sits in the last cell, the
  // highest ids in the first rows, so the CSR scan meets ids out of order.
  constexpr int32_t kNodes = kAlpha * kAlpha;
  Columns c(kNodes);
  for (NodeId id = 0; id < kNodes; ++id) {
    const int32_t cell = kNodes - 1 - id;
    c.Set(id, {62.5 * (cell % kAlpha) + 31.0, 62.5 * (cell / kAlpha) + 31.0});
  }
  const SnapshotGrid snapshot = BuildFrom(c);
  for (const Rect& range :
       {kWorld, Rect{100, 100, 700, 400}, Rect{0, 0, 63, 1000}}) {
    const auto got = snapshot.Range(*grid_, range);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << range;
    EXPECT_EQ(got, c.BruteForce(range)) << range;
  }
}

TEST_F(SnapshotGridTest, PooledRebuildAndConcurrentReadersMatchSerial) {
  // 40k ids span several fill chunks, so 2 and 8 workers fill disjoint id
  // blocks at once; every answer must equal the inline rebuild's and brute
  // force over BelievedPositionAt.
  constexpr int32_t kNodes = 40000;
  auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
  ASSERT_TRUE(analytic.ok());
  QueryRegistry queries;
  queries.Add(Rect{100, 100, 500, 500});
  const UniformDeltaPolicy policy;
  CqServerConfig config;
  config.num_nodes = kNodes;
  config.world = kWorld;
  config.alpha = kAlpha;
  config.queue_capacity = kNodes;
  config.service_rate = 1e9;
  config.adaptation_period = 1e9;
  auto server = CqServer::Create(config, &policy, &*analytic, &queries);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Rng rng(11);
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < kNodes; ++id) {
    if (rng.Uniform01() < 0.3) {
      continue;  // never reports: no model
    }
    ModelUpdate u;
    u.node_id = id;
    u.model = LinearMotionModel{
        {rng.Uniform(-300.0, 1300.0), rng.Uniform(-300.0, 1300.0)},
        {rng.Uniform(-20.0, 20.0), rng.Uniform(-20.0, 20.0)},
        0.0};
    batch.push_back(u);
  }
  server->Receive(std::move(batch));
  ASSERT_TRUE(server->Tick(1.5).ok());

  std::vector<Rect> ranges;
  for (int q = 0; q < 12; ++q) {
    ranges.push_back(Rect::CenteredAt(
        {rng.Uniform(-400.0, 1400.0), rng.Uniform(-400.0, 1400.0)},
        rng.Uniform(20.0, 600.0)));
  }
  std::vector<std::vector<NodeId>> want;
  for (const Rect& range : ranges) {
    std::vector<NodeId> ids;
    for (NodeId id = 0; id < kNodes; ++id) {
      const auto p = server->BelievedPositionAt(id, server->time());
      if (p.has_value() && range.Contains(*p)) {
        ids.push_back(id);
      }
    }
    want.push_back(std::move(ids));
  }

  // Readers between ticks share the server's own snapshot: 8 threads
  // answering at once, at the snapshot's time and ahead of it, see the
  // serial answers.
  std::vector<std::vector<NodeId>> ahead;
  for (const Rect& range : ranges) {
    auto answer = server->AnswerRange(range, server->time() + 1.0);
    ASSERT_TRUE(answer.ok());
    ahead.push_back(*std::move(answer));
  }
  std::vector<std::vector<NodeId>> now_got(ranges.size());
  std::vector<std::vector<NodeId>> ahead_got(ranges.size());
  ThreadPool readers(8);
  readers.ParallelFor(
      0, static_cast<int64_t>(ranges.size()), 1,
      [&](int32_t /*chunk*/, int64_t begin, int64_t end) {
        for (int64_t q = begin; q < end; ++q) {
          now_got[q] = *server->AnswerRange(ranges[q], server->time());
          ahead_got[q] = *server->AnswerRange(ranges[q], server->time() + 1.0);
        }
      });
  EXPECT_EQ(now_got, want);
  EXPECT_EQ(ahead_got, ahead);

  SnapshotGrid inline_rebuild(kNodes, kAlpha);
  inline_rebuild.Rebuild(server->tracker(), server->time(), server->stats(),
                         nullptr);
  EXPECT_EQ(inline_rebuild.time(), server->time());
  for (const int32_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    SnapshotGrid pooled(kNodes, kAlpha);
    pooled.Rebuild(server->tracker(), server->time(), server->stats(), &pool);
    EXPECT_EQ(pooled.size(), inline_rebuild.size());
    for (size_t q = 0; q < ranges.size(); ++q) {
      EXPECT_EQ(pooled.Range(server->stats(), ranges[q]), want[q])
          << "threads " << threads << " range " << ranges[q];
      EXPECT_EQ(inline_rebuild.Range(server->stats(), ranges[q]), want[q])
          << "range " << ranges[q];
    }
  }
}

}  // namespace
}  // namespace lira
