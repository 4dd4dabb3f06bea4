#include "lira/server/stats_stage.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/parallel.h"
#include "lira/common/rng.h"
#include "lira/telemetry/telemetry.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};

StatsStageConfig BaseConfig(int32_t num_nodes = 60) {
  StatsStageConfig config;
  config.num_nodes = num_nodes;
  config.world = kWorld;
  config.alpha = 16;
  return config;
}

ModelUpdate UpdateFor(NodeId id, Point p, Vec2 v, double t) {
  ModelUpdate u;
  u.node_id = id;
  u.model = LinearMotionModel{p, v, t};
  return u;
}

TEST(StatsStageTest, CreateValidation) {
  EXPECT_TRUE(StatsStage::Create(BaseConfig()).ok());
  auto config = BaseConfig();
  config.num_nodes = 0;
  EXPECT_FALSE(StatsStage::Create(config).ok());
  config = BaseConfig();
  config.stats_sample_fraction = 0.0;
  EXPECT_FALSE(StatsStage::Create(config).ok());
  config = BaseConfig();
  config.stats_sample_fraction = 1.5;
  EXPECT_FALSE(StatsStage::Create(config).ok());
  config = BaseConfig();
  config.alpha = 12;  // not a power of two (grid validation)
  EXPECT_FALSE(StatsStage::Create(config).ok());
}

TEST(StatsStageTest, IncrementalMatchesFullRescanBitwise) {
  // Each input is (seed, share of nodes silent per epoch); silent nodes
  // keep stale models, so their unchanged velocity bits hit the cache.
  for (const auto& [seed, silent] :
       {std::pair<uint64_t, double>{31, 0.3}, {47, 0.4}}) {
    auto incremental = StatsStage::Create(BaseConfig());
    auto config = BaseConfig();
    config.incremental_stats = false;
    auto rescan = StatsStage::Create(config);
    ASSERT_TRUE(incremental.ok() && rescan.ok());
    EXPECT_TRUE(incremental->IncrementalEnabled());
    EXPECT_FALSE(rescan->IncrementalEnabled());

    PositionTracker tracker(60);
    Rng rng(seed);
    for (int t = 0; t < 12; ++t) {
      for (NodeId id = 0; id < 60; ++id) {
        if (rng.Uniform(0.0, 1.0) < silent) continue;
        tracker.Apply(
            UpdateFor(id,
                      {rng.Uniform(-40.0, 1640.0), rng.Uniform(-40.0, 1640.0)},
                      {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)}, t));
      }
      incremental->RebuildNodes(tracker, t + 0.5, /*pool=*/nullptr);
      rescan->RebuildNodes(tracker, t + 0.5, /*pool=*/nullptr);
      for (int32_t iy = 0; iy < 16; ++iy) {
        for (int32_t ix = 0; ix < 16; ++ix) {
          ASSERT_EQ(incremental->grid().NodeCount(ix, iy),
                    rescan->grid().NodeCount(ix, iy))
              << "seed=" << seed << " t=" << t << " cell (" << ix << ", "
              << iy << ")";
          ASSERT_EQ(incremental->grid().MeanSpeed(ix, iy),
                    rescan->grid().MeanSpeed(ix, iy))
              << "seed=" << seed << " t=" << t << " cell (" << ix << ", "
              << iy << ")";
        }
      }
    }
  }
}

TEST(StatsStageTest, EveryPathMatchesFullRebuildAndIdleRebuildDirtiesNoCell) {
  // The incremental (serial and pooled) and full-rebuild paths must build
  // the grid the full-rebuild oracle builds from the same tracker. A second
  // rebuild at the same time over an unchanged tracker -- what a cluster
  // migration leaves behind, since it rewrites only the owner map --
  // dirties no cell.
  constexpr int32_t kNodes = 20000;  // crosses the pooled block threshold
  struct Variant {
    bool incremental;
    int32_t threads;
  };
  for (const Variant v : {Variant{true, 1}, Variant{false, 1},
                          Variant{true, 2}, Variant{true, 8}}) {
    SCOPED_TRACE(::testing::Message() << "incremental=" << v.incremental
                                      << " threads=" << v.threads);
    ThreadPool pool(v.threads);
    telemetry::MemoryEventSink events;
    telemetry::TelemetrySink sink(&events);
    auto config = BaseConfig(kNodes);
    config.incremental_stats = v.incremental;
    config.telemetry = &sink;
    auto stage = StatsStage::Create(config);
    config = BaseConfig(kNodes);
    config.incremental_stats = false;
    auto oracle = StatsStage::Create(config);
    ASSERT_TRUE(stage.ok() && oracle.ok());
    ThreadPool* const stage_pool = v.threads > 1 ? &pool : nullptr;

    PositionTracker tracker(kNodes);
    auto expect_equal = [&](const char* when) {
      for (int32_t iy = 0; iy < 16; ++iy) {
        for (int32_t ix = 0; ix < 16; ++ix) {
          ASSERT_EQ(oracle->grid().NodeCount(ix, iy),
                    stage->grid().NodeCount(ix, iy))
              << when << " cell (" << ix << ", " << iy << ")";
          ASSERT_EQ(oracle->grid().MeanSpeed(ix, iy),
                    stage->grid().MeanSpeed(ix, iy))
              << when << " cell (" << ix << ", " << iy << ")";
        }
      }
    };

    Rng rng(5 + v.threads);
    double now = 0.0;
    for (int t = 0; t < 4; ++t) {
      for (NodeId id = 0; id < kNodes; ++id) {
        if (rng.Uniform(0.0, 1.0) < 0.3) continue;
        tracker.Apply(UpdateFor(
            id, {rng.Uniform(-40.0, 1640.0), rng.Uniform(-40.0, 1640.0)},
            {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)}, t));
      }
      now = t + 0.5;
      stage->RebuildNodes(tracker, now, stage_pool);
      oracle->RebuildNodes(tracker, now, /*pool=*/nullptr);
      expect_equal("rebuild");
    }

    const int64_t dirtied_before =
        sink.metrics().FindCounter("lira.coord.stats.cells_dirtied")->value();
    stage->RebuildNodes(tracker, now, stage_pool);
    expect_equal("idle rebuild");
    if (v.incremental) {
      EXPECT_GT(dirtied_before, 0);
      EXPECT_EQ(sink.metrics().FindCounter("lira.coord.stats.cells_dirtied")->value(),
                dirtied_before);
    }
  }
}

TEST(StatsStageTest, QueryRebuildCachesOnSizeAndMargin) {
  auto stage = StatsStage::Create(BaseConfig());
  ASSERT_TRUE(stage.ok());
  QueryRegistry queries;
  queries.Add(Rect{100, 100, 500, 500});
  stage->RebuildQueries(queries, 0.0);
  EXPECT_NEAR(stage->grid().TotalQueries(), 1.0, 1e-9);
  // Same size + margin: the pass is skipped (counts unchanged, not doubled).
  stage->RebuildQueries(queries, 0.0);
  EXPECT_NEAR(stage->grid().TotalQueries(), 1.0, 1e-9);
  // Registry grew: recounted.
  queries.Add(Rect{900, 900, 1300, 1300});
  stage->RebuildQueries(queries, 0.0);
  EXPECT_NEAR(stage->grid().TotalQueries(), 2.0, 1e-9);
  // Margin changed: recounted (margin expands rectangles, so the fractional
  // total can change); a forced invalidation also recounts.
  stage->RebuildQueries(queries, 50.0);
  const double with_margin = stage->grid().TotalQueries();
  stage->InvalidateQueryCache();
  stage->RebuildQueries(queries, 50.0);
  EXPECT_DOUBLE_EQ(stage->grid().TotalQueries(), with_margin);
}

TEST(StatsStageTest, PooledColumnarMatchesSerialBitwise) {
  // Enough nodes to cross the parallel block threshold, so the pooled stage
  // splits the id range across workers that relocate straight into the one
  // grid with atomic adds and fold their totals in after the join. The
  // crowded input keeps every node within four cells (origins in [95, 105)
  // m per axis, at most 20 m of drift, 100 m cells), so all workers add to
  // the same accumulators at once.
  constexpr int32_t kNodes = 20000;
  struct Input {
    const char* name;
    double lo;
    double hi;
    int32_t max_cells;
  };
  for (const Input& input : {Input{"spread", -40.0, 1640.0, 256},
                             Input{"crowded", 95.0, 105.0, 4}}) {
    for (int32_t threads : {2, 8}) {
      ThreadPool pool(threads);
      auto pooled = StatsStage::Create(BaseConfig(kNodes));
      auto reference = StatsStage::Create(BaseConfig(kNodes));
      ASSERT_TRUE(pooled.ok() && reference.ok());

      PositionTracker tracker(kNodes);
      Rng rng(threads);
      for (int t = 0; t < 3; ++t) {
        for (NodeId id = 0; id < kNodes; ++id) {
          if (rng.Uniform(0.0, 1.0) < 0.3) continue;
          tracker.Apply(UpdateFor(
              id,
              {rng.Uniform(input.lo, input.hi),
               rng.Uniform(input.lo, input.hi)},
              {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)}, t));
        }
        pooled->RebuildNodes(tracker, t + 0.5, &pool);
        reference->RebuildNodes(tracker, t + 0.5, /*pool=*/nullptr);
      }
      int32_t occupied = 0;
      for (int32_t iy = 0; iy < 16; ++iy) {
        for (int32_t ix = 0; ix < 16; ++ix) {
          ASSERT_EQ(reference->grid().NodeCount(ix, iy),
                    pooled->grid().NodeCount(ix, iy))
              << input.name << " threads=" << threads << " cell (" << ix
              << ", " << iy << ")";
          ASSERT_EQ(reference->grid().MeanSpeed(ix, iy),
                    pooled->grid().MeanSpeed(ix, iy))
              << input.name << " threads=" << threads << " cell (" << ix
              << ", " << iy << ")";
          occupied += reference->grid().NodeCount(ix, iy) > 0.0 ? 1 : 0;
        }
      }
      EXPECT_EQ(reference->grid().TotalNodes(), pooled->grid().TotalNodes());
      EXPECT_EQ(reference->grid().OverallMeanSpeed(),
                pooled->grid().OverallMeanSpeed());
      EXPECT_LE(occupied, input.max_cells) << input.name;
    }
  }
}

TEST(StatsStageTest, QueryAppendDeltaMatchesFullRescan) {
  // Growing the registry takes the append-only delta path; the result must
  // be bitwise identical to a forced full rescan of the same registry.
  auto delta_stage = StatsStage::Create(BaseConfig());
  auto full_stage = StatsStage::Create(BaseConfig());
  ASSERT_TRUE(delta_stage.ok() && full_stage.ok());
  QueryRegistry queries;
  Rng rng(91);
  for (int round = 0; round < 6; ++round) {
    const int appends = 1 + round % 3;
    for (int i = 0; i < appends; ++i) {
      const double side = rng.Uniform(80.0, 500.0);
      queries.Add(Rect::CenteredAt(
          {rng.Uniform(0.0, 1600.0), rng.Uniform(0.0, 1600.0)}, side));
    }
    delta_stage->RebuildQueries(queries, 10.0);
    full_stage->InvalidateQueryCache();
    full_stage->RebuildQueries(queries, 10.0);
    for (int32_t iy = 0; iy < 16; ++iy) {
      for (int32_t ix = 0; ix < 16; ++ix) {
        ASSERT_EQ(delta_stage->grid().QueryCount(ix, iy),
                  full_stage->grid().QueryCount(ix, iy))
            << "round=" << round << " cell (" << ix << ", " << iy << ")";
      }
    }
  }
  // A margin change invalidates the delta path and falls back to a rescan.
  delta_stage->RebuildQueries(queries, 25.0);
  full_stage->InvalidateQueryCache();
  full_stage->RebuildQueries(queries, 25.0);
  EXPECT_EQ(delta_stage->grid().TotalQueries(),
            full_stage->grid().TotalQueries());
  // Registry replacement ("query removal") must go through an explicit
  // invalidation; the delta path only ever extends a same-margin prefix.
  QueryRegistry fewer;
  fewer.Add(Rect{100, 100, 700, 700});
  delta_stage->InvalidateQueryCache();
  delta_stage->RebuildQueries(fewer, 25.0);
  full_stage->InvalidateQueryCache();
  full_stage->RebuildQueries(fewer, 25.0);
  EXPECT_EQ(delta_stage->grid().TotalQueries(),
            full_stage->grid().TotalQueries());
  EXPECT_NEAR(delta_stage->grid().TotalQueries(), 1.0, 1e-9);
}

TEST(StatsStageTest, SampledRebuildIsUnbiased) {
  auto config = BaseConfig(400);
  config.stats_sample_fraction = 0.25;
  auto stage = StatsStage::Create(config);
  ASSERT_TRUE(stage.ok());
  EXPECT_FALSE(stage->IncrementalEnabled());
  PositionTracker tracker(400);
  for (NodeId id = 0; id < 400; ++id) {
    tracker.Apply(UpdateFor(id, {4.0 * id, 4.0 * id}, {1.0, 1.0}, 0.0));
  }
  stage->RebuildNodes(tracker, 0.0, /*pool=*/nullptr);
  EXPECT_NEAR(stage->grid().TotalNodes(), 400.0, 120.0);
  EXPECT_GT(stage->grid().TotalNodes(), 100.0);
}

TEST(StatsStageTest, CellsDirtiedCounterIsCoordinatorOwned) {
  telemetry::MemoryEventSink events;
  telemetry::TelemetrySink sink(&events);
  auto config = BaseConfig(4);
  config.telemetry = &sink;
  auto stage = StatsStage::Create(config);
  ASSERT_TRUE(stage.ok());
  PositionTracker tracker(4);
  tracker.Apply(UpdateFor(0, {100.0, 100.0}, {0.0, 0.0}, 0.0));
  stage->RebuildNodes(tracker, 0.0, /*pool=*/nullptr);
  EXPECT_GT(
      sink.metrics().FindCounter("lira.coord.stats.cells_dirtied")->value(),
      0);
}

}  // namespace
}  // namespace lira
