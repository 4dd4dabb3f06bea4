// Rebalance-epoch correctness (DESIGN.md §12): with rebalance_stride on,
// the cluster re-splits its column strips mid-run and migrates node
// ownership -- and every externally visible answer must stay bitwise
// identical to an unsharded CqServer fed the same stream, including range
// queries that straddle strip boundaries, across query-set changes and
// across rebalance epochs; and the whole run must be reproducible for any
// worker thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lira/common/rng.h"
#include "lira/core/policy.h"
#include "lira/cq/query_registry.h"
#include "lira/motion/update_reduction.h"
#include "lira/server/cq_server.h"
#include "lira/server/server_cluster.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};
constexpr double kTick = 0.1;

class RebalanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
    ASSERT_TRUE(analytic.ok());
    auto pwl = PiecewiseLinearReduction::SampleFunction(
        5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
    ASSERT_TRUE(pwl.ok());
    reduction_.emplace(*std::move(pwl));
    // Registry A: spread queries, several straddling the initial S=4 strip
    // boundaries at x = 400 / 800 / 1200.
    registry_a_.Add(Rect{100, 100, 500, 500});
    registry_a_.Add(Rect{300, 600, 900, 900});
    registry_a_.Add(Rect{700, 0, 1300, 1600});
    registry_a_.Add(Rect{1100, 200, 1500, 700});
    registry_a_.Add(Rect{0, 0, 1600, 1600});
    // Registry B (installed mid-run): drops two of A's queries, keeps the
    // straddlers shifted onto the *post-rebalance* hot region, adds new.
    registry_b_.Add(Rect{350, 350, 650, 650});
    registry_b_.Add(Rect{450, 0, 560, 1600});
    registry_b_.Add(Rect{0, 700, 1600, 900});
    registry_b_.Add(Rect{500, 500, 501, 501});
  }

  /// Lossless server config: the queue and service rate are provisioned so
  /// no update is ever dropped, hence cluster and reference CqServer apply
  /// the identical update sequence and hold the identical belief state.
  CqServerConfig LosslessConfig(int32_t nodes) {
    CqServerConfig config;
    config.num_nodes = nodes;
    config.world = kWorld;
    config.alpha = 32;
    config.queue_capacity = static_cast<size_t>(nodes) * 4;
    config.service_rate = 1e9;
    config.adaptation_period = 1e9;  // adaptations are explicit below
    config.fixed_z = 0.5;
    config.maintain_index = true;
    return config;
  }

  /// The flash-crowd batch stream: uniform random walk for the first third,
  /// then 90% of nodes concentrate into x ∈ [400, 600) so the rebalancer
  /// has real skew to act on. Reports keep crossing strip boundaries.
  std::vector<std::vector<ModelUpdate>> MakeStream(int32_t nodes,
                                                   int32_t ticks,
                                                   uint64_t seed) {
    Rng rng(seed);
    std::vector<Point> pos(nodes);
    for (int32_t id = 0; id < nodes; ++id) {
      pos[id] = {rng.Uniform(0.0, 1600.0), rng.Uniform(0.0, 1600.0)};
    }
    std::vector<std::vector<ModelUpdate>> batches(ticks);
    for (int32_t t = 0; t < ticks; ++t) {
      if (t == ticks / 3) {
        for (int32_t id = 0; id < nodes; ++id) {
          if (id % 10 != 0) {
            pos[id] = {rng.Uniform(400.0, 600.0), rng.Uniform(0.0, 1600.0)};
          }
        }
      }
      for (int32_t id = 0; id < nodes; ++id) {
        pos[id].x += rng.Uniform(-10.0, 10.0);
        pos[id].y += rng.Uniform(-10.0, 10.0);
        if (rng.Uniform(0.0, 1.0) > 0.7) continue;
        ModelUpdate u;
        u.node_id = id;
        u.model = LinearMotionModel{
            pos[id],
            {rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0)},
            t * kTick};
        batches[t].push_back(u);
      }
    }
    return batches;
  }

  std::optional<PiecewiseLinearReduction> reduction_;
  UniformDeltaPolicy policy_;
  QueryRegistry registry_a_;
  QueryRegistry registry_b_;
};

TEST_F(RebalanceTest, BoundaryQueriesBitwiseMatchUnshardedAcrossEpochs) {
  const int32_t nodes = 240;
  const int32_t ticks = 120;
  const auto batches = MakeStream(nodes, ticks, 31);

  auto server = CqServer::Create(LosslessConfig(nodes), &policy_,
                                 &*reduction_, &registry_a_);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ServerClusterConfig cluster_config;
  cluster_config.server = LosslessConfig(nodes);
  cluster_config.shards = 4;
  cluster_config.threads = 2;
  cluster_config.rebalance_stride = 1;
  cluster_config.rebalance_max_moves = 2;
  auto cluster = ServerCluster::Create(cluster_config, &policy_,
                                       &*reduction_, &registry_a_);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  Rng probe_rng(55);
  const QueryRegistry* active = &registry_a_;
  bool swapped = false;
  int64_t epoch_at_swap = -1;
  std::vector<ModelUpdate> scratch;
  for (int32_t t = 0; t < ticks; ++t) {
    scratch = batches[t];
    server->ReceiveBatch(&scratch);
    scratch = batches[t];
    (*cluster)->ReceiveBatch(&scratch);
    ASSERT_TRUE(server->Tick(kTick).ok());
    ASSERT_TRUE((*cluster)->Tick(kTick).ok());
    if ((t + 1) % 10 != 0) continue;

    ASSERT_TRUE(server->Adapt().ok());
    ASSERT_TRUE((*cluster)->Adapt().ok());
    // Losslessness precondition for bitwise comparison.
    ASSERT_EQ((*cluster)->queue_dropped(), 0);
    ASSERT_EQ((*cluster)->updates_applied(), server->updates_applied());

    // Swap the query set mid-run, once the map has left epoch 0 -- the
    // acceptance property wants add/remove with a rebalance epoch between.
    if (!swapped && (*cluster)->map_epoch() >= 1) {
      epoch_at_swap = (*cluster)->map_epoch();
      ASSERT_TRUE(server->InstallQueries(&registry_b_).ok());
      ASSERT_TRUE((*cluster)->InstallQueries(&registry_b_).ok());
      active = &registry_b_;
      swapped = true;
    }

    // Every installed (possibly boundary-straddling) query: identical
    // membership from the cluster's one snapshot grid.
    for (QueryId q = 0; q < active->size(); ++q) {
      auto expect = server->AnswerQuery(q);
      auto got = (*cluster)->AnswerQuery(q);
      ASSERT_TRUE(expect.ok()) << expect.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      // Both servers answer ascending ids, so the sort changes nothing.
      std::sort(expect->begin(), expect->end());
      ASSERT_EQ(*got, *expect) << "query " << q << " tick " << t;
    }
    // Ad-hoc probes, half crafted to straddle the *current* epoch's strip
    // boundaries, evaluated now and half a tick into the future.
    for (int probe = 0; probe < 8; ++probe) {
      Rect r;
      if (probe % 2 == 0) {
        const int32_t k = 1 + probe % ((*cluster)->num_shards() - 1);
        const double boundary = (*cluster)->shard_map().ShardRect(k).min_x;
        r = Rect{boundary - probe_rng.Uniform(20.0, 300.0),
                 probe_rng.Uniform(0.0, 800.0),
                 boundary + probe_rng.Uniform(20.0, 300.0), 1600.0};
      } else {
        const double x0 = probe_rng.Uniform(0.0, 1200.0);
        const double y0 = probe_rng.Uniform(0.0, 1200.0);
        r = Rect{x0, y0, x0 + probe_rng.Uniform(50.0, 400.0),
                 y0 + probe_rng.Uniform(50.0, 400.0)};
      }
      const double when = (*cluster)->time() + (probe % 2) * 0.05;
      auto expect = server->AnswerRange(r, when);
      auto got = (*cluster)->AnswerRange(r, when);
      ASSERT_TRUE(expect.ok() && got.ok());
      std::sort(expect->begin(), expect->end());
      ASSERT_EQ(*got, *expect) << "probe " << probe << " tick " << t;
    }
  }
  // The scenario genuinely exercised the machinery: the map rebalanced at
  // least once before the query swap and kept evolving after it.
  ASSERT_TRUE(swapped);
  EXPECT_GE(epoch_at_swap, 1);
  EXPECT_GT((*cluster)->map_epoch(), epoch_at_swap);
  EXPECT_GT((*cluster)->nodes_migrated(), 0);
}

TEST_F(RebalanceTest, RebalancedRunIsThreadCountInvariant) {
  const int32_t nodes = 200;
  const int32_t ticks = 90;
  const auto batches = MakeStream(nodes, ticks, 77);

  struct Observed {
    std::vector<int64_t> counters;
    std::vector<std::vector<NodeId>> answers;
    std::vector<double> positions;
  };
  auto run = [&](int32_t threads) -> Observed {
    ServerClusterConfig config;
    config.server = LosslessConfig(nodes);
    config.shards = 5;
    config.threads = threads;
    config.rebalance_stride = 2;
    config.rebalance_max_moves = 3;
    auto cluster =
        ServerCluster::Create(config, &policy_, &*reduction_, &registry_a_);
    EXPECT_TRUE(cluster.ok());
    Observed observed;
    std::vector<ModelUpdate> scratch;
    for (int32_t t = 0; t < ticks; ++t) {
      scratch = batches[t];
      (*cluster)->ReceiveBatch(&scratch);
      EXPECT_TRUE((*cluster)->Tick(kTick).ok());
      if ((t + 1) % 15 == 0) {
        EXPECT_TRUE((*cluster)->Adapt().ok());
        observed.counters.push_back((*cluster)->map_epoch());
        observed.counters.push_back((*cluster)->nodes_migrated());
        observed.counters.push_back((*cluster)->updates_applied());
        for (int32_t k = 0; k < (*cluster)->num_shards(); ++k) {
          observed.counters.push_back((*cluster)->shard_map().ColumnBegin(k));
        }
        for (QueryId q = 0; q < registry_a_.size(); ++q) {
          auto answer = (*cluster)->AnswerQuery(q);
          EXPECT_TRUE(answer.ok());
          observed.answers.push_back(*std::move(answer));
        }
      }
    }
    for (int32_t id = 0; id < nodes; ++id) {
      const auto p = (*cluster)->BelievedPositionAt(id, (*cluster)->time());
      observed.positions.push_back(p ? p->x : -1.0);
      observed.positions.push_back(p ? p->y : -1.0);
    }
    return observed;
  };

  const Observed serial = run(1);
  const Observed parallel_lo = run(2);
  const Observed parallel_hi = run(8);
  EXPECT_EQ(serial.counters, parallel_lo.counters);
  EXPECT_EQ(serial.counters, parallel_hi.counters);
  EXPECT_EQ(serial.answers, parallel_lo.answers);
  EXPECT_EQ(serial.answers, parallel_hi.answers);
  EXPECT_EQ(serial.positions, parallel_lo.positions);
  EXPECT_EQ(serial.positions, parallel_hi.positions);
  // And the run actually rebalanced (epoch recorded after the last Adapt).
  EXPECT_GE(serial.counters[serial.counters.size() - 8], 1);
}

TEST_F(RebalanceTest, LargeClusterPooledAdaptationIsThreadCountInvariant) {
  // 40k nodes cross the pooled statistics rebuild's threshold (2 x 8192
  // ids) and span several migration-scan chunks, so at 2 and 8 threads
  // workers add into the shared grid cells at once and movers are found
  // by more than one chunk before the serial commit. Grids, plans,
  // migrations, per-shard ownership and every believed position must equal
  // the one-thread run bit for bit.
  constexpr int32_t kNodes = 40000;
  constexpr int32_t kShards = 4;
  constexpr int32_t kTicks = 24;
  constexpr int32_t kAdaptEvery = 4;
  LiraConfig lira;
  lira.l = 13;
  lira.locator_cells = 16;
  const LiraPolicy lira_policy(lira);

  struct Observed {
    /// Grid cells and plan regions after every adaptation, then every
    /// believed position at the end, as raw bits.
    std::vector<uint64_t> bits;
    /// Map epoch, nodes_migrated and each shard's nodes_owned per
    /// adaptation.
    std::vector<int64_t> counters;
    /// Migrations per quarter of the id range, as predicted from the
    /// stream: each quarter is one scan chunk at 4 workers.
    std::vector<int64_t> movers_per_quarter =
        std::vector<int64_t>(4, 0);
  };
  const auto run = [&](int32_t threads) -> Observed {
    ServerClusterConfig config;
    config.server = LosslessConfig(kNodes);
    config.server.maintain_index = false;
    config.shards = kShards;
    config.threads = threads;
    config.rebalance_stride = 1;
    auto created = ServerCluster::Create(config, &lira_policy, &*reduction_,
                                         &registry_a_);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    ServerCluster& cluster = **created;
    Observed observed;
    // MakeStream's flash crowd, generated tick by tick: a uniform random
    // walk, then 90% of the nodes crowd into x in [400, 600), so every
    // epoch moves strip boundaries and migrates nodes across strips.
    Rng rng(2024);
    std::vector<Point> pos(kNodes);
    for (Point& p : pos) {
      p = {rng.Uniform(0.0, 1600.0), rng.Uniform(0.0, 1600.0)};
    }
    // The last reported origin per node. The stream is lossless and each
    // node reports at most once a tick, so a node's owner is the shard its
    // origin routes to under the current map, and a rebalance migrates
    // exactly the nodes whose origin routes elsewhere under the new map.
    std::vector<std::optional<Point>> origin(kNodes);
    std::vector<ModelUpdate> batch;
    for (int32_t t = 0; t < kTicks; ++t) {
      if (t == kTicks / 3) {
        for (int32_t id = 0; id < kNodes; ++id) {
          if (id % 10 != 0) {
            pos[id] = {rng.Uniform(400.0, 600.0), rng.Uniform(0.0, 1600.0)};
          }
        }
      }
      batch.clear();
      for (int32_t id = 0; id < kNodes; ++id) {
        pos[id].x += rng.Uniform(-10.0, 10.0);
        pos[id].y += rng.Uniform(-10.0, 10.0);
        if (rng.Uniform(0.0, 1.0) > 0.7) continue;
        ModelUpdate u;
        u.node_id = id;
        u.model = LinearMotionModel{
            pos[id],
            {rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0)},
            t * kTick};
        origin[id] = pos[id];
        batch.push_back(u);
      }
      cluster.ReceiveBatch(&batch);
      EXPECT_TRUE(cluster.Tick(kTick).ok());
      if ((t + 1) % kAdaptEvery != 0) continue;
      const ShardMap before = cluster.shard_map();
      const int64_t migrated_before = cluster.nodes_migrated();
      EXPECT_TRUE(cluster.Adapt().ok());
      int64_t movers = 0;
      int64_t reported = 0;
      for (int32_t id = 0; id < kNodes; ++id) {
        if (!origin[id].has_value()) continue;
        ++reported;
        if (before.ShardFor(*origin[id]) !=
            cluster.shard_map().ShardFor(*origin[id])) {
          ++movers;
          ++observed.movers_per_quarter[id / (kNodes / 4)];
        }
      }
      EXPECT_EQ(cluster.nodes_migrated() - migrated_before, movers)
          << "threads=" << threads << " t=" << t;
      observed.counters.push_back(cluster.map_epoch());
      observed.counters.push_back(cluster.nodes_migrated());
      int64_t owned = 0;
      for (const ShardHealth& shard : cluster.HealthSnapshot().shards) {
        observed.counters.push_back(shard.nodes_owned);
        owned += shard.nodes_owned;
      }
      EXPECT_EQ(owned, reported) << "threads=" << threads << " t=" << t;
      const StatisticsGrid& grid = cluster.stats();
      for (int32_t iy = 0; iy < grid.alpha(); ++iy) {
        for (int32_t ix = 0; ix < grid.alpha(); ++ix) {
          observed.bits.push_back(
              std::bit_cast<uint64_t>(grid.NodeCount(ix, iy)));
          observed.bits.push_back(
              std::bit_cast<uint64_t>(grid.MeanSpeed(ix, iy)));
          observed.bits.push_back(
              std::bit_cast<uint64_t>(grid.QueryCount(ix, iy)));
        }
      }
      for (const SheddingRegion& region : cluster.plan().regions()) {
        for (double v : {region.area.min_x, region.area.min_y,
                         region.area.max_x, region.area.max_y, region.delta,
                         region.stats.n, region.stats.m, region.stats.s}) {
          observed.bits.push_back(std::bit_cast<uint64_t>(v));
        }
      }
    }
    for (int32_t id = 0; id < kNodes; ++id) {
      const auto p = cluster.BelievedPositionAt(id, cluster.time());
      observed.bits.push_back(p.has_value() ? 1 : 0);
      observed.bits.push_back(std::bit_cast<uint64_t>(p ? p->x : 0.0));
      observed.bits.push_back(std::bit_cast<uint64_t>(p ? p->y : 0.0));
    }
    return observed;
  };

  const Observed serial = run(1);
  // The crowd moved boundaries at several epochs, and movers sit in every
  // quarter of the id range, i.e. in every scan chunk at 2 and 4 workers
  // (8 requested threads become 4: one per shard).
  EXPECT_GE(serial.counters[serial.counters.size() - 2 - kShards], 2);
  for (int32_t q = 0; q < 4; ++q) {
    EXPECT_GT(serial.movers_per_quarter[q], 0) << "quarter " << q;
  }
  for (int32_t threads : {2, 8}) {
    const Observed pooled = run(threads);
    EXPECT_EQ(serial.counters, pooled.counters) << "threads=" << threads;
    EXPECT_EQ(serial.movers_per_quarter, pooled.movers_per_quarter)
        << "threads=" << threads;
    ASSERT_EQ(serial.bits.size(), pooled.bits.size())
        << "threads=" << threads;
    EXPECT_TRUE(serial.bits == pooled.bits) << "threads=" << threads;
  }
}

TEST_F(RebalanceTest, SampledStatisticsMatchUnshardedServer) {
  // Sampled statistics draw one RNG stream over all node ids, so a sharded
  // cluster -- across rebalance epochs -- samples exactly the nodes the
  // single server does and builds the same grid bit for bit.
  const int32_t nodes = 240;
  const int32_t ticks = 90;
  const auto batches = MakeStream(nodes, ticks, 19);
  CqServerConfig server_config = LosslessConfig(nodes);
  server_config.stats_sample_fraction = 0.25;
  auto server =
      CqServer::Create(server_config, &policy_, &*reduction_, &registry_a_);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ServerClusterConfig cluster_config;
  cluster_config.server = server_config;
  cluster_config.shards = 4;
  cluster_config.threads = 2;
  cluster_config.rebalance_stride = 1;
  auto cluster = ServerCluster::Create(cluster_config, &policy_,
                                       &*reduction_, &registry_a_);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  std::vector<ModelUpdate> scratch;
  for (int32_t t = 0; t < ticks; ++t) {
    scratch = batches[t];
    server->ReceiveBatch(&scratch);
    scratch = batches[t];
    (*cluster)->ReceiveBatch(&scratch);
    ASSERT_TRUE(server->Tick(kTick).ok());
    ASSERT_TRUE((*cluster)->Tick(kTick).ok());
    if ((t + 1) % 10 != 0) continue;
    ASSERT_TRUE(server->Adapt().ok());
    ASSERT_TRUE((*cluster)->Adapt().ok());
    ASSERT_EQ((*cluster)->updates_applied(), server->updates_applied());
    const StatisticsGrid& want = server->stats();
    const StatisticsGrid& got = (*cluster)->stats();
    for (int32_t iy = 0; iy < want.alpha(); ++iy) {
      for (int32_t ix = 0; ix < want.alpha(); ++ix) {
        ASSERT_EQ(got.NodeCount(ix, iy), want.NodeCount(ix, iy))
            << "tick " << t << " cell (" << ix << ", " << iy << ")";
        ASSERT_EQ(got.MeanSpeed(ix, iy), want.MeanSpeed(ix, iy))
            << "tick " << t << " cell (" << ix << ", " << iy << ")";
      }
    }
    ASSERT_EQ((*cluster)->plan().NumRegions(), server->plan().NumRegions());
    ASSERT_EQ((*cluster)->plan().MaxDelta(), server->plan().MaxDelta());
  }
  EXPECT_GE((*cluster)->map_epoch(), 1);
  EXPECT_GT((*cluster)->nodes_migrated(), 0);
}

TEST_F(RebalanceTest, FillBelievedIntoMatchesPerIdLoopAcrossEpochs) {
  // The columnar fill the snapshot rebuild reads gives the per-id
  // BelievedPositionAt loop's bits across handoffs, ownership migrations
  // and rebalance epochs, at any worker thread count, for id ranges that
  // start and end mid-block.
  const int32_t nodes = 1200;
  const int32_t ticks = 120;
  const auto batches = MakeStream(nodes, ticks, 31);
  for (const int32_t threads : {1, 2, 8}) {
    ServerClusterConfig config;
    config.server = LosslessConfig(nodes);
    config.shards = 4;
    config.threads = threads;
    config.rebalance_stride = 1;
    auto cluster =
        ServerCluster::Create(config, &policy_, &*reduction_, &registry_a_);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    std::vector<double> x(nodes);
    std::vector<double> y(nodes);
    std::vector<uint8_t> known(nodes);
    std::vector<ModelUpdate> scratch;
    int64_t known_lanes = 0;
    for (int32_t t = 0; t < ticks; ++t) {
      scratch = batches[t];
      (*cluster)->ReceiveBatch(&scratch);
      ASSERT_TRUE((*cluster)->Tick(kTick).ok());
      if ((t + 1) % 10 == 0) {
        ASSERT_TRUE((*cluster)->Adapt().ok());
      }
      if ((t + 1) % 5 != 0) {
        continue;
      }
      for (const double ahead : {0.0, 0.05}) {
        const double when = (*cluster)->time() + ahead;
        for (const auto& [begin, count] :
             {std::pair<NodeId, int32_t>{0, nodes}, {37, 1100}}) {
          (*cluster)->FillBelievedInto(begin, count, when, x.data(),
                                       y.data(), known.data());
          for (int32_t i = 0; i < count; ++i) {
            const NodeId id = begin + i;
            const auto p = (*cluster)->BelievedPositionAt(id, when);
            ASSERT_EQ(known[i] != 0, p.has_value())
                << "threads " << threads << " tick " << t << " id " << id;
            if (!p.has_value()) {
              continue;
            }
            ++known_lanes;
            ASSERT_EQ(std::bit_cast<uint64_t>(x[i]),
                      std::bit_cast<uint64_t>(p->x))
                << "threads " << threads << " tick " << t << " id " << id;
            ASSERT_EQ(std::bit_cast<uint64_t>(y[i]),
                      std::bit_cast<uint64_t>(p->y))
                << "threads " << threads << " tick " << t << " id " << id;
          }
        }
      }
    }
    EXPECT_GT(known_lanes, 0);
    EXPECT_GE((*cluster)->map_epoch(), 1) << "threads " << threads;
    EXPECT_GT((*cluster)->nodes_migrated(), 0) << "threads " << threads;
  }
}

TEST_F(RebalanceTest, StrideZeroKeepsTheInitialMapForever) {
  const int32_t nodes = 120;
  const auto batches = MakeStream(nodes, 60, 13);
  ServerClusterConfig config;
  config.server = LosslessConfig(nodes);
  config.shards = 4;
  config.threads = 1;
  config.rebalance_stride = 0;  // default: rebalancing disabled
  auto cluster =
      ServerCluster::Create(config, &policy_, &*reduction_, &registry_a_);
  ASSERT_TRUE(cluster.ok());
  std::vector<ModelUpdate> scratch;
  for (size_t t = 0; t < batches.size(); ++t) {
    scratch = batches[t];
    (*cluster)->ReceiveBatch(&scratch);
    ASSERT_TRUE((*cluster)->Tick(kTick).ok());
    if ((t + 1) % 10 == 0) {
      ASSERT_TRUE((*cluster)->Adapt().ok());
    }
  }
  EXPECT_EQ((*cluster)->map_epoch(), 0);
  EXPECT_EQ((*cluster)->rebalances(), 0);
  EXPECT_EQ((*cluster)->nodes_migrated(), 0);
  for (int32_t k = 0; k < 4; ++k) {
    EXPECT_EQ((*cluster)->shard_map().ColumnBegin(k), k * 8);
  }
}

}  // namespace
}  // namespace lira
