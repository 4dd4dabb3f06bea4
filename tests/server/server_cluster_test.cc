#include "lira/server/server_cluster.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/rng.h"
#include "lira/server/cq_server.h"
#include "lira/telemetry/telemetry.h"

namespace lira {
namespace {

// World of 16 x 16 cells, 100 m each: shard boundaries land on multiples of
// 100 m, so tests can place updates in a known shard.
constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};

class ServerClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
    ASSERT_TRUE(analytic.ok());
    auto pwl = PiecewiseLinearReduction::SampleFunction(
        5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
    ASSERT_TRUE(pwl.ok());
    reduction_.emplace(*std::move(pwl));
    queries_.Add(Rect{100, 100, 500, 500});
    queries_.Add(Rect{900, 900, 1300, 1300});
  }

  CqServerConfig BaseServerConfig() {
    CqServerConfig config;
    config.num_nodes = 80;
    config.world = kWorld;
    config.alpha = 16;
    config.queue_capacity = 64;
    // Slower than the offered load (~56 upd/tick), so the queue backs up,
    // drops occur, and THROTLOOP has something to react to.
    config.service_rate = 30.0;
    config.adaptation_period = 4.0;
    config.auto_throttle = true;
    return config;
  }

  ServerClusterConfig ClusterConfig(int32_t shards, int32_t threads = 1) {
    ServerClusterConfig config;
    config.server = BaseServerConfig();
    config.shards = shards;
    config.threads = threads;
    return config;
  }

  std::unique_ptr<ServerCluster> MustCreate(const ServerClusterConfig& c) {
    auto cluster =
        ServerCluster::Create(c, &uniform_policy_, &*reduction_, &queries_);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    return *std::move(cluster);
  }

  ModelUpdate UpdateFor(NodeId id, Point p, Vec2 v, double t) {
    ModelUpdate u;
    u.node_id = id;
    u.model = LinearMotionModel{p, v, t};
    return u;
  }

  /// One tick's worth of random traffic (same stream for every server under
  /// comparison; the caller copies the batch).
  std::vector<ModelUpdate> RandomBatch(Rng& rng, int32_t num_nodes,
                                       double t) {
    std::vector<ModelUpdate> batch;
    for (NodeId id = 0; id < num_nodes; ++id) {
      if (rng.Uniform(0.0, 1.0) < 0.3) continue;
      batch.push_back(UpdateFor(
          id, {rng.Uniform(-40.0, 1640.0), rng.Uniform(-40.0, 1640.0)},
          {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)}, t));
    }
    return batch;
  }

  /// Two shards (x < 800 routes to shard 0) over four nodes, serving every
  /// update in the tick it arrives: the handoff-rule tests.
  std::unique_ptr<ServerCluster> HandoffCluster(int32_t threads,
                                                bool record_history = false) {
    auto config = ClusterConfig(2, threads);
    config.server.num_nodes = 4;
    config.server.auto_throttle = false;
    config.server.fixed_z = 0.5;
    config.server.service_rate = 100.0;
    config.server.record_history = record_history;
    return MustCreate(config);
  }

  /// Node `id` is believed at `where` (the tests' nodes stand still), the
  /// shards own `owned` nodes, and an adaptation counts every owned node
  /// once.
  static void ExpectBelief(ServerCluster& cluster, NodeId id, Point where,
                           const std::vector<int64_t>& owned) {
    const auto believed = cluster.BelievedPositionAt(id, cluster.time());
    ASSERT_TRUE(believed.has_value()) << "node " << id;
    EXPECT_EQ(*believed, where) << "node " << id;
    const ClusterHealth health = cluster.HealthSnapshot();
    int64_t total = 0;
    for (int32_t k = 0; k < cluster.num_shards(); ++k) {
      EXPECT_EQ(health.shards[k].nodes_owned, owned[k]) << "shard " << k;
      total += owned[k];
    }
    ASSERT_TRUE(cluster.Adapt().ok());
    EXPECT_DOUBLE_EQ(cluster.stats().TotalNodes(), static_cast<double>(total));
  }

  static void ExpectGridsBitwiseEqual(const StatisticsGrid& a,
                                      const StatisticsGrid& b) {
    ASSERT_EQ(a.alpha(), b.alpha());
    for (int32_t iy = 0; iy < a.alpha(); ++iy) {
      for (int32_t ix = 0; ix < a.alpha(); ++ix) {
        ASSERT_EQ(a.NodeCount(ix, iy), b.NodeCount(ix, iy))
            << "cell (" << ix << ", " << iy << ")";
        ASSERT_EQ(a.MeanSpeed(ix, iy), b.MeanSpeed(ix, iy))
            << "cell (" << ix << ", " << iy << ")";
      }
    }
  }

  std::optional<PiecewiseLinearReduction> reduction_;
  QueryRegistry queries_;
  UniformDeltaPolicy uniform_policy_;
};

TEST_F(ServerClusterTest, CreateValidation) {
  EXPECT_TRUE(
      ServerCluster::Create(ClusterConfig(1), &uniform_policy_, &*reduction_,
                            &queries_)
          .ok());
  EXPECT_FALSE(ServerCluster::Create(ClusterConfig(1), nullptr, &*reduction_,
                                     &queries_)
                   .ok());
  EXPECT_FALSE(
      ServerCluster::Create(ClusterConfig(0), &uniform_policy_, &*reduction_,
                            &queries_)
          .ok());
  // More shards than grid columns cannot each own a column.
  EXPECT_FALSE(
      ServerCluster::Create(ClusterConfig(17), &uniform_policy_, &*reduction_,
                            &queries_)
          .ok());
  auto config = ClusterConfig(2);
  config.threads = -1;
  EXPECT_FALSE(ServerCluster::Create(config, &uniform_policy_, &*reduction_,
                                     &queries_)
                   .ok());
  config = ClusterConfig(2);
  config.server.num_nodes = 0;
  EXPECT_FALSE(ServerCluster::Create(config, &uniform_policy_, &*reduction_,
                                     &queries_)
                   .ok());
}

TEST_F(ServerClusterTest, SingleShardBitwiseMatchesCqServer) {
  // The load-bearing contract: an S=1 cluster consumes exactly the random
  // stream, queue behavior, and adaptation sequence of a plain CqServer.
  const CqServerConfig server_config = BaseServerConfig();
  auto single = CqServer::Create(server_config, &uniform_policy_,
                                 &*reduction_, &queries_);
  ASSERT_TRUE(single.ok());
  auto cluster = MustCreate(ClusterConfig(1));
  ASSERT_EQ(cluster->num_shards(), 1);

  Rng rng(99);
  for (int t = 0; t < 20; ++t) {
    std::vector<ModelUpdate> batch =
        RandomBatch(rng, server_config.num_nodes, t);
    single->Receive(batch);
    cluster->Receive(std::move(batch));
    ASSERT_TRUE(single->Tick(1.0).ok());
    ASSERT_TRUE(cluster->Tick(1.0).ok());

    ASSERT_EQ(cluster->queue_arrivals(), single->queue().total_arrivals())
        << "t=" << t;
    ASSERT_EQ(cluster->queue_dropped(), single->queue().total_dropped())
        << "t=" << t;
    ASSERT_EQ(cluster->queue_size(), single->queue().size()) << "t=" << t;
    ASSERT_EQ(cluster->updates_applied(), single->updates_applied())
        << "t=" << t;
    ASSERT_EQ(cluster->z(), single->z()) << "t=" << t;
    ASSERT_EQ(cluster->plan().NumRegions(), single->plan().NumRegions())
        << "t=" << t;
    ASSERT_EQ(cluster->plan().MinDelta(), single->plan().MinDelta())
        << "t=" << t;
    ASSERT_EQ(cluster->plan().MaxDelta(), single->plan().MaxDelta())
        << "t=" << t;
  }
  ASSERT_GT(cluster->plan_builds(), 2);
  EXPECT_EQ(cluster->plan_builds(), single->plan_builds());
  ExpectGridsBitwiseEqual(cluster->stats(), single->stats());
  EXPECT_GT(cluster->queue_dropped(), 0);  // the comparison saw real load

  // Believed positions agree for every node.
  for (NodeId id = 0; id < server_config.num_nodes; ++id) {
    const auto a = cluster->BelievedPositionAt(id, cluster->time());
    const auto b = single->tracker().PredictAt(id, single->time());
    ASSERT_EQ(a.has_value(), b.has_value()) << "id=" << id;
    if (a.has_value()) {
      ASSERT_EQ(*a, *b) << "id=" << id;
    }
  }
}

TEST_F(ServerClusterTest, ResultsIndependentOfThreadCount) {
  // Any shard count must produce bitwise identical results for any worker
  // pool width (routing, handoff, and merge are all shard-ordered).
  std::vector<std::unique_ptr<ServerCluster>> clusters;
  for (int32_t threads : {1, 2, 4}) {
    clusters.push_back(MustCreate(ClusterConfig(4, threads)));
  }
  Rng rng(123);
  for (int t = 0; t < 16; ++t) {
    const std::vector<ModelUpdate> batch = RandomBatch(rng, 80, t);
    for (auto& cluster : clusters) {
      std::vector<ModelUpdate> copy = batch;
      cluster->Receive(std::move(copy));
      ASSERT_TRUE(cluster->Tick(1.0).ok());
    }
    for (size_t c = 1; c < clusters.size(); ++c) {
      ASSERT_EQ(clusters[c]->queue_dropped(), clusters[0]->queue_dropped())
          << "t=" << t;
      ASSERT_EQ(clusters[c]->z(), clusters[0]->z()) << "t=" << t;
      ASSERT_EQ(clusters[c]->plan().MaxDelta(),
                clusters[0]->plan().MaxDelta())
          << "t=" << t;
    }
  }
  ASSERT_GT(clusters[0]->plan_builds(), 2);
  for (size_t c = 1; c < clusters.size(); ++c) {
    ExpectGridsBitwiseEqual(clusters[c]->stats(), clusters[0]->stats());
    ASSERT_EQ(clusters[c]->updates_applied(), clusters[0]->updates_applied());
  }
}

TEST_F(ServerClusterTest, HandoffMovesOwnershipAcrossShards) {
  auto config = ClusterConfig(2);
  config.server.num_nodes = 4;
  config.server.auto_throttle = false;
  config.server.fixed_z = 0.5;
  config.server.service_rate = 100.0;
  auto cluster = MustCreate(config);

  // Node 0 reports on the left half (shard 0)...
  cluster->Receive({UpdateFor(0, {200.0, 800.0}, {0.0, 0.0}, 0.0)});
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  const auto left = cluster->BelievedPositionAt(0, 1.0);
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(*left, (Point{200.0, 800.0}));

  // ...then crosses to the right half (shard 1): the old shard must retract
  // its model so the node is tracked -- and counted -- exactly once.
  cluster->Receive({UpdateFor(0, {1200.0, 800.0}, {0.0, 0.0}, 2.0)});
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  const auto right = cluster->BelievedPositionAt(0, 3.0);
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(*right, (Point{1200.0, 800.0}));

  ASSERT_TRUE(cluster->Adapt().ok());
  EXPECT_DOUBLE_EQ(cluster->stats().TotalNodes(), 1.0);
  const ClusterHealth health = cluster->HealthSnapshot();
  EXPECT_EQ(health.shards[0].nodes_owned, 0);
  EXPECT_EQ(health.shards[1].nodes_owned, 1);

  // The snapshot answer sees the node exactly once, at its new home.
  auto everywhere = cluster->AnswerRange(kWorld, cluster->time());
  ASSERT_TRUE(everywhere.ok());
  EXPECT_EQ(*everywhere, std::vector<NodeId>{0});
  // The retracted model answers nowhere: its old spot is empty.
  const Rect left_spot{100.0, 700.0, 300.0, 900.0};
  const Rect right_spot{1100.0, 700.0, 1300.0, 900.0};
  auto old_home = cluster->AnswerRange(left_spot, cluster->time());
  ASSERT_TRUE(old_home.ok());
  EXPECT_TRUE(old_home->empty());
  auto new_home = cluster->AnswerRange(right_spot, cluster->time());
  ASSERT_TRUE(new_home.ok());
  EXPECT_EQ(*new_home, std::vector<NodeId>{0});

  // A later report back on the left half brings the node home again.
  cluster->Receive({UpdateFor(0, {200.0, 800.0}, {0.0, 0.0}, 3.0)});
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  auto back = cluster->AnswerRange(left_spot, cluster->time());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, std::vector<NodeId>{0});
  auto gone = cluster->AnswerRange(right_spot, cluster->time());
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->empty());
}

TEST_F(ServerClusterTest, OwnersNewerReportBeatsAnOlderOneInTheSameTick) {
  for (const int32_t threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    auto cluster = HandoffCluster(threads);
    cluster->Receive({UpdateFor(0, {1200.0, 800.0}, {0.0, 0.0}, 0.0)});
    ASSERT_TRUE(cluster->Tick(1.0).ok());
    // One batch carries an older report for shard 0 and a newer one for
    // the owner, shard 1. The owner writes its own; shard 0's is staged and
    // loses to the newer model at the commit.
    cluster->Receive({UpdateFor(0, {200.0, 800.0}, {0.0, 0.0}, 1.0),
                      UpdateFor(0, {1300.0, 800.0}, {0.0, 0.0}, 2.0)});
    ASSERT_TRUE(cluster->Tick(1.0).ok());
    ExpectBelief(*cluster, 0, {1300.0, 800.0}, {0, 1});
  }
}

TEST_F(ServerClusterTest, LateOlderReportNeitherReplacesNorMovesTheNode) {
  for (const int32_t threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    auto cluster = HandoffCluster(threads);
    cluster->Receive({UpdateFor(0, {1200.0, 800.0}, {0.0, 0.0}, 2.0)});
    ASSERT_TRUE(cluster->Tick(1.0).ok());
    // A report older than the owner's model reaches shard 0 a tick later.
    cluster->Receive({UpdateFor(0, {200.0, 800.0}, {0.0, 0.0}, 1.0)});
    ASSERT_TRUE(cluster->Tick(1.0).ok());
    ExpectBelief(*cluster, 0, {1200.0, 800.0}, {0, 1});
    // Both served updates still count as applied.
    EXPECT_EQ(cluster->updates_applied(), 2);
  }
}

TEST_F(ServerClusterTest, OwnersLateOlderReportKeepsNewerModel) {
  for (const int32_t threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    auto cluster = HandoffCluster(threads, /*record_history=*/true);
    cluster->Receive({UpdateFor(0, {1200.0, 800.0}, {0.0, 0.0}, 2.0)});
    ASSERT_TRUE(cluster->Tick(1.0).ok());
    // The owner, shard 1, serves a report older than its own model a tick
    // later: its own write keeps the newer model.
    cluster->Receive({UpdateFor(0, {1300.0, 800.0}, {0.0, 0.0}, 1.0)});
    ASSERT_TRUE(cluster->Tick(1.0).ok());
    EXPECT_EQ(cluster->updates_applied(), 2);
    ASSERT_NE(cluster->history(), nullptr);
    EXPECT_EQ(cluster->history()->RecordsFor(0), 2);
    const auto recorded = cluster->history()->PositionAt(0, cluster->time());
    ASSERT_TRUE(recorded.has_value());
    EXPECT_EQ(*recorded, (Point{1200.0, 800.0}));
    ExpectBelief(*cluster, 0, {1200.0, 800.0}, {0, 1});
  }
}

TEST_F(ServerClusterTest, NeverSeenNodeKeepsTheNewerOfItsFirstTwoReports) {
  for (const int32_t threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    auto cluster = HandoffCluster(threads);
    // Both nodes report first at both shards in one tick: node 0's newer
    // report goes to shard 0, node 1's to shard 1.
    cluster->Receive({UpdateFor(0, {200.0, 800.0}, {0.0, 0.0}, 2.0),
                      UpdateFor(0, {1200.0, 800.0}, {0.0, 0.0}, 1.0),
                      UpdateFor(1, {300.0, 800.0}, {0.0, 0.0}, 1.0),
                      UpdateFor(1, {1300.0, 800.0}, {0.0, 0.0}, 2.0)});
    ASSERT_TRUE(cluster->Tick(1.0).ok());
    ExpectBelief(*cluster, 0, {200.0, 800.0}, {1, 1});
    ExpectBelief(*cluster, 1, {1300.0, 800.0}, {1, 1});
  }
}

TEST_F(ServerClusterTest, EqualT0GoesToTheLaterCommit) {
  for (const int32_t threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    auto cluster = HandoffCluster(threads);
    cluster->Receive({UpdateFor(0, {200.0, 800.0}, {0.0, 0.0}, 0.0)});
    ASSERT_TRUE(cluster->Tick(1.0).ok());
    // Equal t0 at both shards. Node 0's owner, shard 0, writes its report
    // in the fan-out, and shard 1's commit follows it. Never-seen node 1
    // takes shard 0's commit first, then shard 1's.
    cluster->Receive({UpdateFor(0, {300.0, 800.0}, {0.0, 0.0}, 1.0),
                      UpdateFor(0, {1300.0, 800.0}, {0.0, 0.0}, 1.0),
                      UpdateFor(1, {400.0, 800.0}, {0.0, 0.0}, 1.0),
                      UpdateFor(1, {1400.0, 800.0}, {0.0, 0.0}, 1.0)});
    ASSERT_TRUE(cluster->Tick(1.0).ok());
    ExpectBelief(*cluster, 0, {1300.0, 800.0}, {0, 2});
    ExpectBelief(*cluster, 1, {1400.0, 800.0}, {0, 2});
  }
}

TEST_F(ServerClusterTest, AnswerContractMatchesCqServer) {
  // One contract for both servers: ascending ids, and the same status
  // code for the same call -- the index precondition first, then the
  // query id or the time.
  CqServerConfig server_config = BaseServerConfig();
  server_config.auto_throttle = false;
  server_config.queue_capacity = 1000;
  server_config.service_rate = 1e6;
  Rng rng(19);
  const std::vector<ModelUpdate> batch =
      RandomBatch(rng, server_config.num_nodes, 0.0);
  for (const bool index : {true, false}) {
    server_config.maintain_index = index;
    auto server = CqServer::Create(server_config, &uniform_policy_,
                                   &*reduction_, &queries_);
    ASSERT_TRUE(server.ok());
    ServerClusterConfig config;
    config.server = server_config;
    config.shards = 4;
    auto cluster = MustCreate(config);
    server->Receive(batch);
    cluster->Receive(batch);
    ASSERT_TRUE(server->Tick(1.0).ok());
    ASSERT_TRUE(cluster->Tick(1.0).ok());
    ASSERT_EQ(cluster->updates_applied(), server->updates_applied());

    for (const QueryId q : {-1, 0, 1, queries_.size()}) {
      auto single = server->AnswerQuery(q);
      auto sharded = cluster->AnswerQuery(q);
      ASSERT_EQ(single.status().code(), sharded.status().code())
          << "index " << index << " query " << q;
      if (single.ok()) {
        EXPECT_TRUE(std::is_sorted(single->begin(), single->end()));
        EXPECT_EQ(*single, *sharded) << "query " << q;
      }
    }
    for (const double t : {0.5, 1.0, 2.0}) {
      auto single = server->AnswerRange(kWorld, t);
      auto sharded = cluster->AnswerRange(kWorld, t);
      ASSERT_EQ(single.status().code(), sharded.status().code())
          << "index " << index << " t " << t;
      if (single.ok()) {
        EXPECT_GT(single->size(), 16u);
        EXPECT_TRUE(std::is_sorted(single->begin(), single->end()));
        EXPECT_EQ(*single, *sharded) << "t " << t;
      }
    }
  }
}

TEST_F(ServerClusterTest, AnswerRangeMergesShardsAndFiltersOwnership) {
  auto config = ClusterConfig(4);
  config.server.num_nodes = 40;
  config.server.auto_throttle = false;
  config.server.fixed_z = 0.5;
  auto cluster = MustCreate(config);
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 40; ++id) {
    batch.push_back(
        UpdateFor(id, {40.0 * id + 20.0, 800.0}, {1.0, 0.0}, 0.0));
  }
  cluster->Receive(std::move(batch));
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  const Rect range{300.0, 700.0, 1100.0, 900.0};
  auto got = cluster->AnswerRange(range, cluster->time());
  ASSERT_TRUE(got.ok());
  std::vector<NodeId> want;
  for (NodeId id = 0; id < 40; ++id) {
    const auto p = cluster->BelievedPositionAt(id, cluster->time());
    if (p.has_value() && range.Contains(*p)) {
      want.push_back(id);
    }
  }
  EXPECT_EQ(*got, want);
  EXPECT_FALSE(want.empty());
  // Past snapshot times are rejected, like the single server.
  EXPECT_FALSE(cluster->AnswerRange(range, 0.0).ok());
  // And an index-less cluster refuses entirely.
  config.server.maintain_index = false;
  auto no_index = MustCreate(config);
  EXPECT_FALSE(no_index->AnswerRange(range, 0.0).ok());
}

TEST_F(ServerClusterTest, HistoryFollowsNodeAcrossShards) {
  auto config = ClusterConfig(2);
  config.server.num_nodes = 4;
  config.server.record_history = true;
  config.server.auto_throttle = false;
  config.server.fixed_z = 0.5;
  auto cluster = MustCreate(config);
  ASSERT_NE(cluster->history(), nullptr);

  // Left at t=0 moving right at 100 m/s; re-reports from the right half at
  // t=8 standing still.
  cluster->Receive({UpdateFor(0, {150.0, 150.0}, {100.0, 0.0}, 0.0)});
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  cluster->Receive({UpdateFor(0, {950.0, 150.0}, {0.0, 0.0}, 8.0)});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster->Tick(1.0).ok());
  }

  // t=1: governed by the first model, held by shard 0.
  auto early = cluster->history()->PositionAt(0, 1.0);
  ASSERT_TRUE(early.has_value());
  EXPECT_EQ(*early, (Point{250.0, 150.0}));
  // t=9: governed by the second model, held by shard 1.
  auto late = cluster->history()->PositionAt(0, 9.0);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(*late, (Point{950.0, 150.0}));

  auto in_first_query =
      cluster->AnswerHistoricalRange(queries_.Get(0).range, 1.0);
  ASSERT_TRUE(in_first_query.ok());
  EXPECT_EQ(*in_first_query, std::vector<NodeId>{0});
  auto later = cluster->AnswerHistoricalRange(queries_.Get(0).range, 9.0);
  ASSERT_TRUE(later.ok());
  EXPECT_TRUE(later->empty());
  EXPECT_FALSE(
      cluster->AnswerHistoricalRange(queries_.Get(0).range, 1e9).ok());
  EXPECT_GT(cluster->history()->ApproxBytes(), 0);

  auto no_history = MustCreate(ClusterConfig(2));
  EXPECT_EQ(no_history->history(), nullptr);
  EXPECT_FALSE(
      no_history->AnswerHistoricalRange(queries_.Get(0).range, 0.0).ok());
}

TEST_F(ServerClusterTest, PerShardTelemetryAndSerialEvents) {
  telemetry::MemoryEventSink events;
  telemetry::TelemetrySink sink(&events);
  auto config = ClusterConfig(2);
  config.server.num_nodes = 40;
  config.server.queue_capacity = 10;
  config.server.service_rate = 4.0;
  config.server.telemetry = &sink;
  auto cluster = MustCreate(config);

  // The total and per-shard queue depths after each batch, as the gauges
  // should see them.
  size_t depth = 0;
  size_t high_watermark = 0;
  size_t shard_depth[2] = {0, 0};
  for (int t = 0; t < 5; ++t) {
    std::vector<ModelUpdate> batch;
    for (NodeId id = 0; id < 40; ++id) {
      batch.push_back(
          UpdateFor(id, {40.0 * id + 20.0, 800.0}, {1.0, 0.0}, t));
    }
    cluster->Receive(std::move(batch));
    depth = cluster->queue_size();
    high_watermark = std::max(high_watermark, depth);
    for (int32_t k = 0; k < 2; ++k) {
      shard_depth[k] = cluster->shard_queue(k).size();
    }
    ASSERT_TRUE(cluster->Tick(1.0).ok());
  }
  ASSERT_TRUE(cluster->Adapt().ok());

  const telemetry::MetricRegistry& metrics = sink.metrics();
  // Cluster-level counters equal the shard sums and the queue truth.
  EXPECT_EQ(metrics.FindCounter("lira.queue.arrivals")->value(),
            cluster->queue_arrivals());
  EXPECT_EQ(metrics.FindCounter("lira.queue.dropped")->value(),
            cluster->queue_dropped());
  EXPECT_GT(cluster->queue_dropped(), 0);
  EXPECT_EQ(metrics.FindCounter("lira.shard0.queue.arrivals")->value() +
                metrics.FindCounter("lira.shard1.queue.arrivals")->value(),
            cluster->queue_arrivals());
  // Each shard's instruments track its own queue.
  for (int32_t k = 0; k < 2; ++k) {
    SCOPED_TRACE(::testing::Message() << "shard " << k);
    const std::string prefix = "lira.shard" + std::to_string(k) + ".queue.";
    const UpdateQueue& queue = cluster->shard_queue(k);
    EXPECT_EQ(metrics.FindCounter(prefix + "arrivals")->value(),
              queue.total_arrivals());
    EXPECT_EQ(metrics.FindCounter(prefix + "dropped")->value(),
              queue.total_dropped());
    EXPECT_DOUBLE_EQ(metrics.FindGauge(prefix + "depth")->value(),
                     static_cast<double>(shard_depth[k]));
    EXPECT_DOUBLE_EQ(metrics.FindGauge(prefix + "high_watermark")->value(),
                     static_cast<double>(queue.high_watermark()));
  }
  // The server-wide gauges hold total depths, not one shard's.
  EXPECT_DOUBLE_EQ(metrics.FindGauge("lira.queue.depth")->value(),
                   static_cast<double>(depth));
  EXPECT_DOUBLE_EQ(metrics.FindGauge("lira.queue.high_watermark")->value(),
                   static_cast<double>(high_watermark));
  EXPECT_GT(high_watermark,
            std::max(cluster->shard_queue(0).high_watermark(),
                     cluster->shard_queue(1).high_watermark()));
  // Per-shard node gauges reflect the post-adaptation split.
  EXPECT_DOUBLE_EQ(
      metrics.FindGauge("lira.shard0.stats.nodes")->value() +
          metrics.FindGauge("lira.shard1.stats.nodes")->value(),
      cluster->stats().TotalNodes());
  // Overflow events come from the (serial) coordinator only.
  const auto overflows = events.Select(telemetry::EventKind::kQueueOverflow);
  ASSERT_FALSE(overflows.empty());
  for (const auto& event : overflows) {
    EXPECT_EQ(event.name, "lira.queue.dropped");
  }
}

TEST_F(ServerClusterTest, MalformedUpdatesAreRejectedBeforeRouting) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const int32_t shards : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    telemetry::MemoryEventSink events;
    telemetry::TelemetrySink sink(&events);
    auto dirty_config = ClusterConfig(shards);
    dirty_config.server.telemetry = &sink;
    auto dirty = MustCreate(dirty_config);
    auto clean = MustCreate(ClusterConfig(shards));
    const int32_t n = BaseServerConfig().num_nodes;
    const std::vector<ModelUpdate> bad = {
        UpdateFor(-1, {100.0, 100.0}, {0.0, 0.0}, 0.0),
        UpdateFor(n, {100.0, 100.0}, {0.0, 0.0}, 0.0),
        UpdateFor(3, {kNaN, 100.0}, {0.0, 0.0}, 0.0),
        UpdateFor(4, {100.0, kInf}, {0.0, 0.0}, 0.0),
        UpdateFor(5, {100.0, 100.0}, {kNaN, 0.0}, 0.0),
        UpdateFor(6, {100.0, 100.0}, {0.0, -kInf}, 0.0),
        UpdateFor(7, {100.0, 100.0}, {0.0, 0.0}, kNaN),
    };
    Rng rng(31);
    int64_t rejected = 0;
    for (int t = 0; t < 12; ++t) {
      std::vector<ModelUpdate> batch = RandomBatch(rng, n, t);
      clean->Receive(batch);
      // The same valid updates in the same order, with bad ones among them.
      std::vector<ModelUpdate> mixed;
      for (size_t i = 0; i < batch.size(); ++i) {
        if (i % 7 == static_cast<size_t>(t % 7)) {
          mixed.push_back(bad[(i + t) % bad.size()]);
          ++rejected;
        }
        mixed.push_back(batch[i]);
      }
      dirty->Receive(std::move(mixed));
      ASSERT_TRUE(clean->Tick(1.0).ok());
      ASSERT_TRUE(dirty->Tick(1.0).ok());
    }
    ASSERT_GT(dirty->plan_builds(), 2);
    EXPECT_EQ(dirty->queue_rejected(), rejected);
    EXPECT_EQ(clean->queue_rejected(), 0);
    EXPECT_EQ(sink.metrics().FindCounter("lira.queue.rejected")->value(),
              rejected);
    EXPECT_EQ(sink.metrics().FindCounter("lira.queue.arrivals")->value(),
              clean->queue_arrivals());
    EXPECT_EQ(dirty->queue_arrivals(), clean->queue_arrivals());
    EXPECT_EQ(dirty->queue_dropped(), clean->queue_dropped());
    EXPECT_EQ(dirty->updates_applied(), clean->updates_applied());
    for (NodeId id = 0; id < n; ++id) {
      const ModelRecord& a = dirty->tracker().records()[id];
      const ModelRecord& b = clean->tracker().records()[id];
      ASSERT_EQ(a.has, b.has) << "id=" << id;
      if (a.has != 0) {
        ASSERT_EQ(a.origin_x, b.origin_x) << "id=" << id;
        ASSERT_EQ(a.origin_y, b.origin_y) << "id=" << id;
        ASSERT_EQ(a.vel_x, b.vel_x) << "id=" << id;
        ASSERT_EQ(a.vel_y, b.vel_y) << "id=" << id;
        ASSERT_EQ(a.t0, b.t0) << "id=" << id;
      }
    }
    ExpectGridsBitwiseEqual(dirty->stats(), clean->stats());
    ASSERT_EQ(dirty->plan().NumRegions(), clean->plan().NumRegions());
    for (int32_t r = 0; r < dirty->plan().NumRegions(); ++r) {
      EXPECT_EQ(dirty->plan().regions()[r].area,
                clean->plan().regions()[r].area);
      EXPECT_EQ(dirty->plan().regions()[r].delta,
                clean->plan().regions()[r].delta);
    }
    EXPECT_EQ(dirty->z(), clean->z());
  }
}

}  // namespace
}  // namespace lira
