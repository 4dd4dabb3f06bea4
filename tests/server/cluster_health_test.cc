#include "lira/server/cluster_health.h"

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lira/server/server_cluster.h"
#include "lira/telemetry/telemetry.h"
#include "tools/bench_compare_lib.h"

namespace lira {
namespace {

// 16 x 16 cells of 100 m: with 4 shards, shard k owns x in
// [k*400, (k+1)*400).
constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};

class ClusterHealthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
    ASSERT_TRUE(analytic.ok());
    auto pwl = PiecewiseLinearReduction::SampleFunction(
        5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
    ASSERT_TRUE(pwl.ok());
    reduction_.emplace(*std::move(pwl));
    queries_.Add(Rect{100, 100, 500, 500});
  }

  std::unique_ptr<ServerCluster> MakeCluster(int32_t shards) {
    ServerClusterConfig config;
    config.server.num_nodes = 80;
    config.server.world = kWorld;
    config.server.alpha = 16;
    config.server.queue_capacity = 256;
    config.server.service_rate = 1000.0;
    config.server.adaptation_period = 100.0;
    config.server.fixed_z = 0.5;
    config.shards = shards;
    config.threads = 1;
    auto cluster =
        ServerCluster::Create(config, &policy_, &*reduction_, &queries_);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    return *std::move(cluster);
  }

  ModelUpdate UpdateFor(NodeId id, Point p, double t) {
    ModelUpdate u;
    u.node_id = id;
    u.model = LinearMotionModel{p, {1.0, 0.0}, t};
    return u;
  }

  std::optional<PiecewiseLinearReduction> reduction_;
  QueryRegistry queries_;
  UniformDeltaPolicy policy_;
};

TEST_F(ClusterHealthTest, EmptyClusterSnapshotIsBenign) {
  auto cluster = MakeCluster(4);
  const ClusterHealth health = cluster->HealthSnapshot();
  EXPECT_EQ(health.num_shards, 4);
  ASSERT_EQ(health.shards.size(), 4u);
  EXPECT_EQ(health.total_nodes, 0);
  EXPECT_EQ(health.max_shard_nodes, 0);
  EXPECT_DOUBLE_EQ(health.mean_shard_nodes, 0.0);
  EXPECT_DOUBLE_EQ(health.imbalance_ratio, 0.0);
}

TEST_F(ClusterHealthTest, OneModelStoreAtEveryShardCount) {
  // The cluster keeps one model store, so its bytes per node (one model
  // record) do not grow with the shard count.
  const ClusterHealth one = MakeCluster(1)->HealthSnapshot();
  const ClusterHealth four = MakeCluster(4)->HealthSnapshot();
  EXPECT_EQ(four.tracker_bytes, one.tracker_bytes);
  EXPECT_DOUBLE_EQ(four.bytes_per_node, one.bytes_per_node);
  EXPECT_DOUBLE_EQ(four.bytes_per_node,
                   static_cast<double>(sizeof(ModelRecord)));
  std::stringstream prom;
  WriteHealthPrometheus(four, /*metrics=*/nullptr, prom);
  // 80 nodes of 48 bytes.
  EXPECT_NE(prom.str().find("lira_cluster_tracker_bytes 3840"),
            std::string::npos)
      << prom.str();
  EXPECT_EQ(prom.str().find("lira_cluster_shard_tracker_bytes"),
            std::string::npos);
}

TEST_F(ClusterHealthTest, SkewedWorkloadShowsImbalance) {
  auto cluster = MakeCluster(4);
  // Every node reports from shard 0's strip: maximal skew.
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 40; ++id) {
    batch.push_back(UpdateFor(id, {50.0 + 5.0 * id, 800.0}, 0.0));
  }
  cluster->ReceiveBatch(&batch);
  ASSERT_TRUE(cluster->Tick(1.0).ok());

  const ClusterHealth health = cluster->HealthSnapshot();
  EXPECT_EQ(health.tick, 1);
  EXPECT_EQ(health.total_nodes, 40);
  EXPECT_EQ(health.max_shard_nodes, 40);
  EXPECT_DOUBLE_EQ(health.mean_shard_nodes, 10.0);
  // max/mean with one shard holding everything and 4 shards = 4.0.
  EXPECT_DOUBLE_EQ(health.imbalance_ratio, 4.0);
  ASSERT_EQ(health.shards.size(), 4u);
  EXPECT_EQ(health.shards[0].nodes_owned, 40);
  EXPECT_EQ(health.shards[1].nodes_owned, 0);
  EXPECT_GT(health.shards[0].queue_arrivals, 0);
}

TEST_F(ClusterHealthTest, BalancedWorkloadIsNearOne) {
  auto cluster = MakeCluster(4);
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 40; ++id) {
    // Node id -> shard id % 4 (strips are 400 m wide).
    batch.push_back(
        UpdateFor(id, {static_cast<double>(id % 4) * 400.0 + 200.0,
                       800.0},
                  0.0));
  }
  cluster->ReceiveBatch(&batch);
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  const ClusterHealth health = cluster->HealthSnapshot();
  EXPECT_EQ(health.total_nodes, 40);
  EXPECT_DOUBLE_EQ(health.imbalance_ratio, 1.0);
}

TEST_F(ClusterHealthTest, JsonRoundTripsThroughFlattener) {
  auto cluster = MakeCluster(4);
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 40; ++id) {
    batch.push_back(UpdateFor(id, {50.0 + 5.0 * id, 800.0}, 0.0));
  }
  cluster->ReceiveBatch(&batch);
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  const ClusterHealth health = cluster->HealthSnapshot();

  std::stringstream out;
  WriteHealthJson(health, out);
  const benchgate::FlatBench flat = benchgate::FlattenJson(out.str());
  ASSERT_TRUE(flat.ok) << flat.error;
  EXPECT_DOUBLE_EQ(flat.numbers.at("time"), health.time);
  EXPECT_DOUBLE_EQ(flat.numbers.at("tick"),
                   static_cast<double>(health.tick));
  EXPECT_DOUBLE_EQ(flat.numbers.at("num_shards"), 4.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("z"), health.z);
  EXPECT_DOUBLE_EQ(flat.numbers.at("total_nodes"), 40.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("max_shard_nodes"), 40.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("mean_shard_nodes"), 10.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("imbalance_ratio"), 4.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("shards.0.shard"), 0.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("shards.0.nodes_owned"), 40.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("shards.3.nodes_owned"), 0.0);
  EXPECT_TRUE(flat.numbers.count("shards.2.queue_depth"));
  EXPECT_TRUE(flat.numbers.count("shards.2.queue_dropped"));
}

TEST_F(ClusterHealthTest, RebalanceFieldsSurfaceAndRoundTrip) {
  // Enable rebalancing and drive a skewed load through two adaptations so
  // the map leaves epoch 0 and nodes migrate.
  telemetry::MemoryEventSink events;
  telemetry::TelemetrySink sink(&events);
  ServerClusterConfig config;
  config.server.telemetry = &sink;
  config.server.num_nodes = 80;
  config.server.world = kWorld;
  config.server.alpha = 16;
  config.server.queue_capacity = 256;
  config.server.service_rate = 1000.0;
  config.server.adaptation_period = 100.0;
  config.server.fixed_z = 0.5;
  config.shards = 4;
  config.threads = 1;
  config.rebalance_stride = 1;
  auto cluster =
      ServerCluster::Create(config, &policy_, &*reduction_, &queries_);
  ASSERT_TRUE(cluster.ok());
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 80; ++id) {
    batch.push_back(UpdateFor(id, {50.0 + 3.0 * id, 800.0}, 0.0));
  }
  (*cluster)->ReceiveBatch(&batch);
  ASSERT_TRUE((*cluster)->Tick(1.0).ok());
  ASSERT_TRUE((*cluster)->Adapt().ok());  // adaptation 0: no rebalance yet
  ASSERT_TRUE((*cluster)->Adapt().ok());  // adaptation 1: rebalances

  const ClusterHealth health = (*cluster)->HealthSnapshot();
  EXPECT_GE(health.map_epoch, 1);
  EXPECT_GE(health.rebalances, 1);
  EXPECT_GT(health.nodes_migrated, 0);
  // The per-shard spans partition [0, alpha), and each shard's node gauge
  // (set at the adaptation, after the migration) reads its owned count.
  int32_t col = 0;
  for (const ShardHealth& shard : health.shards) {
    EXPECT_EQ(shard.col_begin, col);
    EXPECT_GT(shard.col_end, shard.col_begin);
    col = shard.col_end;
    EXPECT_EQ(sink.metrics()
                  .FindGauge("lira.shard" + std::to_string(shard.shard) +
                             ".stats.nodes")
                  ->value(),
              static_cast<double>(shard.nodes_owned));
  }
  EXPECT_EQ(col, 16);

  std::stringstream out;
  WriteHealthJson(health, out);
  const benchgate::FlatBench flat = benchgate::FlattenJson(out.str());
  ASSERT_TRUE(flat.ok) << flat.error;
  EXPECT_DOUBLE_EQ(flat.numbers.at("map_epoch"),
                   static_cast<double>(health.map_epoch));
  EXPECT_DOUBLE_EQ(flat.numbers.at("rebalances"),
                   static_cast<double>(health.rebalances));
  EXPECT_DOUBLE_EQ(flat.numbers.at("nodes_migrated"),
                   static_cast<double>(health.nodes_migrated));
  EXPECT_DOUBLE_EQ(flat.numbers.at("shards.0.col_begin"), 0.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("shards.3.col_end"), 16.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("shards.1.col_begin"),
                   static_cast<double>(health.shards[1].col_begin));

  std::stringstream prom;
  WriteHealthPrometheus(health, /*metrics=*/nullptr, prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("# TYPE lira_cluster_map_epoch gauge"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE lira_cluster_rebalances counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lira_cluster_nodes_migrated counter"),
            std::string::npos);
  EXPECT_NE(text.find("lira_cluster_shard_col_begin{shard=\"0\"} 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lira_cluster_shard_col_end{shard=\"3\"} 16"),
            std::string::npos);
}

TEST_F(ClusterHealthTest, PrometheusExpositionHasClusterSeries) {
  auto cluster = MakeCluster(2);
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 20; ++id) {
    batch.push_back(UpdateFor(id, {50.0 + 5.0 * id, 800.0}, 0.0));
  }
  cluster->ReceiveBatch(&batch);
  ASSERT_TRUE(cluster->Tick(1.0).ok());

  std::stringstream out;
  WriteHealthPrometheus(cluster->HealthSnapshot(), /*metrics=*/nullptr, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE lira_cluster_imbalance_ratio gauge"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lira_cluster_total_nodes 20"), std::string::npos);
  EXPECT_NE(text.find("lira_cluster_shard_nodes_owned{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lira_cluster_shard_queue_depth{shard=\"1\"}"),
            std::string::npos);

  // With a registry attached, its instruments follow the cluster series.
  telemetry::MetricRegistry metrics;
  metrics.GetCounter("lira.shard0.queue.arrivals")->Increment(7);
  std::stringstream with_metrics;
  WriteHealthPrometheus(cluster->HealthSnapshot(), &metrics, with_metrics);
  EXPECT_NE(
      with_metrics.str().find("lira_queue_arrivals{shard=\"0\"} 7"),
      std::string::npos)
      << with_metrics.str();
}

}  // namespace
}  // namespace lira
