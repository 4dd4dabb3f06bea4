#include "lira/telemetry/trace.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/rng.h"
#include "lira/server/server_cluster.h"

namespace lira::telemetry {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(TraceLaneTest, AssignsSequenceNumbersAndClears) {
  TraceLane lane;
  lane.Record("a", /*tick=*/1, /*shard=*/0, /*sim_time=*/0.1, 10, 5);
  lane.Record("b", 1, 0, 0.1, 20, 5);
  lane.Record("c", 2, 0, 0.2, 30, 5);
  ASSERT_EQ(lane.size(), 3u);
  EXPECT_EQ(lane.spans()[0].seq, 0);
  EXPECT_EQ(lane.spans()[1].seq, 1);
  EXPECT_EQ(lane.spans()[2].seq, 2);
  lane.Clear();
  EXPECT_EQ(lane.size(), 0u);
  lane.Record("d", 3, 0, 0.3, 40, 5);
  EXPECT_EQ(lane.spans()[0].seq, 0) << "Clear() must reset the sequence";
}

TEST(TraceRecorderTest, LaneMappingAndOutOfRange) {
  TraceRecorder recorder(/*lanes=*/3);
  EXPECT_EQ(recorder.num_lanes(), 3);
  EXPECT_NE(recorder.lane(TraceRecorder::kDriverLane), nullptr);
  EXPECT_NE(recorder.lane(TraceRecorder::LaneForShard(1)), nullptr);
  // Shard 2 needs lane 3: out of range, dropped rather than corrupted.
  EXPECT_EQ(recorder.lane(TraceRecorder::LaneForShard(2)), nullptr);
  EXPECT_EQ(recorder.lane(-1), nullptr);
}

TEST(TraceRecorderTest, ScopedSpanNullLaneIsNoop) {
  TraceRecorder recorder(1);
  {
    ScopedSpan span(&recorder, nullptr, "noop", 0, -1, 0.0);
    span.set_value(42.0);
  }
  {
    ScopedSpan span(nullptr, nullptr, "noop", 0, -1, 0.0);
  }
  EXPECT_EQ(recorder.TotalSpans(), 0u);
  // And RecordInstant with either pointer null is also a no-op.
  RecordInstant(nullptr, recorder.lane(0), "i", 0, -1, 0.0);
  RecordInstant(&recorder, nullptr, "i", 0, -1, 0.0);
  EXPECT_EQ(recorder.TotalSpans(), 0u);
}

TEST(TraceRecorderTest, ScopedSpanRecordsDurationAndValue) {
  TraceRecorder recorder(1);
  {
    ScopedSpan span(&recorder, recorder.lane(0), "work", /*tick=*/7,
                    /*shard=*/-1, /*sim_time=*/3.5);
    span.set_value(99.0);
  }
  ASSERT_EQ(recorder.TotalSpans(), 1u);
  const SpanRecord& span = recorder.lane(0)->spans()[0];
  EXPECT_STREQ(span.name, "work");
  EXPECT_EQ(span.tick, 7);
  EXPECT_EQ(span.shard, -1);
  EXPECT_DOUBLE_EQ(span.sim_time, 3.5);
  EXPECT_GE(span.duration_ns, 0);
  EXPECT_DOUBLE_EQ(span.value, 99.0);
  // Explicit Stop() records once; destruction does not double-record.
  {
    ScopedSpan span2(&recorder, recorder.lane(0), "work2", 8, -1, 4.0);
    span2.Stop();
    span2.Stop();
  }
  EXPECT_EQ(recorder.TotalSpans(), 2u);
}

TEST(TraceRecorderTest, MergedSpansOrderByTickLaneSeq) {
  TraceRecorder recorder(3);
  // Record out of wall-clock order on purpose: lane 2 first, then lane 1,
  // with interleaved ticks. Program order must win.
  recorder.lane(2)->Record("s1.t1", 1, 1, 0.0, 900, 1);
  recorder.lane(2)->Record("s1.t2", 2, 1, 0.0, 905, 1);
  recorder.lane(1)->Record("s0.t1", 1, 0, 0.0, 100, 1);
  recorder.lane(0)->Record("drv.t1", 1, -1, 0.0, 500, 1);
  recorder.lane(0)->Record("drv.t2", 2, -1, 0.0, 505, 1);
  const std::vector<SpanRecord> merged = recorder.MergedSpans();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_STREQ(merged[0].name, "drv.t1");  // tick 1, lane 0
  EXPECT_STREQ(merged[1].name, "s0.t1");   // tick 1, lane 1
  EXPECT_STREQ(merged[2].name, "s1.t1");   // tick 1, lane 2
  EXPECT_STREQ(merged[3].name, "drv.t2");  // tick 2, lane 0
  EXPECT_STREQ(merged[4].name, "s1.t2");   // tick 2, lane 2
}

TEST(TraceRecorderTest, ConcurrentLanesAreIndependent) {
  // The single-writer-per-lane contract: 8 threads, each appending to its
  // own lane concurrently, must be race-free (run under TSan in CI).
  TraceRecorder recorder(8);
  constexpr int kSpansPerLane = 2000;
  std::vector<std::thread> threads;
  for (int32_t lane_index = 0; lane_index < 8; ++lane_index) {
    threads.emplace_back([&recorder, lane_index] {
      TraceLane* lane = recorder.lane(lane_index);
      for (int i = 0; i < kSpansPerLane; ++i) {
        ScopedSpan span(&recorder, lane, "tick", i, lane_index, 0.0);
        span.set_value(i);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(recorder.TotalSpans(), 8u * kSpansPerLane);
  EXPECT_EQ(recorder.MergedSpans().size(), 8u * kSpansPerLane);
  recorder.Clear();
  EXPECT_EQ(recorder.TotalSpans(), 0u);
}

TEST(TraceRecorderTest, WriteJsonlOneObjectPerSpan) {
  TraceRecorder recorder(2);
  recorder.lane(0)->Record("alpha", 1, -1, 0.5, 100, 50, 3.0);
  recorder.lane(1)->Record("beta", 1, 0, 0.5, 200, 25);
  const std::string path = TempPath("trace_test.jsonl");
  ASSERT_TRUE(recorder.WriteJsonl(path).ok());
  const std::string text = ReadFile(path);
  // Two non-empty lines, each a JSON object mentioning its span.
  std::stringstream ss(text);
  std::string line;
  int lines = 0;
  while (std::getline(ss, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, 2);
  EXPECT_NE(text.find("\"name\":\"alpha\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"name\":\"beta\""), std::string::npos) << text;
  EXPECT_EQ(text.find('\t'), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, WriteChromeTraceIsLoadableShape) {
  TraceRecorder recorder(2);
  recorder.lane(0)->Record("alpha", 1, -1, 0.5, 100, 50);
  recorder.lane(1)->Record("beta", 1, 0, 0.5, 200, 25);
  const std::string path = TempPath("trace_test_chrome.json");
  ASSERT_TRUE(recorder.WriteChromeTrace(path).ok());
  const std::string text = ReadFile(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  // Complete events plus the thread_name metadata for both lanes.
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("driver"), std::string::npos);
  EXPECT_NE(text.find("shard 0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, WriteFailsOnUnwritablePath) {
  TraceRecorder recorder(1);
  EXPECT_FALSE(recorder.WriteJsonl("/nonexistent-dir/t.jsonl").ok());
  EXPECT_FALSE(recorder.WriteChromeTrace("/nonexistent-dir/t.json").ok());
}

// --- Merge determinism on the real pipeline ------------------------------

constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};

struct SpanKey {
  std::string name;
  int64_t tick;
  int32_t shard;
  int64_t seq;
  bool operator==(const SpanKey&) const = default;
};

/// Drives a 4-shard cluster through a fixed traffic stream with `threads`
/// workers and returns the structural merged span stream (wall-clock fields
/// stripped).
std::vector<SpanKey> ClusterSpanStream(int32_t threads) {
  auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
  EXPECT_TRUE(analytic.ok());
  auto reduction = PiecewiseLinearReduction::SampleFunction(
      5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
  EXPECT_TRUE(reduction.ok());
  QueryRegistry queries;
  queries.Add(Rect{100, 100, 500, 500});
  queries.Add(Rect{900, 900, 1300, 1300});
  const UniformDeltaPolicy policy;

  TraceRecorder recorder(/*lanes=*/5);
  ServerClusterConfig config;
  config.server.num_nodes = 60;
  config.server.world = kWorld;
  config.server.alpha = 16;
  config.server.queue_capacity = 64;
  config.server.service_rate = 200.0;
  config.server.adaptation_period = 4.0;
  config.server.auto_throttle = true;
  config.server.trace = &recorder;
  config.shards = 4;
  config.threads = threads;
  auto cluster = ServerCluster::Create(config, &policy, &*reduction, &queries);
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();

  Rng rng(1234);
  double t = 0.0;
  for (int tick = 0; tick < 20; ++tick) {
    std::vector<ModelUpdate> batch;
    for (NodeId id = 0; id < 60; ++id) {
      if (rng.Uniform(0.0, 1.0) < 0.3) continue;
      ModelUpdate u;
      u.node_id = id;
      u.model = LinearMotionModel{
          {rng.Uniform(0.0, 1600.0), rng.Uniform(0.0, 1600.0)},
          {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)},
          t};
      batch.push_back(u);
    }
    (*cluster)->ReceiveBatch(&batch);
    EXPECT_TRUE((*cluster)->Tick(1.0).ok());
    t += 1.0;
  }

  std::vector<SpanKey> keys;
  for (const SpanRecord& span : recorder.MergedSpans()) {
    keys.push_back(SpanKey{span.name, span.tick, span.shard, span.seq});
  }
  return keys;
}

TEST(TraceDeterminismTest, MergedStreamIdenticalAcrossThreadCounts) {
  const std::vector<SpanKey> serial = ClusterSpanStream(1);
  ASSERT_FALSE(serial.empty());
  // Every pipeline stage shows up in the stream.
  auto contains = [&](const char* name) {
    for (const SpanKey& k : serial) {
      if (k.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("ingest.route"));
  EXPECT_TRUE(contains("ingest.receive"));
  EXPECT_TRUE(contains("ingest.service"));
  EXPECT_TRUE(contains("tracker.apply"));
  EXPECT_TRUE(contains("tracker.handoffs"));
  EXPECT_TRUE(contains("stats.rebuild"));
  EXPECT_TRUE(contains("optimizer.throttle"));
  EXPECT_TRUE(contains("optimizer.plan_build"));
  EXPECT_TRUE(contains("plan.broadcast"));

  EXPECT_EQ(ClusterSpanStream(2), serial) << "threads=2 diverged";
  EXPECT_EQ(ClusterSpanStream(8), serial) << "threads=8 diverged";
}

}  // namespace
}  // namespace lira::telemetry
