#include "lira/server/cq_server.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/rng.h"
#include "lira/telemetry/flight_recorder.h"
#include "lira/telemetry/telemetry.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};

/// FNV-1a 64, fed 8-byte little-endian numbers and NUL-terminated strings.
class Fnv1a {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      AddByte((value >> (8 * i)) & 0xff);
    }
  }
  void Add(int64_t value) { Add(static_cast<uint64_t>(value)); }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
  void Add(std::string_view text) {
    for (const char c : text) {
      AddByte(static_cast<unsigned char>(c));
    }
    AddByte(0);
  }
  uint64_t value() const { return hash_; }

 private:
  void AddByte(uint64_t byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ULL;
  }

  uint64_t hash_ = 1469598103934665603ULL;
};

class CqServerTest : public ::testing::Test {
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

  CqServerConfig BaseConfig() {
    CqServerConfig config;
    config.num_nodes = 50;
    config.world = kWorld;
    config.alpha = 16;
    config.queue_capacity = 100;
    config.service_rate = 1000.0;
    config.adaptation_period = 10.0;
    config.fixed_z = 0.5;
    return config;
  }

  ModelUpdate UpdateFor(NodeId id, Point p, Vec2 v, double t) {
    ModelUpdate u;
    u.node_id = id;
    u.model = LinearMotionModel{p, v, t};
    return u;
  }

  std::optional<PiecewiseLinearReduction> reduction_;
  QueryRegistry queries_;
  UniformDeltaPolicy uniform_policy_;
};

TEST_F(CqServerTest, CreateValidation) {
  auto config = BaseConfig();
  EXPECT_TRUE(
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_)
          .ok());
  EXPECT_FALSE(
      CqServer::Create(config, nullptr, &*reduction_, &queries_).ok());
  config.num_nodes = 0;
  EXPECT_FALSE(
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_)
          .ok());
  config.num_nodes = -3;
  EXPECT_FALSE(
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_)
          .ok());
  config = BaseConfig();
  config.service_rate = 0.0;
  EXPECT_FALSE(
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_)
          .ok());
  config = BaseConfig();
  config.fixed_z = 1.4;
  EXPECT_FALSE(
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_)
          .ok());
  // auto_throttle ignores fixed_z.
  config.auto_throttle = true;
  EXPECT_TRUE(
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_)
          .ok());
  config = BaseConfig();
  config.adaptation_period = 0.0;
  EXPECT_FALSE(
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_)
          .ok());

  // Non-finite floats fail too: a NaN fixed_z, period or sample fraction
  // would leave a server that never adapts or plans from an empty grid, and
  // a non-finite world bound makes the first plan build fail or abort.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto rejected = [&](const CqServerConfig& bad) {
    auto server =
        CqServer::Create(bad, &uniform_policy_, &*reduction_, &queries_);
    return !server.ok() &&
           server.status().code() == StatusCode::kInvalidArgument;
  };
  config = BaseConfig();
  config.fixed_z = kNaN;
  EXPECT_TRUE(rejected(config)) << "fixed_z NaN";
  for (const double period : {kNaN, kInf}) {
    config = BaseConfig();
    config.adaptation_period = period;
    EXPECT_TRUE(rejected(config)) << "adaptation_period " << period;
  }
  config = BaseConfig();
  config.stats_sample_fraction = kNaN;
  EXPECT_TRUE(rejected(config)) << "stats_sample_fraction NaN";
  for (const double bound : {kNaN, kInf, -kInf}) {
    for (int side = 0; side < 4; ++side) {
      config = BaseConfig();
      double* const fields[] = {&config.world.min_x, &config.world.min_y,
                                &config.world.max_x, &config.world.max_y};
      *fields[side] = bound;
      EXPECT_TRUE(rejected(config)) << "world side " << side << " " << bound;
    }
  }
  config = BaseConfig();
  config.world.max_x = config.world.min_x;
  EXPECT_TRUE(rejected(config)) << "empty world";
}

TEST_F(CqServerTest, InitialPlanIsMaximumAccuracy) {
  auto server = CqServer::Create(BaseConfig(), &uniform_policy_, &*reduction_,
                                 &queries_);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(server->plan().NumRegions(), 1);
  EXPECT_DOUBLE_EQ(server->plan().MaxDelta(), 5.0);
  EXPECT_EQ(server->plan_builds(), 0);
  EXPECT_DOUBLE_EQ(server->z(), 0.5);  // fixed mode starts at fixed_z
}

TEST_F(CqServerTest, AdaptInstallsPolicyPlan) {
  auto server = CqServer::Create(BaseConfig(), &uniform_policy_, &*reduction_,
                                 &queries_);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Adapt().ok());
  EXPECT_EQ(server->plan_builds(), 1);
  EXPECT_GE(server->total_plan_build_seconds(), 0.0);
  // Uniform-Delta at z = 0.5 sets f^{-1}(0.5) everywhere.
  EXPECT_NEAR(server->plan().MaxDelta(), reduction_->InverseEval(0.5), 1e-9);
}

TEST_F(CqServerTest, TickServicesQueueAndAppliesUpdates) {
  auto server = CqServer::Create(BaseConfig(), &uniform_policy_, &*reduction_,
                                 &queries_);
  ASSERT_TRUE(server.ok());
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 10; ++id) {
    batch.push_back(UpdateFor(id, {100.0 + id, 200.0}, {1.0, 0.0}, 0.0));
  }
  server->Receive(std::move(batch));
  ASSERT_TRUE(server->Tick(1.0).ok());
  EXPECT_EQ(server->updates_applied(), 10);
  const auto p = server->tracker().PredictAt(3, 2.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Point{105.0, 200.0}));
}

TEST_F(CqServerTest, ServiceRateLimitsThroughput) {
  auto config = BaseConfig();
  config.service_rate = 3.0;  // 3 updates per second
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 30; ++id) {
    batch.push_back(UpdateFor(id, {10.0, 10.0}, {0.0, 0.0}, 0.0));
  }
  server->Receive(std::move(batch));
  ASSERT_TRUE(server->Tick(1.0).ok());
  EXPECT_EQ(server->updates_applied(), 3);
  ASSERT_TRUE(server->Tick(1.0).ok());
  EXPECT_EQ(server->updates_applied(), 6);
}

TEST_F(CqServerTest, QueueOverflowDrops) {
  auto config = BaseConfig();
  config.queue_capacity = 5;
  config.service_rate = 1.0;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 20; ++id) {
    batch.push_back(UpdateFor(id, {10.0, 10.0}, {0.0, 0.0}, 0.0));
  }
  server->Receive(std::move(batch));
  EXPECT_EQ(server->queue().total_dropped(), 15);
}

TEST_F(CqServerTest, AdaptationFiresOnPeriod) {
  auto config = BaseConfig();
  config.adaptation_period = 5.0;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  for (int t = 0; t < 11; ++t) {
    server->Receive({UpdateFor(0, {10.0, 10.0}, {0.0, 0.0}, t)});
    ASSERT_TRUE(server->Tick(1.0).ok());
  }
  EXPECT_EQ(server->plan_builds(), 2);  // at t = 5 and t = 10
  // After adaptation the Uniform-Delta policy sets f^{-1}(z).
  EXPECT_NEAR(server->plan().MaxDelta(), reduction_->InverseEval(0.5), 1e-9);
  EXPECT_DOUBLE_EQ(server->z(), 0.5);
}

TEST_F(CqServerTest, StatisticsBuiltFromBelievedState) {
  auto server = CqServer::Create(BaseConfig(), &uniform_policy_, &*reduction_,
                                 &queries_);
  ASSERT_TRUE(server.ok());
  // Nodes in the lower-left corner.
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 20; ++id) {
    batch.push_back(
        UpdateFor(id, {50.0 + id * 2, 50.0}, {5.0, 0.0}, 0.0));
  }
  server->Receive(std::move(batch));
  ASSERT_TRUE(server->Tick(1.0).ok());
  ASSERT_TRUE(server->Adapt().ok());
  EXPECT_NEAR(server->stats().TotalNodes(), 20.0, 1e-9);
  EXPECT_NEAR(server->stats().TotalQueries(), 2.0, 1e-6);
  EXPECT_NEAR(server->stats().OverallMeanSpeed(), 5.0, 1e-9);
}

TEST_F(CqServerTest, AutoThrottleReactsToOverload) {
  auto config = BaseConfig();
  config.auto_throttle = true;
  config.service_rate = 10.0;
  config.adaptation_period = 5.0;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  EXPECT_DOUBLE_EQ(server->z(), 1.0);
  // 20 arrivals/s against mu = 10/s for 5 seconds.
  for (int t = 0; t < 5; ++t) {
    std::vector<ModelUpdate> batch;
    for (int k = 0; k < 20; ++k) {
      batch.push_back(UpdateFor(k, {10.0, 10.0}, {0.0, 0.0}, t));
    }
    server->Receive(std::move(batch));
    ASSERT_TRUE(server->Tick(1.0).ok());
  }
  EXPECT_LT(server->z(), 0.6);
  EXPECT_GT(server->z(), 0.3);
}

TEST_F(CqServerTest, RejectsNonPositiveDt) {
  auto config = BaseConfig();
  config.num_nodes = 4;
  config.service_rate = 10.0;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 4; ++id) {
    batch.push_back(UpdateFor(id, {10.0 + id, 10.0}, {0.0, 0.0}, 0.0));
  }
  server->Receive(std::move(batch));
  EXPECT_FALSE(server->Tick(0.0).ok());
  EXPECT_FALSE(server->Tick(-1.0).ok());
  // A non-finite dt would poison the clock and the service credit.
  EXPECT_FALSE(server->Tick(std::numeric_limits<double>::quiet_NaN()).ok());
  EXPECT_FALSE(server->Tick(std::numeric_limits<double>::infinity()).ok());
  EXPECT_EQ(server->time(), 0.0);
  EXPECT_EQ(server->ticks(), 0);
  // The rejected ticks left the server able to serve.
  ASSERT_TRUE(server->Tick(1.0).ok());
  EXPECT_EQ(server->time(), 1.0);
  EXPECT_EQ(server->updates_applied(), 4);
  EXPECT_EQ(server->queue().size(), 0u);
}

TEST_F(CqServerTest, AnswerQueryMatchesTrackerBruteForce) {
  auto server = CqServer::Create(BaseConfig(), &uniform_policy_, &*reduction_,
                                 &queries_);
  ASSERT_TRUE(server.ok());
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 30; ++id) {
    batch.push_back(UpdateFor(id, {50.0 + id * 40.0, 200.0 + id * 30.0},
                              {3.0, -1.0}, 0.0));
  }
  server->Receive(std::move(batch));
  ASSERT_TRUE(server->Tick(1.0).ok());
  for (QueryId q = 0; q < queries_.size(); ++q) {
    auto got = server->AnswerQuery(q);
    ASSERT_TRUE(got.ok());
    std::sort(got->begin(), got->end());
    std::vector<NodeId> want;
    for (NodeId id = 0; id < server->tracker().num_nodes(); ++id) {
      const auto p = server->tracker().PredictAt(id, server->time());
      if (p.has_value() && queries_.Get(q).range.Contains(*p)) {
        want.push_back(id);
      }
    }
    EXPECT_EQ(*got, want) << "query " << q;
  }
  EXPECT_FALSE(server->AnswerQuery(-1).ok());
  EXPECT_FALSE(server->AnswerQuery(queries_.size()).ok());
}

TEST_F(CqServerTest, AnswerRangeValidation) {
  auto config = BaseConfig();
  config.maintain_index = false;
  auto no_index = CqServer::Create(config, &uniform_policy_, &*reduction_,
                                   &queries_);
  ASSERT_TRUE(no_index.ok());
  EXPECT_FALSE(no_index->AnswerRange(Rect{0, 0, 100, 100}, 0.0).ok());

  auto server = CqServer::Create(BaseConfig(), &uniform_policy_, &*reduction_,
                                 &queries_);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Tick(5.0).ok());
  EXPECT_FALSE(server->AnswerRange(Rect{0, 0, 100, 100}, 1.0).ok());
  EXPECT_TRUE(server->AnswerRange(Rect{0, 0, 100, 100}, 5.0).ok());
  EXPECT_TRUE(server->AnswerRange(Rect{0, 0, 100, 100}, 9.0).ok());
}

TEST_F(CqServerTest, AnswerRangeMatchesBruteForce) {
  auto config = BaseConfig();
  config.num_nodes = 40;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 40; ++id) {
    batch.push_back(UpdateFor(id, {25.0 * id, 1000.0 - 25.0 * id},
                              {2.0, -1.0}, 0.0));
  }
  server->Receive(std::move(batch));
  ASSERT_TRUE(server->Tick(1.0).ok());
  const Rect range{200.0, 200.0, 800.0, 800.0};
  const double t = 3.0;
  std::vector<NodeId> want;
  for (NodeId id = 0; id < 40; ++id) {
    const auto p = server->tracker().PredictAt(id, t);
    if (p.has_value() && range.Contains(*p)) {
      want.push_back(id);
    }
  }
  EXPECT_FALSE(want.empty());
  // t is ahead of the snapshot: answered by the O(n) future-time pass...
  auto ahead = server->AnswerRange(range, t);
  ASSERT_TRUE(ahead.ok());
  EXPECT_EQ(*ahead, want);
  // ...and, once the clock reaches t, by the snapshot grid.
  ASSERT_TRUE(server->Tick(t - server->time()).ok());
  ASSERT_EQ(server->time(), t);
  auto now = server->AnswerRange(range, t);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(*now, want);
}

TEST_F(CqServerTest, FarFutureAnswersStayExact) {
  auto config = BaseConfig();
  config.num_nodes = 200;
  config.queue_capacity = 200;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  Rng rng(77);
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 200; ++id) {
    batch.push_back(
        UpdateFor(id, {rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)},
                  {rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)}, 0.0));
  }
  server->Receive(std::move(batch));
  ASSERT_TRUE(server->Tick(1.0).ok());
  ASSERT_EQ(server->updates_applied(), 200);
  const Rect range{200.0, 200.0, 800.0, 800.0};
  for (double ahead : {0.0, 10.0, 100.0, 1000.0}) {
    const double t = server->time() + ahead;
    std::vector<NodeId> want;
    for (NodeId id = 0; id < 200; ++id) {
      const auto p = server->BelievedPositionAt(id, t);
      if (p.has_value() && range.Contains(*p)) {
        want.push_back(id);
      }
    }
    auto got = server->AnswerRange(range, t);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, want) << "t=" << t;
  }
}

TEST_F(CqServerTest, HistoricalRangeAnswers) {
  auto config = BaseConfig();
  config.record_history = true;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  ASSERT_NE(server->history(), nullptr);
  server->Receive({UpdateFor(0, {150.0, 150.0}, {100.0, 0.0}, 0.0)});
  ASSERT_TRUE(server->Tick(1.0).ok());
  server->Receive({UpdateFor(0, {950.0, 150.0}, {0.0, 0.0}, 8.0)});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server->Tick(1.0).ok());
  }
  // At t=1 node 0 was at (250, 150): inside the first query.
  auto past = server->AnswerHistoricalRange(queries_.Get(0).range, 1.0);
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(past->size(), 1u);
  // At t=9 the newer model places it at (950, 150): outside.
  auto later = server->AnswerHistoricalRange(queries_.Get(0).range, 9.0);
  ASSERT_TRUE(later.ok());
  EXPECT_TRUE(later->empty());
  // Future time rejected; disabled history rejected.
  EXPECT_FALSE(
      server->AnswerHistoricalRange(queries_.Get(0).range, 1e9).ok());
  auto plain = CqServer::Create(BaseConfig(), &uniform_policy_, &*reduction_,
                                &queries_);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->history(), nullptr);
  EXPECT_FALSE(
      plain->AnswerHistoricalRange(queries_.Get(0).range, 0.0).ok());
}

TEST_F(CqServerTest, ServedReportsKeepTrackerAndHistoryConsistent) {
  auto config = BaseConfig();
  config.record_history = true;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  server->Receive({UpdateFor(2, {100.0, 100.0}, {10.0, 0.0}, 0.0),
                   UpdateFor(5, {500.0, 500.0}, {0.0, 0.0}, 0.0)});
  ASSERT_TRUE(server->Tick(1.0).ok());

  const auto p = server->tracker().PredictAt(2, 2.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Point{120.0, 100.0}));

  ASSERT_NE(server->history(), nullptr);
  const auto past = server->history()->PositionAt(2, 1.0);
  ASSERT_TRUE(past.has_value());
  EXPECT_EQ(*past, (Point{110.0, 100.0}));
}

TEST_F(CqServerTest, NewerReportReplacesModelAndHistoryKeepsEveryRecord) {
  auto config = BaseConfig();
  config.record_history = true;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  server->Receive({UpdateFor(3, {100.0, 100.0}, {0.0, 0.0}, 0.0)});
  ASSERT_TRUE(server->Tick(1.0).ok());
  server->Receive({UpdateFor(3, {300.0, 300.0}, {0.0, 0.0}, 2.0)});
  ASSERT_TRUE(server->Tick(1.0).ok());

  // The tracker holds the latest model only...
  const auto now = server->tracker().PredictAt(3, 2.0);
  ASSERT_TRUE(now.has_value());
  EXPECT_EQ(*now, (Point{300.0, 300.0}));
  // ...but the history keeps serving the record it already stored.
  ASSERT_NE(server->history(), nullptr);
  const auto past = server->history()->PositionAt(3, 1.0);
  ASSERT_TRUE(past.has_value());
  EXPECT_EQ(*past, (Point{100.0, 100.0}));
  EXPECT_EQ(server->history()->RecordsFor(3), 2);
}

TEST_F(CqServerTest, LateOlderReportKeepsNewerModel) {
  auto config = BaseConfig();
  config.record_history = true;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  server->Receive({UpdateFor(0, {1200.0, 800.0}, {0.0, 0.0}, 2.0)});
  ASSERT_TRUE(server->Tick(1.0).ok());
  // A report older than the model in place arrives a tick later.
  server->Receive({UpdateFor(0, {200.0, 800.0}, {0.0, 0.0}, 1.0)});
  ASSERT_TRUE(server->Tick(1.0).ok());
  EXPECT_EQ(server->updates_applied(), 2);
  const auto believed = server->BelievedPositionAt(0, server->time());
  ASSERT_TRUE(believed.has_value());
  EXPECT_EQ(*believed, (Point{1200.0, 800.0}));
  // The history keeps both reports and agrees with the tracker.
  ASSERT_NE(server->history(), nullptr);
  EXPECT_EQ(server->history()->RecordsFor(0), 2);
  const auto recorded = server->history()->PositionAt(0, server->time());
  ASSERT_TRUE(recorded.has_value());
  EXPECT_EQ(*recorded, *believed);
  const auto past = server->history()->PositionAt(0, 1.5);
  ASSERT_TRUE(past.has_value());
  EXPECT_EQ(*past, (Point{200.0, 800.0}));
}

TEST_F(CqServerTest, OverflowEventCarriesDropCount) {
  telemetry::MemoryEventSink events;
  telemetry::TelemetrySink sink(&events);
  auto config = BaseConfig();
  config.queue_capacity = 4;
  config.telemetry = &sink;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 9; ++id) {
    batch.push_back(UpdateFor(id, {10.0, 10.0}, {0.0, 0.0}, 0.0));
  }
  server->Receive(std::move(batch));
  const auto overflows = events.Select(telemetry::EventKind::kQueueOverflow);
  ASSERT_EQ(overflows.size(), 1u);
  EXPECT_EQ(overflows[0].name, "lira.queue.dropped");
  EXPECT_DOUBLE_EQ(overflows[0].value, 5.0);
  EXPECT_DOUBLE_EQ(overflows[0].extra, 4.0);
}

TEST_F(CqServerTest, InstallQueriesTakesEffectAtAdaptation) {
  auto server = CqServer::Create(BaseConfig(), &uniform_policy_, &*reduction_,
                                 &queries_);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server->Adapt().ok());
  EXPECT_NEAR(server->stats().TotalQueries(), 2.0, 1e-6);
  QueryRegistry bigger;
  bigger.Add(Rect{100, 100, 300, 300});
  bigger.Add(Rect{400, 400, 600, 600});
  bigger.Add(Rect{900, 900, 1100, 1100});
  ASSERT_TRUE(server->InstallQueries(&bigger).ok());
  ASSERT_TRUE(server->Adapt().ok());
  EXPECT_NEAR(server->stats().TotalQueries(), 3.0, 1e-2);
  EXPECT_FALSE(server->InstallQueries(nullptr).ok());
}

TEST_F(CqServerTest, TelemetryRecordsAdaptationLoop) {
  using telemetry::EventKind;
  telemetry::MemoryEventSink events;
  telemetry::TelemetrySink sink(&events);
  auto config = BaseConfig();
  config.auto_throttle = true;
  config.service_rate = 10.0;
  config.adaptation_period = 5.0;
  config.queue_capacity = 15;
  config.telemetry = &sink;
  // LIRA policy so GRIDREDUCE / GREEDYINCREMENT stages run: l = 13 means
  // (13 - 1) / 3 = 4 drill-downs per plan build.
  LiraConfig lira_config;
  lira_config.l = 13;
  LiraPolicy lira_policy(lira_config);
  auto server =
      CqServer::Create(config, &lira_policy, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  // 40 arrivals/s against mu = 10/s: sustained overload across two
  // adaptations.
  for (int t = 0; t < 11; ++t) {
    std::vector<ModelUpdate> batch;
    for (int k = 0; k < 40; ++k) {
      batch.push_back(UpdateFor(k % config.num_nodes,
                                {10.0 + k * 30.0, 10.0 + t * 100.0},
                                {1.0, 0.0}, t));
    }
    server->Receive(std::move(batch));
    ASSERT_TRUE(server->Tick(1.0).ok());
  }
  ASSERT_EQ(server->plan_builds(), 2);

  // Queue instruments track the real queue.
  const telemetry::MetricRegistry& metrics = sink.metrics();
  EXPECT_EQ(metrics.FindCounter("lira.queue.arrivals")->value(),
            server->queue().total_arrivals());
  EXPECT_EQ(metrics.FindCounter("lira.queue.dropped")->value(),
            server->queue().total_dropped());
  EXPECT_GT(metrics.FindCounter("lira.queue.dropped")->value(), 0);
  EXPECT_DOUBLE_EQ(metrics.FindGauge("lira.queue.high_watermark")->value(),
                   static_cast<double>(server->queue().high_watermark()));

  // THROTLOOP trajectory: z dropped below 1 and each change was recorded
  // with the measured lambda.
  const auto z_changes = events.Select(EventKind::kZChanged);
  ASSERT_FALSE(z_changes.empty());
  EXPECT_GT(z_changes[0].value, 0.0);
  EXPECT_LT(z_changes[0].value, 1.0);
  EXPECT_NEAR(z_changes[0].extra, 40.0, 1.0);  // lambda ~ 40 upd/s
  EXPECT_DOUBLE_EQ(metrics.FindGauge("lira.throtloop.z")->value(),
                   server->z());
  // The second window saw 5 ticks x 40 arrivals over its 5 s.
  EXPECT_DOUBLE_EQ(metrics.FindGauge("lira.throtloop.lambda")->value(), 40.0);

  // Overload produced queue-overflow events with plausible depths.
  const auto overflows = events.Select(EventKind::kQueueOverflow);
  ASSERT_FALSE(overflows.empty());
  EXPECT_GT(overflows[0].value, 0.0);
  EXPECT_LE(overflows[0].extra,
            static_cast<double>(config.queue_capacity));

  // One plan-rebuilt event per adaptation, carrying the region count.
  const auto rebuilds = events.Select(EventKind::kPlanRebuilt);
  ASSERT_EQ(rebuilds.size(), 2u);
  EXPECT_DOUBLE_EQ(rebuilds[1].value,
                   static_cast<double>(server->plan().NumRegions()));
  EXPECT_GE(rebuilds[1].extra, 0.0);  // build seconds

  // Per-stage spans fired per adaptation and sum to less than the total.
  for (const char* span_name :
       {"lira.adapt.total_seconds", "lira.adapt.stats_rebuild_seconds",
        "lira.adapt.plan_build_seconds", "lira.adapt.grid_reduce_seconds",
        "lira.adapt.greedy_increment_seconds"}) {
    const auto spans = events.Select(EventKind::kSpan, span_name);
    EXPECT_EQ(spans.size(), 2u) << span_name;
    EXPECT_EQ(metrics.FindHistogram(span_name)->count(), 2) << span_name;
  }
  EXPECT_LE(metrics.FindHistogram("lira.adapt.grid_reduce_seconds")->max() +
                metrics.FindHistogram("lira.adapt.greedy_increment_seconds")
                    ->max(),
            metrics.FindHistogram("lira.adapt.total_seconds")->max() * 2.0);
  // Each phase is timed once, under the names above only.
  for (const char* duplicate :
       {"lira.adapt.gridreduce_seconds", "lira.adapt.greedy_seconds"}) {
    EXPECT_EQ(metrics.FindHistogram(duplicate), nullptr) << duplicate;
    EXPECT_TRUE(events.Select(EventKind::kSpan, duplicate).empty())
        << duplicate;
  }

  // GRIDREDUCE drill-down accounting: 4 splits per build, each split event
  // carrying a finite gain.
  EXPECT_EQ(metrics.FindCounter("lira.gridreduce.drilldowns")->value(), 8);
  const auto splits = events.Select(EventKind::kRegionSplit);
  ASSERT_EQ(splits.size(), 8u);
  for (const auto& split : splits) {
    EXPECT_GE(split.value, 0.0);
  }
  EXPECT_DOUBLE_EQ(metrics.FindGauge("lira.plan.regions")->value(), 13.0);
}

TEST_F(CqServerTest, AdaptationLoopTelemetryIsPinned) {
  // Pins, bit for bit, every event the adaptation loop emits (in order) and
  // every flight sample, in both throttle modes. Span values and the plan
  // build's extra field are wall time, so they stay out of the hash.
  struct Outcome {
    uint64_t hash = 0;
    size_t events = 0;
    size_t samples = 0;
    int64_t builds = 0;
    size_t z_changes = 0;
    double z = 0.0;
  };
  const auto run = [&](bool auto_throttle) {
    using telemetry::EventKind;
    telemetry::MemoryEventSink events;
    telemetry::TelemetrySink sink(&events);
    telemetry::FlightRecorder recorder(64);
    auto config = BaseConfig();
    config.queue_capacity = 15;
    config.service_rate = 10.0;
    config.adaptation_period = 5.0;
    config.auto_throttle = auto_throttle;
    config.telemetry = &sink;
    config.flight_recorder = &recorder;
    LiraConfig lira_config;
    lira_config.l = 13;
    LiraPolicy lira_policy(lira_config);
    auto server =
        CqServer::Create(config, &lira_policy, &*reduction_, &queries_);
    EXPECT_TRUE(server.ok());
    Outcome out;
    if (!server.ok()) {
      return out;
    }
    // Overload for 11 s, then a light load.
    for (int t = 0; t < 25; ++t) {
      const int count = t <= 10 ? 40 : 4;
      std::vector<ModelUpdate> batch;
      for (int k = 0; k < count; ++k) {
        batch.push_back(UpdateFor(k % config.num_nodes,
                                  {10.0 + 30.0 * k, 10.0 + 100.0 * (t % 16)},
                                  {1.0, 0.0}, t));
      }
      server->Receive(std::move(batch));
      EXPECT_TRUE(server->Tick(1.0).ok());
    }
    Fnv1a h;
    for (const telemetry::Event& event : events.events()) {
      h.Add(telemetry::EventKindName(event.kind));
      h.Add(std::string_view(event.name));
      h.Add(event.time);
      if (event.kind != EventKind::kSpan) {
        h.Add(event.value);
      }
      if (event.kind != EventKind::kSpan &&
          event.kind != EventKind::kPlanRebuilt) {
        h.Add(event.extra);
      }
    }
    const std::vector<telemetry::FlightSample> samples = recorder.Snapshot();
    for (const telemetry::FlightSample& s : samples) {
      h.Add(s.tick);
      h.Add(s.time);
      h.Add(static_cast<int64_t>(s.shard));
      h.Add(s.queue_depth);
      h.Add(s.queue_dropped);
      h.Add(s.queue_arrivals);
      h.Add(s.z);
      h.Add(s.lambda);
      h.Add(s.utilization);
      h.Add(s.nodes);
      h.Add(static_cast<int64_t>(s.plan_regions));
      h.Add(s.plan_min_delta);
      h.Add(s.plan_max_delta);
    }
    out.hash = h.value();
    out.events = events.events().size();
    out.samples = samples.size();
    out.builds = server->plan_builds();
    out.z_changes = events.Select(EventKind::kZChanged).size();
    out.z = server->z();
    return out;
  };

  const Outcome throttled = run(/*auto_throttle=*/true);
  EXPECT_EQ(throttled.events, 121u);
  EXPECT_EQ(throttled.samples, 25u);
  EXPECT_EQ(throttled.builds, 5);
  EXPECT_EQ(throttled.z_changes, 5u);
  EXPECT_EQ(throttled.z, 0.24701646090534976);
  EXPECT_EQ(throttled.hash, 0x961d7b87947d31d9ULL);

  const Outcome fixed = run(/*auto_throttle=*/false);
  EXPECT_EQ(fixed.events, 101u);
  EXPECT_EQ(fixed.samples, 25u);
  EXPECT_EQ(fixed.builds, 5);
  EXPECT_EQ(fixed.z_changes, 0u);
  EXPECT_EQ(fixed.z, 0.5);
  EXPECT_EQ(fixed.hash, 0x801d9da75c3f5751ULL);
}

TEST_F(CqServerTest, NoTelemetryByDefault) {
  auto server = CqServer::Create(BaseConfig(), &uniform_policy_, &*reduction_,
                                 &queries_);
  ASSERT_TRUE(server.ok());
  server->Receive({UpdateFor(0, {10.0, 10.0}, {0.0, 0.0}, 0.0)});
  ASSERT_TRUE(server->Tick(1.0).ok());
  ASSERT_TRUE(server->Adapt().ok());  // runs clean with a null sink
}

TEST_F(CqServerTest, IncrementalStatisticsMatchRebuildBitwise) {
  // Two servers fed identical update streams across several adaptations:
  // the delta-maintained statistics grid must be bitwise equal to the
  // ClearNodes() + repopulate path, cell by cell.
  auto config = BaseConfig();
  config.num_nodes = 120;
  config.queue_capacity = 2000;
  config.service_rate = 10000.0;
  config.adaptation_period = 4.0;
  auto incremental =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  config.incremental_stats = false;
  auto rebuild =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(incremental.ok() && rebuild.ok());
  Rng rng(99);
  for (int t = 0; t < 20; ++t) {
    std::vector<ModelUpdate> batch;
    for (NodeId id = 0; id < config.num_nodes; ++id) {
      // Most nodes drift; some go silent each tick (stale predictions) and
      // some jump across the world (cell changes).
      if (rng.Uniform(0.0, 1.0) < 0.2) continue;
      const Point p{rng.Uniform(-40.0, 1640.0), rng.Uniform(-40.0, 1640.0)};
      const Vec2 v{rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)};
      batch.push_back(UpdateFor(id, p, v, t));
    }
    incremental->Receive(batch);
    rebuild->Receive(std::move(batch));
    ASSERT_TRUE(incremental->Tick(1.0).ok());
    ASSERT_TRUE(rebuild->Tick(1.0).ok());
    const StatisticsGrid& a = incremental->stats();
    const StatisticsGrid& b = rebuild->stats();
    ASSERT_EQ(a.TotalNodes(), b.TotalNodes()) << "t=" << t;
    for (int32_t iy = 0; iy < config.alpha; ++iy) {
      for (int32_t ix = 0; ix < config.alpha; ++ix) {
        ASSERT_EQ(a.NodeCount(ix, iy), b.NodeCount(ix, iy))
            << "t=" << t << " cell (" << ix << ", " << iy << ")";
        ASSERT_EQ(a.MeanSpeed(ix, iy), b.MeanSpeed(ix, iy))
            << "t=" << t << " cell (" << ix << ", " << iy << ")";
      }
    }
    ASSERT_EQ(incremental->plan().MaxDelta(), rebuild->plan().MaxDelta())
        << "t=" << t;
  }
  EXPECT_GT(incremental->plan_builds(), 2);
}

TEST_F(CqServerTest, SampledStatisticsApproximateTotals) {
  auto config = BaseConfig();
  config.num_nodes = 400;
  config.queue_capacity = 1000;  // admit the whole batch
  config.stats_sample_fraction = 0.25;
  auto server =
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
  ASSERT_TRUE(server.ok());
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 400; ++id) {
    batch.push_back(UpdateFor(id, {10.0 + (id % 20) * 70.0,
                                   10.0 + (id / 20) * 70.0},
                              {1.0, 1.0}, 0.0));
  }
  server->Receive(std::move(batch));
  ASSERT_TRUE(server->Tick(1.0).ok());
  ASSERT_TRUE(server->Adapt().ok());
  // Unbiased: expected total 400, sampling noise ~ sqrt(100)*4 = 40.
  EXPECT_NEAR(server->stats().TotalNodes(), 400.0, 120.0);
  EXPECT_GT(server->stats().TotalNodes(), 100.0);

  config.stats_sample_fraction = 0.0;
  EXPECT_FALSE(
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_)
          .ok());
  config.stats_sample_fraction = 1.5;
  EXPECT_FALSE(
      CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_)
          .ok());
}

}  // namespace
}  // namespace lira
