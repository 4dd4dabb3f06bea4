#include "lira/motion/dead_reckoning.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/kernels.h"
#include "lira/common/parallel.h"
#include "lira/common/rng.h"
#include "lira/motion/linear_model.h"

namespace lira {
namespace {

PositionSample MakeSample(NodeId id, double t, Point p, Vec2 v) {
  PositionSample s;
  s.node_id = id;
  s.time = t;
  s.position = p;
  s.velocity = v;
  return s;
}

TEST(LinearMotionModelTest, PredictsLinearly) {
  const LinearMotionModel model{{10.0, 20.0}, {2.0, -1.0}, 5.0};
  EXPECT_EQ(model.PredictAt(5.0), (Point{10.0, 20.0}));
  EXPECT_EQ(model.PredictAt(8.0), (Point{16.0, 17.0}));
  EXPECT_EQ(model.PredictAt(4.0), (Point{8.0, 21.0}));  // backwards too
}

TEST(LinearMotionModelTest, FromSample) {
  const auto model = LinearMotionModel::FromSample(
      MakeSample(3, 7.0, {1.0, 2.0}, {0.5, 0.5}));
  EXPECT_EQ(model.origin, (Point{1.0, 2.0}));
  EXPECT_EQ(model.velocity, (Vec2{0.5, 0.5}));
  EXPECT_DOUBLE_EQ(model.t0, 7.0);
}

TEST(DeadReckoningEncoderTest, FirstObservationAlwaysEmits) {
  DeadReckoningEncoder encoder(2);
  auto update = encoder.Observe(MakeSample(0, 0.0, {0.0, 0.0}, {1.0, 0.0}),
                                /*delta=*/10.0);
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(update->node_id, 0);
  EXPECT_EQ(encoder.updates_emitted(), 1);
}

TEST(DeadReckoningEncoderTest, PerfectlyLinearMotionNeverReEmits) {
  DeadReckoningEncoder encoder(1);
  encoder.Observe(MakeSample(0, 0.0, {0.0, 0.0}, {2.0, 1.0}), 5.0);
  for (int t = 1; t <= 100; ++t) {
    auto update = encoder.Observe(
        MakeSample(0, t, {2.0 * t, 1.0 * t}, {2.0, 1.0}), 5.0);
    EXPECT_FALSE(update.has_value()) << "at t=" << t;
  }
  EXPECT_EQ(encoder.updates_emitted(), 1);
}

TEST(DeadReckoningEncoderTest, EmitsWhenDeviationExceedsDelta) {
  DeadReckoningEncoder encoder(1);
  encoder.Observe(MakeSample(0, 0.0, {0.0, 0.0}, {1.0, 0.0}), 5.0);
  // Node actually stands still: predicted drifts away at 1 m/s.
  EXPECT_FALSE(
      encoder.Observe(MakeSample(0, 4.0, {0.0, 0.0}, {1.0, 0.0})
                      , 5.0).has_value());
  EXPECT_FALSE(
      encoder.Observe(MakeSample(0, 5.0, {0.0, 0.0}, {1.0, 0.0}), 5.0)
          .has_value());  // deviation == delta, not > delta
  auto update =
      encoder.Observe(MakeSample(0, 5.5, {0.0, 0.0}, {1.0, 0.0}), 5.0);
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(update->model.origin, (Point{0.0, 0.0}));
  EXPECT_DOUBLE_EQ(update->model.t0, 5.5);
}

TEST(DeadReckoningEncoderTest, SmallerDeltaMeansMoreUpdates) {
  // Sinusoidal wobble around linear motion.
  auto run = [](double delta) {
    DeadReckoningEncoder encoder(1);
    for (int t = 0; t <= 500; ++t) {
      const double wobble = 8.0 * std::sin(t * 0.15);
      encoder.Observe(
          MakeSample(0, t, {10.0 * t + wobble, wobble}, {10.0, 0.0}), delta);
    }
    return encoder.updates_emitted();
  };
  const int64_t at_2 = run(2.0);
  const int64_t at_6 = run(6.0);
  const int64_t at_20 = run(20.0);
  EXPECT_GT(at_2, at_6);
  EXPECT_GT(at_6, at_20);
  EXPECT_EQ(run(1e9), 1);  // only the initial report
}

TEST(DeadReckoningEncoderTest, ModelOfTracksLastSent) {
  DeadReckoningEncoder encoder(2);
  EXPECT_FALSE(encoder.ModelOf(0).has_value());
  encoder.Observe(MakeSample(0, 0.0, {1.0, 1.0}, {0.0, 0.0}), 5.0);
  auto model = encoder.ModelOf(0);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->origin, (Point{1.0, 1.0}));
  EXPECT_FALSE(encoder.ModelOf(1).has_value());
  EXPECT_FALSE(encoder.ModelOf(99).has_value());
}

TEST(DeadReckoningEncoderTest, PerNodeThresholdsAreIndependent) {
  DeadReckoningEncoder encoder(2);
  encoder.Observe(MakeSample(0, 0.0, {0.0, 0.0}, {0.0, 0.0}), 1.0);
  encoder.Observe(MakeSample(1, 0.0, {0.0, 0.0}, {0.0, 0.0}), 100.0);
  // Both nodes move 10 m: only node 0 (delta=1) re-reports.
  auto u0 = encoder.Observe(MakeSample(0, 1.0, {10.0, 0.0}, {0.0, 0.0}), 1.0);
  auto u1 =
      encoder.Observe(MakeSample(1, 1.0, {10.0, 0.0}, {0.0, 0.0}), 100.0);
  EXPECT_TRUE(u0.has_value());
  EXPECT_FALSE(u1.has_value());
}

void ExpectBitwiseEqual(const LinearMotionModel& a,
                        const LinearMotionModel& b) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a.origin.x),
            std::bit_cast<uint64_t>(b.origin.x));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.origin.y),
            std::bit_cast<uint64_t>(b.origin.y));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.velocity.x),
            std::bit_cast<uint64_t>(b.velocity.x));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.velocity.y),
            std::bit_cast<uint64_t>(b.velocity.y));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.t0), std::bit_cast<uint64_t>(b.t0));
}

TEST(DeadReckoningEncoderTest, ObserveSpanUniformMatchesScalarObserve) {
  constexpr double kDelta = 25.0;
  constexpr int32_t kNodes = 80;
  // The span covers ids [kBegin, kBegin + kLanes) of a larger encoder.
  constexpr NodeId kBegin = 8;
  constexpr int64_t kLanes = 64;
  // Lane i deviates from its current model by kOffsets[i % size] at every
  // frame. The exact-delta offsets keep the models on integer coordinates
  // (they never send), so their deviation stays exactly delta; the 1e-13
  // and 4e-13 offsets sit inside the kernel's 1e-12 relative band.
  const Vec2 kOffsets[] = {
      {0.0, 0.0},
      {12.5, 0.0},
      {kDelta, 0.0},
      {-15.0, 20.0},
      {kDelta * (1.0 - 4e-13), 0.0},
      {0.0, -kDelta * (1.0 + 4e-13)},
      {15.0 * (1.0 + 1e-13), 20.0 * (1.0 + 1e-13)},
      {-15.0 * (1.0 - 1e-13), -20.0 * (1.0 - 1e-13)},
      {40.0, -30.0},
  };
  constexpr int64_t kNumOffsets = sizeof(kOffsets) / sizeof(kOffsets[0]);
  DeadReckoningEncoder span_encoder(kNodes);
  DeadReckoningEncoder scalar_encoder(kNodes);
  // Every fourth id has no model when the spans start.
  for (NodeId id = 0; id < kNodes; ++id) {
    if (id % 4 != 0) {
      const PositionSample s =
          MakeSample(id, 0.0, {100.0 * id, 50.0}, {1.0 + id % 3, -2.0});
      span_encoder.Observe(s, kDelta);
      scalar_encoder.Observe(s, kDelta);
    }
  }
  std::vector<double> x(kLanes);
  std::vector<double> y(kLanes);
  std::vector<double> vx(kLanes);
  std::vector<double> vy(kLanes);
  std::vector<uint8_t> decision(kLanes);
  std::vector<ModelUpdate> span_out;
  int64_t ambiguous = 0;
  for (int frame = 1; frame <= 4; ++frame) {
    const double t = 2.0 * frame;
    for (int64_t i = 0; i < kLanes; ++i) {
      const NodeId id = kBegin + static_cast<NodeId>(i);
      const std::optional<LinearMotionModel> model =
          scalar_encoder.ModelOf(id);
      const Point base =
          model ? model->PredictAt(t) : Point{7.0 * id, 3.0 * id};
      const Vec2 offset = kOffsets[i % kNumOffsets];
      x[i] = base.x + offset.x;
      y[i] = base.y + offset.y;
      vx[i] = 0.5 * frame + static_cast<double>(i % 5);
      vy[i] = -1.0 + static_cast<double>(i % 2);
    }
    span_out.clear();
    span_encoder.ObserveSpanUniform(kBegin, kLanes, x.data(), y.data(),
                                    vx.data(), vy.data(), t, kDelta,
                                    decision.data(), &span_out);
    for (const uint8_t d : decision) {
      ambiguous += d == kernels::kDevAmbiguous ? 1 : 0;
    }
    std::vector<ModelUpdate> scalar_out;
    for (int64_t i = 0; i < kLanes; ++i) {
      const NodeId id = kBegin + static_cast<NodeId>(i);
      if (auto update = scalar_encoder.Observe(
              MakeSample(id, t, {x[i], y[i]}, {vx[i], vy[i]}), kDelta)) {
        scalar_out.push_back(*update);
      }
    }
    ASSERT_EQ(span_out.size(), scalar_out.size()) << "frame " << frame;
    for (size_t k = 0; k < span_out.size(); ++k) {
      EXPECT_EQ(span_out[k].node_id, scalar_out[k].node_id);
      ExpectBitwiseEqual(span_out[k].model, scalar_out[k].model);
    }
  }
  // The exact-delta and in-band lanes reached the scalar fallback.
  EXPECT_GT(ambiguous, 0);
  EXPECT_EQ(span_encoder.updates_emitted(),
            scalar_encoder.updates_emitted());
  for (NodeId id = 0; id < kNodes; ++id) {
    const auto span_model = span_encoder.ModelOf(id);
    const auto scalar_model = scalar_encoder.ModelOf(id);
    ASSERT_EQ(span_model.has_value(), scalar_model.has_value()) << id;
    if (span_model) {
      ExpectBitwiseEqual(*span_model, *scalar_model);
    }
  }
  // An exactly-delta deviation never sends: lane 2 kept its frame-0 model.
  const auto exact = span_encoder.ModelOf(kBegin + 2);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->t0, 0.0);
}

TEST(PositionTrackerTest, ApplyAndPredict) {
  PositionTracker tracker(3);
  EXPECT_FALSE(tracker.HasModel(0));
  EXPECT_FALSE(tracker.PredictAt(0, 1.0).has_value());
  ModelUpdate update;
  update.node_id = 0;
  update.model = {{0.0, 0.0}, {3.0, 4.0}, 10.0};
  tracker.Apply(update);
  EXPECT_TRUE(tracker.HasModel(0));
  const auto p = tracker.PredictAt(0, 12.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Point{6.0, 8.0}));
  EXPECT_DOUBLE_EQ(tracker.BelievedSpeed(0), 5.0);
  EXPECT_DOUBLE_EQ(tracker.BelievedSpeed(1), 0.0);
}

TEST(PositionTrackerTest, PredictSpanSkipsUnreported) {
  PositionTracker tracker(3);
  ModelUpdate update;
  update.node_id = 2;
  update.model = {{1.0, 1.0}, {0.0, 0.0}, 0.0};
  tracker.Apply(update);
  std::vector<double> x(3, -1.0);
  std::vector<double> y(3, -1.0);
  std::vector<uint8_t> known(3, 7);
  tracker.PredictSpan(0, 3, 5.0, /*fallback_x=*/nullptr,
                      /*fallback_y=*/nullptr, x.data(), y.data(),
                      known.data());
  EXPECT_EQ(known, (std::vector<uint8_t>{0, 0, 1}));
  EXPECT_EQ((Point{x[2], y[2]}), (Point{1.0, 1.0}));
}

ModelUpdate RandomUpdate(Rng& rng, NodeId id) {
  ModelUpdate update;
  update.node_id = id;
  update.model = {{rng.Uniform(0.0, 1e4), rng.Uniform(0.0, 1e4)},
                  {rng.Uniform(-20.0, 20.0), rng.Uniform(-20.0, 20.0)},
                  rng.Uniform(0.0, 77.0)};
  return update;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(PositionTrackerTest, PredictSpanMatchesPredictAtBitwise) {
  // A span that starts past id 0 over a store where every third node never
  // reported: each lane must carry the bits of LinearMotionModel::PredictAt
  // on the applied model (and of PositionTracker::PredictAt), or its
  // fallback when the node has no model.
  constexpr int32_t kNodes = 300;
  constexpr NodeId kBegin = 37;
  constexpr int64_t kLanes = 211;
  Rng rng(5);
  PositionTracker tracker(kNodes);
  std::vector<std::optional<LinearMotionModel>> applied(kNodes);
  for (NodeId id = 0; id < kNodes; ++id) {
    if (id % 3 != 0) {
      const ModelUpdate update = RandomUpdate(rng, id);
      tracker.Apply(update);
      applied[id] = update.model;
    }
  }
  const double t = 77.25;
  std::vector<double> fallback_x(kLanes);
  std::vector<double> fallback_y(kLanes);
  for (int64_t i = 0; i < kLanes; ++i) {
    fallback_x[i] = rng.Uniform(0.0, 1e4);
    fallback_y[i] = rng.Uniform(0.0, 1e4);
  }
  std::vector<double> x(kLanes);
  std::vector<double> y(kLanes);
  std::vector<uint8_t> known(kLanes, 7);
  tracker.PredictSpan(kBegin, kLanes, t, fallback_x.data(), fallback_y.data(),
                      x.data(), y.data(), known.data());
  std::vector<double> bare_x(kLanes);
  std::vector<double> bare_y(kLanes);
  tracker.PredictSpan(kBegin, kLanes, t, /*fallback_x=*/nullptr,
                      /*fallback_y=*/nullptr, bare_x.data(), bare_y.data(),
                      /*known=*/nullptr);
  int64_t model_less = 0;
  for (int64_t i = 0; i < kLanes; ++i) {
    const NodeId id = kBegin + static_cast<NodeId>(i);
    const std::optional<Point> believed = tracker.PredictAt(id, t);
    ASSERT_EQ(believed.has_value(), applied[id].has_value()) << id;
    ASSERT_EQ(known[i], believed.has_value() ? 1 : 0) << id;
    if (!applied[id].has_value()) {
      ++model_less;
      EXPECT_EQ(Bits(x[i]), Bits(fallback_x[i])) << id;
      EXPECT_EQ(Bits(y[i]), Bits(fallback_y[i])) << id;
      continue;
    }
    const Point want = applied[id]->PredictAt(t);
    EXPECT_EQ(Bits(believed->x), Bits(want.x)) << id;
    EXPECT_EQ(Bits(believed->y), Bits(want.y)) << id;
    EXPECT_EQ(Bits(x[i]), Bits(want.x)) << id;
    EXPECT_EQ(Bits(y[i]), Bits(want.y)) << id;
    EXPECT_EQ(Bits(bare_x[i]), Bits(want.x)) << id;
    EXPECT_EQ(Bits(bare_y[i]), Bits(want.y)) << id;
  }
  EXPECT_GT(model_less, 0);
}

TEST(PositionTrackerTest, ConcurrentApplyOnAdjacentIdsMatchesSerial) {
  // Seven workers apply reports over contiguous id chunks of 143 records
  // (6864 bytes, 16 past a multiple of 64) each, so the six chunk
  // boundaries step through every 16-byte offset within a cache line and
  // neighbouring workers write records that share a line. Every record
  // must end as a serial apply leaves it.
  constexpr int32_t kNodes = 1001;
  constexpr int kRounds = 6;
  Rng rng(11);
  // reports[round][id]: ids divisible by 9 never report, every other id
  // reports in round 0 and skips some later rounds.
  std::vector<std::vector<std::optional<ModelUpdate>>> reports(
      kRounds, std::vector<std::optional<ModelUpdate>>(kNodes));
  for (int round = 0; round < kRounds; ++round) {
    for (NodeId id = 0; id < kNodes; ++id) {
      if (id % 9 != 0 && (round == 0 || rng.Uniform01() < 0.8)) {
        reports[round][id] = RandomUpdate(rng, id);
      }
    }
  }
  PositionTracker serial(kNodes);
  PositionTracker pooled(kNodes);
  ThreadPool pool(7);
  for (const auto& round : reports) {
    for (const std::optional<ModelUpdate>& report : round) {
      if (report.has_value()) {
        serial.Apply(*report);
      }
    }
    pool.ParallelFor(0, kNodes, /*grain=*/1,
                     [&](int32_t /*chunk*/, int64_t begin, int64_t end) {
                       for (int64_t id = begin; id < end; ++id) {
                         if (round[id].has_value()) {
                           pooled.Apply(*round[id]);
                         }
                       }
                     });
  }
  for (NodeId id = 0; id < kNodes; ++id) {
    const ModelRecord& a = pooled.records()[id];
    const ModelRecord& b = serial.records()[id];
    ASSERT_EQ(a.has, b.has) << id;
    EXPECT_EQ(a.has, id % 9 != 0 ? 1 : 0) << id;
    EXPECT_EQ(Bits(a.origin_x), Bits(b.origin_x)) << id;
    EXPECT_EQ(Bits(a.origin_y), Bits(b.origin_y)) << id;
    EXPECT_EQ(Bits(a.vel_x), Bits(b.vel_x)) << id;
    EXPECT_EQ(Bits(a.vel_y), Bits(b.vel_y)) << id;
    EXPECT_EQ(Bits(a.t0), Bits(b.t0)) << id;
  }
}

TEST(EncoderTrackerLoopTest, ServerErrorBoundedByDeltaWithoutDrops) {
  // If every emitted update reaches the tracker, the believed position at
  // each observation time deviates from truth by at most delta.
  const double delta = 7.0;
  DeadReckoningEncoder encoder(1);
  PositionTracker tracker(1);
  for (int t = 0; t <= 400; ++t) {
    const Point truth{5.0 * t + 6.0 * std::sin(t * 0.2),
                      3.0 * std::cos(t * 0.1)};
    const PositionSample s = MakeSample(0, t, truth, {5.0, 0.0});
    auto update = encoder.Observe(s, delta);
    if (update.has_value()) {
      tracker.Apply(*update);
    }
    const auto believed = tracker.PredictAt(0, t);
    ASSERT_TRUE(believed.has_value());
    EXPECT_LE(Distance(*believed, truth), delta + 1e-9) << "t=" << t;
  }
}

}  // namespace
}  // namespace lira
