#include "lira/motion/update_reduction.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lira/mobility/traffic_model.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/roadnet/map_generator.h"

namespace lira {
namespace {

TEST(PiecewiseLinearReductionTest, FromKnotsNormalizesAndInterpolates) {
  auto f = PiecewiseLinearReduction::FromKnots(5.0, 25.0,
                                               {2.0, 1.0, 0.5, 0.25, 0.125});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kappa(), 4);
  EXPECT_DOUBLE_EQ(f->segment_width(), 5.0);
  EXPECT_DOUBLE_EQ(f->Eval(5.0), 1.0);      // normalized to first knot
  EXPECT_DOUBLE_EQ(f->Eval(10.0), 0.5);
  EXPECT_DOUBLE_EQ(f->Eval(7.5), 0.75);     // interpolation
  EXPECT_DOUBLE_EQ(f->Eval(25.0), 0.0625);
}

TEST(PiecewiseLinearReductionTest, ClampsOutsideDomain) {
  auto f = PiecewiseLinearReduction::FromKnots(5.0, 15.0, {1.0, 0.5, 0.25});
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->Eval(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f->Eval(100.0), 0.25);
}

TEST(PiecewiseLinearReductionTest, EnforcesMonotoneNonIncrease) {
  auto f =
      PiecewiseLinearReduction::FromKnots(1.0, 4.0, {1.0, 0.6, 0.8, 0.5});
  ASSERT_TRUE(f.ok());
  // The wiggle at knot 2 is clamped down to 0.6.
  EXPECT_DOUBLE_EQ(f->Eval(3.0), 0.6);
  for (double d = 1.0; d < 4.0; d += 0.1) {
    EXPECT_GE(f->Eval(d), f->Eval(d + 0.1) - 1e-12);
  }
}

TEST(PiecewiseLinearReductionTest, RateIsRightSegmentSlope) {
  auto f = PiecewiseLinearReduction::FromKnots(5.0, 15.0, {1.0, 0.4, 0.4});
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->Rate(5.0), 0.12);   // (1.0-0.4)/5
  EXPECT_DOUBLE_EQ(f->Rate(7.0), 0.12);
  EXPECT_DOUBLE_EQ(f->Rate(10.0), 0.0);   // flat second segment
  EXPECT_DOUBLE_EQ(f->Rate(15.0), 0.0);
}

TEST(PiecewiseLinearReductionTest, InverseEvalFindsSmallestDelta) {
  auto f = PiecewiseLinearReduction::FromKnots(5.0, 25.0,
                                               {1.0, 0.5, 0.25, 0.2, 0.1});
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->InverseEval(1.0), 5.0);
  EXPECT_DOUBLE_EQ(f->InverseEval(2.0), 5.0);    // target above f(delta_min)
  EXPECT_DOUBLE_EQ(f->InverseEval(0.5), 10.0);
  EXPECT_NEAR(f->InverseEval(0.75), 7.5, 1e-9);
  EXPECT_DOUBLE_EQ(f->InverseEval(0.05), 25.0);  // unreachable -> delta_max
  // Round-trip property: f(f^-1(y)) <= y for reachable y.
  for (double y : {0.9, 0.7, 0.45, 0.22, 0.15, 0.1}) {
    EXPECT_LE(f->Eval(f->InverseEval(y)), y + 1e-9);
  }
}

TEST(PiecewiseLinearReductionTest, RejectsBadInputs) {
  EXPECT_FALSE(PiecewiseLinearReduction::FromKnots(5.0, 5.0, {1.0, 0.5}).ok());
  EXPECT_FALSE(PiecewiseLinearReduction::FromKnots(0.0, 10.0, {1.0, 0.5}).ok());
  EXPECT_FALSE(PiecewiseLinearReduction::FromKnots(5.0, 10.0, {1.0}).ok());
  EXPECT_FALSE(
      PiecewiseLinearReduction::FromKnots(5.0, 10.0, {0.0, 0.0}).ok());
}

TEST(PiecewiseLinearReductionTest, SampleFunctionMatchesSource) {
  auto analytic = AnalyticReduction::Create(5.0, 100.0);
  ASSERT_TRUE(analytic.ok());
  auto pwl = PiecewiseLinearReduction::SampleFunction(
      5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
  ASSERT_TRUE(pwl.ok());
  for (double d = 5.0; d <= 100.0; d += 2.5) {
    EXPECT_NEAR(pwl->Eval(d), analytic->Eval(d), 0.01) << "delta=" << d;
  }
}

TEST(AnalyticReductionTest, ShapeMatchesFigure1) {
  auto f = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->Eval(5.0), 1.0);
  EXPECT_LT(f->Eval(100.0), 0.05);
  // Convex early drop: the first 15 m cut more than the next 80 m.
  EXPECT_GT(f->Eval(5.0) - f->Eval(20.0), f->Eval(20.0) - f->Eval(100.0));
  // Non-increasing everywhere.
  for (double d = 5.0; d < 100.0; d += 1.0) {
    EXPECT_GE(f->Eval(d), f->Eval(d + 1.0));
  }
}

TEST(AnalyticReductionTest, RateMatchesNumericalDerivative) {
  auto f = AnalyticReduction::Create(5.0, 100.0, 0.6, 1.2);
  ASSERT_TRUE(f.ok());
  for (double d : {6.0, 10.0, 30.0, 70.0, 95.0}) {
    const double h = 1e-5;
    const double numeric = (f->Eval(d - h) - f->Eval(d + h)) / (2 * h);
    EXPECT_NEAR(f->Rate(d), numeric, 1e-5) << "delta=" << d;
  }
}

TEST(AnalyticReductionTest, InverseEvalRoundTrip) {
  auto f = AnalyticReduction::Create(5.0, 100.0);
  ASSERT_TRUE(f.ok());
  for (double z : {0.9, 0.5, 0.25, 0.1}) {
    const double d = f->InverseEval(z);
    EXPECT_NEAR(f->Eval(d), z, 1e-6);
  }
  EXPECT_DOUBLE_EQ(f->InverseEval(1.5), 5.0);
  EXPECT_DOUBLE_EQ(f->InverseEval(0.0), 100.0);
}

TEST(AnalyticReductionTest, RejectsBadParameters) {
  EXPECT_FALSE(AnalyticReduction::Create(0.0, 100.0).ok());
  EXPECT_FALSE(AnalyticReduction::Create(10.0, 5.0).ok());
  EXPECT_FALSE(AnalyticReduction::Create(5.0, 100.0, 1.5).ok());
  EXPECT_FALSE(AnalyticReduction::Create(5.0, 100.0, 0.5, 0.0).ok());
}

/// Records `num_vehicles` random-walk vehicles for `num_frames` 1 s frames
/// on a small two-town map.
StatusOr<Trace> RecordFixtureTrace(int32_t num_vehicles, int32_t num_frames) {
  MapGeneratorConfig map_config;
  map_config.world_side = 6000.0;
  map_config.arterial_cells = 4;
  map_config.num_towns = 2;
  auto map = GenerateMap(map_config);
  if (!map.ok()) {
    return map.status();
  }
  TrafficModelConfig traffic;
  traffic.num_vehicles = num_vehicles;
  auto model = TrafficModel::Create(map->network, traffic);
  if (!model.ok()) {
    return model.status();
  }
  return Trace::Record(*model, num_frames, 1.0);
}

/// The per-node loop the counting pass replaced, kept as its oracle: one
/// scalar Observe per node and frame at one threshold; frame 0 initializes
/// every node's model and is not counted.
int64_t OracleUpdateCount(const Trace& trace, double delta) {
  DeadReckoningEncoder encoder(trace.num_nodes());
  for (NodeId id = 0; id < trace.num_nodes(); ++id) {
    encoder.Observe(trace.Sample(0, id), delta);
  }
  const int64_t initial = encoder.updates_emitted();
  for (int32_t f = 1; f < trace.num_frames(); ++f) {
    for (NodeId id = 0; id < trace.num_nodes(); ++id) {
      encoder.Observe(trace.Sample(f, id), delta);
    }
  }
  return encoder.updates_emitted() - initial;
}

/// MeasureReductionProbes and MeasureUpdateRate must equal the oracle
/// exactly.
void ExpectCountsMatchOracle(const Trace& trace) {
  const CalibrationConfig config;
  const double ratio = config.delta_max / config.delta_min;
  std::vector<double> deltas;
  std::vector<int64_t> counts;
  for (int32_t p = 0; p < config.num_probes; ++p) {
    deltas.push_back(
        config.delta_min *
        std::pow(ratio, static_cast<double>(p) / (config.num_probes - 1)));
    counts.push_back(OracleUpdateCount(trace, deltas.back()));
  }
  ASSERT_GT(counts[0], 0);
  const double seconds = (trace.num_frames() - 1) * trace.dt();
  auto probes = MeasureReductionProbes(trace, config);
  ASSERT_TRUE(probes.ok());
  ASSERT_EQ(probes->size(), deltas.size());
  for (size_t p = 0; p < deltas.size(); ++p) {
    EXPECT_EQ((*probes)[p].first, deltas[p]) << "probe " << p;
    EXPECT_EQ((*probes)[p].second, static_cast<double>(counts[p]) /
                                       static_cast<double>(counts[0]))
        << "probe " << p;
  }
  for (const size_t p : {size_t{0}, deltas.size() / 2, deltas.size() - 1}) {
    auto rate = MeasureUpdateRate(trace, deltas[p]);
    ASSERT_TRUE(rate.ok());
    EXPECT_EQ(*rate, static_cast<double>(counts[p]) / seconds)
        << "delta " << deltas[p];
  }
}

class CalibrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto trace = RecordFixtureTrace(400, 240);
    ASSERT_TRUE(trace.ok());
    trace_.emplace(*std::move(trace));
  }

  std::optional<Trace> trace_;
};

TEST_F(CalibrationTest, ProbesAreNormalizedAndDecreasing) {
  CalibrationConfig config;
  config.num_probes = 8;
  auto probes = MeasureReductionProbes(*trace_, config);
  ASSERT_TRUE(probes.ok());
  ASSERT_EQ(probes->size(), 8u);
  EXPECT_DOUBLE_EQ(probes->front().second, 1.0);
  EXPECT_DOUBLE_EQ(probes->front().first, 5.0);
  EXPECT_NEAR(probes->back().first, 100.0, 1e-9);
  // The measured curve decreases substantially across the domain.
  EXPECT_LT(probes->back().second, 0.5);
  for (size_t i = 1; i < probes->size(); ++i) {
    EXPECT_LE((*probes)[i].second, (*probes)[i - 1].second + 0.05);
  }
}

TEST_F(CalibrationTest, CalibratedPwlIsValidReductionFunction) {
  CalibrationConfig config;
  auto f = CalibrateReduction(*trace_, config);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kappa(), 95);
  EXPECT_DOUBLE_EQ(f->Eval(5.0), 1.0);
  for (double d = 5.0; d < 100.0; d += 1.0) {
    EXPECT_GE(f->Eval(d), f->Eval(d + 1.0) - 1e-12);
    EXPECT_GE(f->Rate(d), 0.0);
  }
}

TEST_F(CalibrationTest, MeasureUpdateRatePositiveAndDecreasing) {
  auto rate_min = MeasureUpdateRate(*trace_, 5.0);
  auto rate_max = MeasureUpdateRate(*trace_, 100.0);
  ASSERT_TRUE(rate_min.ok());
  ASSERT_TRUE(rate_max.ok());
  EXPECT_GT(*rate_min, 0.0);
  EXPECT_LT(*rate_max, *rate_min);
}

TEST_F(CalibrationTest, RejectsBadConfigs) {
  CalibrationConfig config;
  config.num_probes = 1;
  EXPECT_FALSE(MeasureReductionProbes(*trace_, config).ok());
  config = CalibrationConfig{};
  config.kappa = 0;
  EXPECT_FALSE(CalibrateReduction(*trace_, config).ok());
  config = CalibrationConfig{};
  config.delta_min = -1.0;
  EXPECT_FALSE(MeasureReductionProbes(*trace_, config).ok());
  EXPECT_FALSE(MeasureUpdateRate(*trace_, 0.0).ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(MeasureUpdateRate(*trace_, nan).ok());
  EXPECT_FALSE(MeasureUpdateRate(*trace_, inf).ok());
  EXPECT_FALSE(MeasureUpdateRate(*trace_, -inf).ok());
  const std::pair<double, double> bad_domains[] = {
      {5.0, inf}, {nan, 100.0}, {5.0, nan}, {-inf, 100.0}, {100.0, 5.0}};
  for (const auto& [delta_min, delta_max] : bad_domains) {
    config = CalibrationConfig{};
    config.delta_min = delta_min;
    config.delta_max = delta_max;
    EXPECT_FALSE(MeasureReductionProbes(*trace_, config).ok())
        << delta_min << ", " << delta_max;
    EXPECT_FALSE(CalibrateReduction(*trace_, config).ok())
        << delta_min << ", " << delta_max;
  }
}

TEST_F(CalibrationTest, CountsMatchScalarOracleWithinOneBlock) {
  ExpectCountsMatchOracle(*trace_);
}

TEST(CalibrationOracleTest, CountsMatchScalarOracleAcrossBlocks) {
  // More than two 2048-node blocks of the counting pass, ending in a
  // partial one.
  auto trace = RecordFixtureTrace(4500, 40);
  ASSERT_TRUE(trace.ok());
  ExpectCountsMatchOracle(*trace);
}

TEST(CalibrationOracleTest, RejectsBadInputBeforeReadingTheTrace) {
  // A one-frame trace fails the counting pass with FAILED_PRECONDITION;
  // a bad input must be reported as INVALID_ARGUMENT before that.
  auto trace = Trace::FromFlatStates(1, 1, 1.0, {0.0f, 0.0f, 1.0f, 0.0f});
  ASSERT_TRUE(trace.ok());
  CalibrationConfig config;
  EXPECT_EQ(CalibrateReduction(*trace, config).status().code(),
            StatusCode::kFailedPrecondition);
  config.kappa = 0;
  EXPECT_EQ(CalibrateReduction(*trace, config).status().code(),
            StatusCode::kInvalidArgument);
  config = CalibrationConfig{};
  config.num_probes = 1;
  EXPECT_EQ(CalibrateReduction(*trace, config).status().code(),
            StatusCode::kInvalidArgument);
  config = CalibrationConfig{};
  config.delta_max = std::numeric_limits<double>::infinity();
  EXPECT_EQ(MeasureReductionProbes(*trace, config).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CalibrateReduction(*trace, config).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MeasureUpdateRate(*trace, std::nan("")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MeasureUpdateRate(*trace, 5.0).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace lira
