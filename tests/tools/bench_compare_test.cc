#include "tools/bench_compare_lib.h"

#include <string>

#include <gtest/gtest.h>

namespace lira::benchgate {
namespace {

TEST(FlattenJsonTest, NestedObjectsAndArrays) {
  const FlatBench flat = FlattenJson(
      R"({"name":"bench_x","git":"abc123-dirty",
          "config":{"nodes":100,"threads":0},
          "metrics":{"a.b":1.5,"rows":[{"v":2},{"v":3}]},
          "flags":{"on":true,"off":false,"nothing":null}})");
  ASSERT_TRUE(flat.ok) << flat.error;
  EXPECT_EQ(flat.strings.at("name"), "bench_x");
  EXPECT_EQ(flat.strings.at("git"), "abc123-dirty");
  EXPECT_DOUBLE_EQ(flat.numbers.at("config.nodes"), 100.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("metrics.a.b"), 1.5);
  EXPECT_DOUBLE_EQ(flat.numbers.at("metrics.rows.0.v"), 2.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("metrics.rows.1.v"), 3.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("flags.on"), 1.0);
  EXPECT_DOUBLE_EQ(flat.numbers.at("flags.off"), 0.0);
  EXPECT_EQ(flat.numbers.count("flags.nothing"), 0u);
}

TEST(FlattenJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(FlattenJson("").ok);
  EXPECT_FALSE(FlattenJson("{\"a\":").ok);
  EXPECT_FALSE(FlattenJson("{\"a\":1} trailing").ok);
  EXPECT_FALSE(FlattenJson("{\"a\" 1}").ok);
  EXPECT_FALSE(FlattenJson("{\"unterminated).ok").ok);
}

TEST(HigherIsBetterTest, ThroughputStyleNames) {
  EXPECT_TRUE(HigherIsBetter("shards4.ingest_updates_per_second"));
  EXPECT_TRUE(HigherIsBetter("metrics.throughput"));
  EXPECT_TRUE(HigherIsBetter("speedup_vs_serial"));
  EXPECT_FALSE(HigherIsBetter("metrics.BM_PlanDeltaAt"));
  EXPECT_FALSE(HigherIsBetter("adapt_seconds_mean"));
  EXPECT_FALSE(HigherIsBetter("position_error"));
}

TEST(HigherIsBetterTest, MatchesWholeNameTokensOnly) {
  // Names the baselines use for throughput stay higher-is-better.
  EXPECT_TRUE(HigherIsBetter("metrics.frames_per_second"));
  EXPECT_TRUE(HigherIsBetter("metrics.shards4.ingest_updates_per_second"));
  EXPECT_TRUE(HigherIsBetter("metrics.throughput_ratio"));
  EXPECT_TRUE(HigherIsBetter("metrics.speedup"));
  EXPECT_TRUE(HigherIsBetter("metrics.update_rate"));
  EXPECT_TRUE(HigherIsBetter("metrics.merge_ops"));
  // A token that merely contains "rate", "ops" or "second" does not count.
  EXPECT_FALSE(HigherIsBetter("static.nodes_migrated"));
  EXPECT_FALSE(HigherIsBetter("metrics.rebalanced.nodes_migrated"));
  EXPECT_FALSE(HigherIsBetter("BM_CalibrateReduction"));
  EXPECT_FALSE(HigherIsBetter("metrics.stops"));
  EXPECT_FALSE(HigherIsBetter("metrics.seconds_per_frame"));
  EXPECT_FALSE(HigherIsBetter("metrics.per_round_seconds"));
}

FlatBench Bench(std::map<std::string, double> numbers) {
  FlatBench out;
  out.numbers = std::move(numbers);
  out.ok = true;
  return out;
}

TEST(CompareTest, LowerBetterRegressionAndImprovement) {
  const FlatBench baseline = Bench({{"metrics.latency_ns", 100.0}});
  CompareOptions options;
  options.tolerance = 1.10;
  // 25% slower: regression.
  CompareResult worse = Compare(Bench({{"metrics.latency_ns", 125.0}}),
                                baseline, options);
  EXPECT_EQ(worse.regressions, 1);
  ASSERT_EQ(worse.diffs.size(), 1u);
  EXPECT_EQ(worse.diffs[0].verdict, Verdict::kRegressed);
  EXPECT_DOUBLE_EQ(worse.diffs[0].ratio, 1.25);
  // 5% slower: within tolerance.
  EXPECT_EQ(Compare(Bench({{"metrics.latency_ns", 105.0}}), baseline, options)
                .regressions,
            0);
  // 25% faster: improvement.
  const CompareResult better =
      Compare(Bench({{"metrics.latency_ns", 75.0}}), baseline, options);
  EXPECT_EQ(better.regressions, 0);
  EXPECT_EQ(better.improvements, 1);
}

TEST(CompareTest, HigherBetterDirectionFlips) {
  const FlatBench baseline = Bench({{"updates_per_second", 1000.0}});
  CompareOptions options;
  options.tolerance = 1.10;
  // Throughput fell 20%: regression.
  EXPECT_EQ(Compare(Bench({{"updates_per_second", 800.0}}), baseline, options)
                .regressions,
            1);
  // Throughput rose 20%: improvement, not regression.
  const CompareResult faster =
      Compare(Bench({{"updates_per_second", 1200.0}}), baseline, options);
  EXPECT_EQ(faster.regressions, 0);
  EXPECT_EQ(faster.improvements, 1);
}

TEST(CompareTest, MigrationCountRiseIsARegression) {
  // "migrated" contains "rate" but is no rate: five times the migrations
  // is worse, and fails at the CI tolerance.
  const FlatBench baseline = Bench({{"static.nodes_migrated", 100.0}});
  CompareOptions options;
  options.tolerance = 4.0;
  const CompareResult result =
      Compare(Bench({{"static.nodes_migrated", 500.0}}), baseline, options);
  EXPECT_EQ(result.regressions, 1);
  ASSERT_EQ(result.diffs.size(), 1u);
  EXPECT_FALSE(result.diffs[0].higher_is_better);
  EXPECT_EQ(result.diffs[0].verdict, Verdict::kRegressed);
}

TEST(CompareTest, PerMetricToleranceOverride) {
  const FlatBench baseline = Bench({{"metrics.noisy_ns", 100.0}});
  CompareOptions options;
  options.tolerance = 1.10;
  options.metric_tolerance["metrics.noisy_ns"] = 2.0;
  // 50% worse, but this metric is allowed 2x.
  EXPECT_EQ(Compare(Bench({{"metrics.noisy_ns", 150.0}}), baseline, options)
                .regressions,
            0);
  EXPECT_EQ(Compare(Bench({{"metrics.noisy_ns", 250.0}}), baseline, options)
                .regressions,
            1);
}

TEST(CompareTest, NearZeroBaselineIsNotARatio) {
  CompareOptions options;
  // 0 -> 1e-9 noise is stable; 0 -> 2.0 on a lower-better metric regresses.
  const FlatBench baseline = Bench({{"metrics.error", 0.0}});
  EXPECT_EQ(Compare(Bench({{"metrics.error", 1e-9}}), baseline, options)
                .regressions,
            0);
  EXPECT_EQ(Compare(Bench({{"metrics.error", 2.0}}), baseline, options)
                .regressions,
            1);
}

TEST(CompareTest, SchemaDriftIsReportedNotFatal) {
  const CompareResult result =
      Compare(Bench({{"metrics.new_metric", 1.0}}),
              Bench({{"metrics.old_metric", 1.0}}));
  EXPECT_EQ(result.regressions, 0);
  EXPECT_EQ(result.missing, 2);
  ASSERT_EQ(result.diffs.size(), 2u);
  EXPECT_EQ(result.diffs[0].verdict, Verdict::kOnlyInBaseline);
  EXPECT_EQ(result.diffs[1].verdict, Verdict::kOnlyInCurrent);
}

TEST(CompareTest, IdenticalFilesAreAllStable) {
  const FlatBench bench = Bench(
      {{"metrics.a", 1.0}, {"metrics.b", 2.0}, {"config.nodes", 100.0}});
  const CompareResult result = Compare(bench, bench);
  EXPECT_EQ(result.regressions, 0);
  EXPECT_EQ(result.improvements, 0);
  EXPECT_EQ(result.stable, 3);
  EXPECT_EQ(result.missing, 0);
}

}  // namespace
}  // namespace lira::benchgate
