// Micro-benchmarks (google-benchmark) of the hot paths: GREEDYINCREMENT,
// GRIDREDUCE (incl. quad-tree build), statistics-grid maintenance, grid-
// index updates/queries, dead-reckoning encoding, f(delta) calibration,
// trace recording, the parallel-for dispatch, and the telemetry
// instruments. These back the "lightweight by design" claim with
// per-operation numbers.
//
// Besides the console table, the run writes BENCH_micro.json in the shared
// bench_compare schema (metrics = name -> median real nanoseconds; the
// plain per-run time when --benchmark_repetitions is not set) so CI can
// gate the perf trajectory across PRs (tools/bench_compare against
// bench/baselines/). Override the path with --json PATH.

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "lira/common/parallel.h"

#include "lira/common/rng.h"
#include "lira/core/greedy_increment.h"
#include "lira/core/grid_reduce.h"
#include "lira/core/quad_hierarchy.h"
#include "lira/core/statistics_grid.h"
#include "lira/index/grid_index.h"
#include "lira/mobility/trace.h"
#include "lira/mobility/traffic_model.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/motion/update_reduction.h"
#include "lira/roadnet/map_generator.h"
#include "lira/telemetry/flight_recorder.h"
#include "lira/telemetry/telemetry.h"
#include "lira/telemetry/trace.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 14000.0, 14000.0};

const PiecewiseLinearReduction& Reduction() {
  static const PiecewiseLinearReduction* f = [] {
    auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
    auto pwl = PiecewiseLinearReduction::SampleFunction(
        5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
    return new PiecewiseLinearReduction(*std::move(pwl));
  }();
  return *f;
}

std::vector<RegionStats> RandomRegions(int l, uint64_t seed) {
  Rng rng(seed);
  std::vector<RegionStats> regions(l);
  for (RegionStats& r : regions) {
    r.n = rng.Uniform(0.0, 200.0);
    r.m = rng.Bernoulli(0.3) ? rng.Uniform(0.1, 3.0) : 0.0;
    r.s = rng.Uniform(3.0, 28.0);
  }
  return regions;
}

StatisticsGrid RandomGrid(int32_t alpha, uint64_t seed) {
  auto grid = StatisticsGrid::Create(kWorld, alpha);
  Rng rng(seed);
  for (int i = 0; i < 4000; ++i) {
    // Clustered population: half in a town corner.
    const bool town = rng.Bernoulli(0.5);
    const double span = town ? 3000.0 : 14000.0;
    grid->AddNode({rng.Uniform(0.0, span), rng.Uniform(0.0, span)},
                  rng.Uniform(3.0, 28.0));
  }
  QueryRegistry queries;
  for (int i = 0; i < 40; ++i) {
    const double side = rng.Uniform(500.0, 1000.0);
    queries.Add(Rect::CenteredAt({rng.Uniform(side / 2, 14000.0 - side / 2),
                                  rng.Uniform(side / 2, 14000.0 - side / 2)},
                                 side));
  }
  grid->AddQueries(queries);
  return *std::move(grid);
}

void BM_GreedyIncrement(benchmark::State& state) {
  const auto regions = RandomRegions(static_cast<int>(state.range(0)), 7);
  GreedyIncrementConfig config;
  config.z = 0.5;
  config.fairness_threshold = 50.0;
  for (auto _ : state) {
    auto result = RunGreedyIncrement(regions, Reduction(), config);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel("l=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_GreedyIncrement)
    ->Arg(16)
    ->Arg(64)
    ->Arg(100)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(1024)
    ->Arg(16384);

void BM_QuadHierarchyBuild(benchmark::State& state) {
  const StatisticsGrid grid =
      RandomGrid(static_cast<int32_t>(state.range(0)), 11);
  for (auto _ : state) {
    QuadHierarchy tree = QuadHierarchy::Build(grid);
    benchmark::DoNotOptimize(tree);
  }
  state.SetLabel("alpha=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_QuadHierarchyBuild)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024);

void BM_GridReduce(benchmark::State& state) {
  const StatisticsGrid grid = RandomGrid(128, 13);
  const QuadHierarchy tree = QuadHierarchy::Build(grid);
  GridReduceConfig config;
  config.l = static_cast<int32_t>(state.range(0));
  config.z = 0.5;
  for (auto _ : state) {
    auto regions = GridReduce(tree, Reduction(), config);
    benchmark::DoNotOptimize(regions);
  }
  state.SetLabel("l=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_GridReduce)->Arg(16)->Arg(100)->Arg(250)->Arg(1000);

void BM_StatisticsGridAddNode(benchmark::State& state) {
  auto grid = StatisticsGrid::Create(kWorld, 128);
  Rng rng(17);
  for (auto _ : state) {
    grid->AddNode({rng.Uniform(0.0, 14000.0), rng.Uniform(0.0, 14000.0)},
                  10.0);
  }
}
BENCHMARK(BM_StatisticsGridAddNode);

void BM_GridIndexUpdate(benchmark::State& state) {
  auto index = GridIndex::Create(kWorld, 64, 4000);
  Rng rng(19);
  for (NodeId id = 0; id < 4000; ++id) {
    index->Update(id, {rng.Uniform(0.0, 14000.0), rng.Uniform(0.0, 14000.0)});
  }
  NodeId id = 0;
  for (auto _ : state) {
    index->Update(id, {rng.Uniform(0.0, 14000.0), rng.Uniform(0.0, 14000.0)});
    id = (id + 1) % 4000;
  }
}
BENCHMARK(BM_GridIndexUpdate);

void BM_GridIndexRangeQuery(benchmark::State& state) {
  auto index = GridIndex::Create(kWorld, 64, 4000);
  Rng rng(23);
  for (NodeId id = 0; id < 4000; ++id) {
    index->Update(id, {rng.Uniform(0.0, 14000.0), rng.Uniform(0.0, 14000.0)});
  }
  for (auto _ : state) {
    const Point c{rng.Uniform(500.0, 13500.0), rng.Uniform(500.0, 13500.0)};
    auto result = index->RangeQuery(Rect::CenteredAt(c, 1000.0));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GridIndexRangeQuery);

void BM_DeadReckoningObserve(benchmark::State& state) {
  DeadReckoningEncoder encoder(4000);
  Rng rng(29);
  PositionSample sample;
  double t = 0.0;
  for (auto _ : state) {
    sample.node_id = static_cast<NodeId>(rng.UniformInt(4000));
    sample.time = (t += 0.001);
    sample.position = {rng.Uniform(0.0, 14000.0), rng.Uniform(0.0, 14000.0)};
    sample.velocity = {10.0, 0.0};
    benchmark::DoNotOptimize(encoder.Observe(sample, 25.0));
  }
}
BENCHMARK(BM_DeadReckoningObserve);

/// A fixed 4096-vehicle, 60-frame trace on the default 14 km map, recorded
/// once per process.
const Trace& CalibrationTrace() {
  static const Trace* trace = [] {
    auto map = GenerateMap(MapGeneratorConfig{});
    TrafficModelConfig traffic;
    traffic.num_vehicles = 4096;
    auto model = TrafficModel::Create(map->network, traffic);
    auto recorded = Trace::Record(*model, 60, 1.0);
    return new Trace(*std::move(recorded));
  }();
  return *trace;
}

// One f(delta) calibration as a world build runs it: 12 probe thresholds
// counted in one pass over the trace, then the kappa = 95 PWL fit. The name
// avoids "rate", which bench_compare reads as a higher-is-better key.
void BM_ReductionCalibration(benchmark::State& state) {
  const Trace& trace = CalibrationTrace();
  const CalibrationConfig config;
  if (!CalibrateReduction(trace, config).ok()) {
    state.SkipWithError("calibration failed");
    return;
  }
  for (auto _ : state) {
    auto reduction = CalibrateReduction(trace, config);
    benchmark::DoNotOptimize(reduction);
  }
}
BENCHMARK(BM_ReductionCalibration);

// The world build's trace recorder: a random-walk TrafficModel on the
// default 14 km map, 10k vehicles x 30 frames, Create included.
void BM_TraceRecord(benchmark::State& state) {
  auto map = GenerateMap(MapGeneratorConfig{});
  if (!map.ok()) {
    state.SkipWithError("map generation failed");
    return;
  }
  TrafficModelConfig traffic;
  traffic.num_vehicles = 10000;
  for (auto _ : state) {
    auto model = TrafficModel::Create(map->network, traffic);
    auto trace = Trace::Record(*model, 30, 1.0);
    benchmark::DoNotOptimize(trace);
  }
}
BENCHMARK(BM_TraceRecord);

void BM_TelemetryCounterIncrement(benchmark::State& state) {
  telemetry::MetricRegistry registry;
  telemetry::Counter* counter = registry.GetCounter("lira.queue.arrivals");
  for (auto _ : state) {
    counter->Increment();
    benchmark::DoNotOptimize(*counter);
  }
}
BENCHMARK(BM_TelemetryCounterIncrement);

void BM_TelemetryHistogramAdd(benchmark::State& state) {
  telemetry::Histogram histogram(0.0, 0.1, 1000);
  Rng rng(31);
  for (auto _ : state) {
    histogram.Add(rng.Uniform(0.0, 0.1));
    benchmark::DoNotOptimize(histogram);
  }
}
BENCHMARK(BM_TelemetryHistogramAdd);

void BM_TelemetryScopedTimerNullSink(benchmark::State& state) {
  // The telemetry-disabled cost: a null sink must make spans (near) free.
  for (auto _ : state) {
    telemetry::ScopedTimer timer(nullptr, "lira.adapt.total_seconds", 0.0);
    benchmark::DoNotOptimize(timer);
  }
}
BENCHMARK(BM_TelemetryScopedTimerNullSink);

void BM_TelemetryScopedTimerLiveSink(benchmark::State& state) {
  telemetry::TelemetrySink sink;  // metrics-only, no event stream
  double t = 0.0;
  for (auto _ : state) {
    telemetry::ScopedTimer timer(&sink, "lira.adapt.total_seconds",
                                 (t += 1.0));
    benchmark::DoNotOptimize(timer);
  }
}
BENCHMARK(BM_TelemetryScopedTimerLiveSink);

void BM_TraceScopedSpanDisabled(benchmark::State& state) {
  // The tracing-disabled cost on every instrumented stage: a null lane must
  // reduce a ScopedSpan to a pointer test (~1 ns, same contract as the
  // null telemetry sink).
  for (auto _ : state) {
    telemetry::ScopedSpan span(nullptr, nullptr, "ingest.service", 1, -1,
                               0.0);
    benchmark::DoNotOptimize(span);
  }
}
BENCHMARK(BM_TraceScopedSpanDisabled);

void BM_TraceScopedSpanLive(benchmark::State& state) {
  telemetry::TraceRecorder recorder(2);
  telemetry::TraceLane* lane =
      recorder.lane(telemetry::TraceRecorder::kDriverLane);
  int64_t tick = 0;
  for (auto _ : state) {
    // Bound the lane's memory across the (millions of) iterations.
    if (lane->size() >= (1u << 20)) {
      recorder.Clear();
    }
    telemetry::ScopedSpan span(&recorder, lane, "ingest.service", ++tick, -1,
                               0.0);
    benchmark::DoNotOptimize(span);
  }
}
BENCHMARK(BM_TraceScopedSpanLive);

void BM_FlightRecorderRecord(benchmark::State& state) {
  telemetry::FlightRecorder recorder(256, "bench");
  telemetry::FlightSample sample;
  sample.shard = 0;
  for (auto _ : state) {
    ++sample.tick;
    recorder.Record(sample);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FlightRecorderRecord);

void BM_ParallelForDispatch(benchmark::State& state) {
  // Fork-join overhead of one ParallelFor over a node-loop-sized range;
  // threads=1 measures the serial bypass (a bare function call).
  ThreadPool pool(static_cast<int32_t>(state.range(0)));
  std::vector<int64_t> sums(pool.num_threads());
  for (auto _ : state) {
    pool.ParallelFor(0, 4000, 256,
                     [&](int32_t chunk, int64_t begin, int64_t end) {
                       int64_t s = 0;
                       for (int64_t i = begin; i < end; ++i) {
                         s += i;
                       }
                       sums[chunk] = s;
                     });
    benchmark::DoNotOptimize(sums);
  }
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4);

/// Console output plus a flat name -> median-ns JSON export. With
/// aggregate reporting (--benchmark_repetitions) the "median" aggregate
/// wins; otherwise the single iteration run is recorded.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      const std::string name = run.benchmark_name();
      const bool is_median = run.run_type == Run::RT_Aggregate &&
                             run.aggregate_name == "median";
      if (run.run_type == Run::RT_Iteration &&
          medians_.find(name) == medians_.end()) {
        medians_[name] = run.GetAdjustedRealTime();
      } else if (is_median) {
        // Aggregate names carry a "_median" suffix; strip it so the key
        // matches the plain benchmark name across configurations.
        std::string base = name;
        const std::string suffix = "_median";
        if (base.size() > suffix.size() &&
            base.compare(base.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
          base.resize(base.size() - suffix.size());
        }
        medians_[base] = run.GetAdjustedRealTime();
      }
    }
  }

  const std::map<std::string, double>& medians() const { return medians_; }

 private:
  std::map<std::string, double> medians_;
};

}  // namespace
}  // namespace lira

int main(int argc, char** argv) {
  std::string json_path = "BENCH_micro.json";
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&filtered_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                             passthrough.data())) {
    return 1;
  }
  lira::JsonExportReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  lira::bench::BenchExport export_("bench_micro_core");
  for (const auto& [name, ns] : reporter.medians()) {
    export_.SetMetric(name, ns);
  }
  return export_.WriteJson(json_path) ? 0 : 1;
}
