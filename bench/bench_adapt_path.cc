// Adaptation-path benchmark (DESIGN.md §13): wall-clock cost of the full
// Adapt() pipeline -- statistics rebuild, query recount, quad-tree build,
// GRIDREDUCE, GREEDYINCREMENT -- at the 1M-node / 100k-query tier, with and
// without the incremental adaptation path.
//
//   bench_adapt_path [--nodes 1000000] [--queries 100000] [--alpha 1024]
//                    [--l 256] [--rounds 5] [--query-growth 1000]
//                    [--report-fraction 0.3] [--threads 0]
//                    [--min-speedup 0] [--json BENCH_adapt.json]
//
// Both servers replay one precomputed update stream with a growing CQ
// workload (--query-growth new queries between adaptations):
//
//   reference  incremental_stats = false (ClearNodes() + per-node
//              repopulation every adaptation: the full-rebuild oracle that
//              sampled statistics also run), and InstallQueries() before
//              every Adapt(), so every workload change recounts all m
//              queries.
//   optimized  the defaults: incremental stats rebuild with the velocity
//              cache, append-only query count deltas, and (--threads > 1)
//              a worker pool for the stats chunks, quad levels, and
//              GRIDREDUCE waves.
//
// The phases the two configurations share (quad build, GRIDREDUCE, greedy)
// run the same code. Every time is reported per adaptation: the mean over
// the timed rounds, with the untimed warmup adaptation left out of the
// phase means too. After both runs the stats grids and plans are compared
// bitwise in-process, and each run prints a state_hash line (FNV-1a over
// grid cells and plan regions) that CI greps and compares across --threads
// values: the hash, like the plan, must not depend on the worker count.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "lira/common/rng.h"
#include "lira/core/policy.h"
#include "lira/cq/query_registry.h"
#include "lira/motion/update_reduction.h"
#include "lira/server/cq_server.h"
#include "lira/telemetry/telemetry.h"

namespace lira {
namespace {

uint64_t HashU64(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashDouble(uint64_t h, double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return HashU64(h, bits);
}

uint64_t HashRect(uint64_t h, const Rect& r) {
  h = HashDouble(h, r.min_x);
  h = HashDouble(h, r.min_y);
  h = HashDouble(h, r.max_x);
  return HashDouble(h, r.max_y);
}

/// FNV-1a over every grid cell (node count, mean speed, query count) and
/// every plan region (area, delta, stats) -- the complete adaptation
/// output. Bitwise: any FP difference anywhere changes the hash.
uint64_t StateHash(const CqServer& server) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  const StatisticsGrid& grid = server.stats();
  for (int32_t iy = 0; iy < grid.alpha(); ++iy) {
    for (int32_t ix = 0; ix < grid.alpha(); ++ix) {
      h = HashDouble(h, grid.NodeCount(ix, iy));
      h = HashDouble(h, grid.MeanSpeed(ix, iy));
      h = HashDouble(h, grid.QueryCount(ix, iy));
    }
  }
  const SheddingPlan& plan = server.plan();
  h = HashU64(h, static_cast<uint64_t>(plan.NumRegions()));
  for (const SheddingRegion& region : plan.regions()) {
    h = HashRect(h, region.area);
    h = HashDouble(h, region.delta);
    h = HashDouble(h, region.stats.n);
    h = HashDouble(h, region.stats.m);
    h = HashDouble(h, region.stats.s);
  }
  return h;
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Sum of all samples recorded into histogram `name` (0 when absent).
double PhaseTotal(const telemetry::TelemetrySink& sink,
                  const std::string& name) {
  const telemetry::Histogram* hist = sink.metrics().FindHistogram(name);
  return hist != nullptr ? hist->mean() * static_cast<double>(hist->count())
                         : 0.0;
}

/// Each phase's histogram and the key it is printed and exported under.
struct Phase {
  const char* histogram;
  const char* key;
};
constexpr Phase kPhases[] = {
    {"lira.adapt.stats_rebuild_seconds", "stats_rebuild_seconds"},
    {"lira.adapt.query_rebuild_seconds", "query_rebuild_seconds"},
    {"lira.adapt.quad_build_seconds", "quad_build_seconds"},
    {"lira.adapt.grid_reduce_seconds", "gridreduce_seconds"},
    {"lira.adapt.greedy_increment_seconds", "greedy_seconds"},
    {"lira.adapt.plan_build_seconds", "plan_build_seconds"},
    {"lira.adapt.total_seconds", "total_seconds"},
};
constexpr size_t kNumPhases = sizeof(kPhases) / sizeof(kPhases[0]);

/// Per-adaptation means over the timed rounds.
struct RunResult {
  double adapt_seconds = 0.0;
  double phase_seconds[kNumPhases] = {};
  uint64_t state_hash = 0;
};

}  // namespace
}  // namespace lira

int main(int argc, char** argv) {
  using namespace lira;
  int32_t nodes = 1000000;
  int32_t num_queries = 100000;
  int32_t alpha = 1024;
  int32_t l = 256;
  int32_t rounds = 5;
  int32_t query_growth = 1000;
  int32_t threads = 0;
  double report_fraction = 0.3;
  double min_speedup = 0.0;
  std::string json_path = "BENCH_adapt.json";
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--nodes")) {
      nodes = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--queries")) {
      num_queries = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--alpha")) {
      alpha = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--l")) {
      l = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--rounds")) {
      rounds = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--query-growth")) {
      query_growth = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--report-fraction")) {
      report_fraction = std::atof(next());
    } else if (!std::strcmp(argv[i], "--min-speedup")) {
      min_speedup = std::atof(next());
    } else if (!std::strcmp(argv[i], "--json")) {
      json_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--nodes N] [--queries Q] [--alpha A] [--l L]"
                   " [--rounds R] [--query-growth G] [--report-fraction F]"
                   " [--threads N] [--min-speedup S] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  if (rounds < 1) {
    std::fprintf(stderr, "--rounds must be >= 1\n");
    return 2;
  }

  const double world_side = 100000.0;
  const Rect world{0.0, 0.0, world_side, world_side};
  LiraConfig lira_config;
  lira_config.l = l;
  const LiraPolicy policy(lira_config);
  auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
  if (!analytic.ok()) {
    std::fprintf(stderr, "%s\n", analytic.status().ToString().c_str());
    return 1;
  }
  auto reduction = PiecewiseLinearReduction::SampleFunction(
      5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
  if (!reduction.ok()) {
    std::fprintf(stderr, "%s\n", reduction.status().ToString().c_str());
    return 1;
  }

  // The CQ workload: num_queries at warmup, query_growth more per round
  // (a growing registry is what the append-only delta path is for).
  QueryRegistry queries;
  Rng query_rng(7);
  auto add_queries = [&](int32_t count) {
    for (int32_t q = 0; q < count; ++q) {
      const double side = query_rng.Uniform(200.0, 800.0);
      const double x0 = query_rng.Uniform(0.0, world_side - side);
      const double y0 = query_rng.Uniform(0.0, world_side - side);
      queries.Add(Rect{x0, y0, x0 + side, y0 + side});
    }
  };
  add_queries(num_queries);

  // One update stream shared by both servers: a full-population warmup
  // batch, then per round a random report_fraction of the nodes re-reports
  // (the silent rest exercises the velocity cache).
  Rng rng(42);
  std::vector<std::vector<ModelUpdate>> batches(1 + rounds);
  std::vector<Point> pos(nodes);
  for (int32_t id = 0; id < nodes; ++id) {
    pos[id] = {rng.Uniform(0.0, world_side), rng.Uniform(0.0, world_side)};
    ModelUpdate u;
    u.node_id = id;
    u.model = LinearMotionModel{
        pos[id], {rng.Uniform(-15.0, 15.0), rng.Uniform(-15.0, 15.0)}, 0.0};
    batches[0].push_back(u);
  }
  for (int32_t r = 1; r <= rounds; ++r) {
    const double now = static_cast<double>(r);
    for (int32_t id = 0; id < nodes; ++id) {
      if (rng.Uniform(0.0, 1.0) >= report_fraction) continue;
      pos[id].x += rng.Uniform(-50.0, 50.0);
      pos[id].y += rng.Uniform(-50.0, 50.0);
      ModelUpdate u;
      u.node_id = id;
      u.model = LinearMotionModel{
          pos[id],
          {rng.Uniform(-15.0, 15.0), rng.Uniform(-15.0, 15.0)},
          now};
      batches[r].push_back(u);
    }
  }

  const int32_t pool_threads =
      threads > 0 ? threads : ThreadPool::DefaultThreads();
  ThreadPool pool(pool_threads);
  std::printf(
      "adapt path: %d nodes, %d queries (+%d/round), alpha=%d, l=%d, "
      "%d rounds, %d worker threads\n\n",
      nodes, num_queries, query_growth, alpha, l, rounds, pool_threads);

  struct Config {
    const char* label;
    bool incremental;
    bool reinstall_queries;  // workload change = full recount
    ThreadPool* pool;
  };
  const Config configs[2] = {
      {"reference", false, true, nullptr},
      {"optimized", true, false, &pool},
  };
  telemetry::TelemetrySink sinks[2];
  RunResult results[2];

  for (int c = 0; c < 2; ++c) {
    const Config& cfg = configs[c];
    // Rebuild the query stream: both servers must see the identical
    // registry growth schedule, so the registry is regenerated from the
    // same seed for each run (same object, so the pointer stays valid).
    queries = QueryRegistry();
    query_rng = Rng(7);
    add_queries(num_queries);

    CqServerConfig server_config;
    server_config.num_nodes = nodes;
    server_config.world = world;
    server_config.alpha = alpha;
    server_config.queue_capacity = static_cast<size_t>(nodes) + 1;
    server_config.service_rate = static_cast<double>(nodes);
    server_config.adaptation_period = 1e9;  // every Adapt() explicit
    server_config.fixed_z = 0.5;
    server_config.maintain_index = false;
    server_config.incremental_stats = cfg.incremental;
    server_config.telemetry = &sinks[c];
    server_config.pool = cfg.pool;
    auto server =
        CqServer::Create(server_config, &policy, &*reduction, &queries);
    if (!server.ok()) {
      std::fprintf(stderr, "CqServer::Create(%s): %s\n", cfg.label,
                   server.status().ToString().c_str());
      return 1;
    }

    std::vector<ModelUpdate> scratch;
    scratch = batches[0];
    server->ReceiveBatch(&scratch);
    if (auto s = server->Tick(1.0); !s.ok()) {
      std::fprintf(stderr, "Tick: %s\n", s.ToString().c_str());
      return 1;
    }
    if (auto s = server->Adapt(); !s.ok()) {  // warmup adapt, untimed
      std::fprintf(stderr, "Adapt: %s\n", s.ToString().c_str());
      return 1;
    }
    // The sink has recorded since Create: subtract the warmup's phases.
    double warmup_phase[kNumPhases];
    for (size_t p = 0; p < kNumPhases; ++p) {
      warmup_phase[p] = PhaseTotal(sinks[c], kPhases[p].histogram);
    }

    double adapt_seconds = 0.0;
    for (int32_t r = 1; r <= rounds; ++r) {
      scratch = batches[r];
      server->ReceiveBatch(&scratch);
      if (auto s = server->Tick(1.0); !s.ok()) {
        std::fprintf(stderr, "Tick: %s\n", s.ToString().c_str());
        return 1;
      }
      add_queries(query_growth);
      if (cfg.reinstall_queries) {
        if (auto s = server->InstallQueries(&queries); !s.ok()) {
          std::fprintf(stderr, "InstallQueries: %s\n",
                       s.ToString().c_str());
          return 1;
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      if (auto s = server->Adapt(); !s.ok()) {
        std::fprintf(stderr, "Adapt: %s\n", s.ToString().c_str());
        return 1;
      }
      adapt_seconds += Seconds(t0, std::chrono::steady_clock::now());
    }
    results[c].adapt_seconds = adapt_seconds / rounds;
    for (size_t p = 0; p < kNumPhases; ++p) {
      results[c].phase_seconds[p] =
          (PhaseTotal(sinks[c], kPhases[p].histogram) - warmup_phase[p]) /
          rounds;
    }
    results[c].state_hash = StateHash(*server);
  }

  std::printf("%-32s %14s %14s\n", "phase (seconds per adaptation)",
              configs[0].label, configs[1].label);
  for (size_t p = 0; p < kNumPhases; ++p) {
    std::printf("%-32s %14.4f %14.4f\n", kPhases[p].key,
                results[0].phase_seconds[p], results[1].phase_seconds[p]);
  }
  std::printf("%-32s %14.4f %14.4f\n", "adapt_wall_seconds",
              results[0].adapt_seconds, results[1].adapt_seconds);
  const double speedup =
      results[0].adapt_seconds /
      (results[1].adapt_seconds > 0.0 ? results[1].adapt_seconds : 1e-12);
  std::printf("\nreference / optimized adapt time: %.2fx\n", speedup);
  for (int c = 0; c < 2; ++c) {
    std::printf("state_hash[%s]: %016llx\n", configs[c].label,
                static_cast<unsigned long long>(results[c].state_hash));
  }
  if (results[0].state_hash != results[1].state_hash) {
    std::fprintf(stderr,
                 "FAIL: reference and optimized runs diverged bitwise\n");
    return 1;
  }

  bench::BenchExport export_("bench_adapt_path");
  export_.SetConfig("nodes", nodes);
  export_.SetConfig("queries", num_queries);
  export_.SetConfig("query_growth", query_growth);
  export_.SetConfig("alpha", alpha);
  export_.SetConfig("l", l);
  export_.SetConfig("rounds", rounds);
  export_.SetConfig("report_fraction", report_fraction);
  export_.SetConfig("threads", pool_threads);
  for (int c = 0; c < 2; ++c) {
    const std::string prefix = std::string(configs[c].label) + ".";
    export_.SetMetric(prefix + "adapt_seconds", results[c].adapt_seconds);
    for (size_t p = 0; p < kNumPhases; ++p) {
      export_.SetMetric(prefix + kPhases[p].key, results[c].phase_seconds[p]);
    }
  }
  export_.SetMetric("speedup", speedup);
  export_.SetMetric("peak_rss_bytes", bench::PeakRssBytes());
  if (!export_.WriteJson(json_path)) return 1;
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2f < --min-speedup %.2f\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
