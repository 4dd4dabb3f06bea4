// Rescan-vs-incremental accuracy-evaluation benchmark (DESIGN.md §8, §11).
//
// Streams synthetic deterministic motion (mostly small jitter, some cell-
// crossing hops, rare teleports -- the regime a mobile CQ workload puts the
// evaluator in) through two IncrementalEvaluators over the same query set:
// kFullRescan reproduces the original GridIndex + CompareAllQueries pass,
// kIncremental delta-maintains the per-query member state. On every
// verified frame the outputs are checked bitwise equal across the two
// modes before their cost is counted, so the speedup below is for
// identical output.
//
//   bench_incremental_eval [--nodes 10000] [--queries 1000] [--frames 200]
//                          [--threads 0] [--cells 128] [--margin 5]
//                          [--world-side 10000] [--verify-every 1]
//                          [--json ...] [--min-speedup 0]
//
// --world-side scales the square world (meters): grow it with sqrt(nodes)
// to hold node and query density constant, the way the paper's scaling
// experiments do -- a fixed 10 km world under 1M nodes would put every
// node in hundreds of queries at once, which benchmarks the pathology, not
// the workload.
//
// --verify-every N runs the (expensive) rescan reference on every Nth
// frame only; 0 disables it entirely. The million-node tier
// (EXPERIMENTS.md: --nodes 1000000 --queries 100000 --world-side 100000
// --cells 1024 --verify-every 0) cannot afford a 100k-query rescan per
// frame, so it measures the incremental path alone and relies on the
// recorded output hash -- an FNV-1a digest over every frame's
// QueryAccuracy bytes, printed below and identical across thread counts
// and kernel implementations by the determinism contract -- plus the
// property-test suite for correctness.
//
// Frame 0 carries the incremental evaluator's one-time member-set
// initialization (a real run pays it once across thousands of samples), so
// the steady-state metric averages the second half of the run; keep enough
// frames that it means something.
//
// Writes a bench_compare-schema JSON summary (config + flat metrics:
// per-sample times, speedup, delta counters, bytes/node, peak RSS) for CI
// tracking; --min-speedup exits nonzero when the measured speedup falls
// short (the acceptance gate is 5x at 10k nodes / 1k queries).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "lira/common/parallel.h"
#include "lira/common/rng.h"
#include "lira/cq/incremental_evaluator.h"
#include "lira/cq/query_registry.h"

namespace lira {
namespace {

struct MotionSample {
  std::vector<Point> truth;
  std::vector<Point> believed;
  std::vector<char> known;
};

/// Deterministic synthetic motion at a 10 Hz sampling cadence (dt = 0.1 s,
/// the regime where per-sample recomputation is most wasteful): vehicle
/// speeds of 2-15 m/s give sub-meter frame moves in random directions,
/// mostly inside the safe box the node's last walk certified (the skip's
/// bread and butter), a few percent of frames are 30 m hops (GPS fixes /
/// lane teleports in the feed) and rare respawns. The believed position is
/// truth plus a dead-reckoning offset that persists between updates
/// (predictions drift smoothly) and is re-rolled when the node "transmits".
/// Dropout is sticky, as real dropout is at this cadence: a node goes dark
/// for ~1 s stretches (0.3%/frame down, 10%/frame back up, ~3% dark at any
/// time) rather than flickering independently every 100 ms.
std::vector<MotionSample> MakeMotion(int32_t nodes, int32_t frames,
                                     uint64_t seed, double side) {
  Rng rng(seed);
  std::vector<Point> pos(nodes);
  std::vector<Vec2> offset(nodes);
  std::vector<char> dark(nodes, 0);
  for (int32_t id = 0; id < nodes; ++id) {
    pos[id] = {rng.Uniform(0.0, side), rng.Uniform(0.0, side)};
    offset[id] = {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)};
  }
  std::vector<MotionSample> motion(frames);
  for (MotionSample& out : motion) {
    out.truth.resize(nodes);
    out.believed.resize(nodes);
    out.known.resize(nodes);
    for (int32_t id = 0; id < nodes; ++id) {
      const double kind = rng.Uniform(0.0, 1.0);
      double step = 1.0;  // <= 15 m/s * 0.1 s, per axis
      if (kind > 0.998) {
        pos[id] = {rng.Uniform(0.0, side), rng.Uniform(0.0, side)};
        step = 0.0;
      } else if (kind > 0.97) {
        step = 30.0;
      }
      pos[id].x += rng.Uniform(-step, step);
      pos[id].y += rng.Uniform(-step, step);
      if (rng.Uniform(0.0, 1.0) < 0.02) {  // update received: model snaps
        offset[id] = {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)};
      }
      const double link = rng.Uniform(0.0, 1.0);
      if (dark[id] != 0) {
        dark[id] = link < 0.10 ? 0 : 1;
      } else {
        dark[id] = link < 0.003 ? 1 : 0;
      }
      out.truth[id] = pos[id];
      out.known[id] = dark[id] != 0 ? 0 : 1;
      out.believed[id] = {pos[id].x + offset[id].x, pos[id].y + offset[id].y};
    }
  }
  return motion;
}

QueryRegistry MakeQueries(int32_t count, uint64_t seed, double world_side) {
  Rng rng(seed);
  QueryRegistry registry;
  for (int32_t q = 0; q < count; ++q) {
    // Query extents are absolute (real ranges don't grow with the city), so
    // a density-preserving world keeps per-node query overlap flat.
    const double side = rng.Uniform(0.0, 1.0) < 0.7
                            ? rng.Uniform(100.0, 400.0)
                            : rng.Uniform(800.0, 2000.0);
    const double x0 = rng.Uniform(0.0, world_side - side);
    const double y0 = rng.Uniform(0.0, world_side - side);
    registry.Add(Rect{x0, y0, x0 + side, y0 + side});
  }
  return registry;
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// FNV-1a over the exact bytes of one frame's QueryAccuracy vector.
/// Bitwise-deterministic outputs make this hash identical across thread
/// counts, shard counts, and the scalar/vectorized kernel pair.
uint64_t HashAccuracy(uint64_t h, const std::vector<QueryAccuracy>& acc) {
  const auto mix = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  for (const QueryAccuracy& a : acc) {
    mix(&a.truth_size, sizeof(a.truth_size));
    mix(&a.believed_size, sizeof(a.believed_size));
    mix(&a.containment_error, sizeof(a.containment_error));
    mix(&a.position_error, sizeof(a.position_error));
  }
  return h;
}

}  // namespace
}  // namespace lira

int main(int argc, char** argv) {
  using namespace lira;
  int32_t nodes = 10000;
  int32_t queries = 1000;
  int32_t frames = 200;
  int32_t threads = 0;
  // Index geometry defaults from a sweep on the 100k-node / 10k-query tier
  // (EXPERIMENTS.md §incremental): 128 cells a side with a flat 5 m margin
  // beat the coarser 64-cell grid and the proportional cell/8 margin by
  // ~20% end to end. --margin -1 restores the evaluator's cell/8 default.
  int32_t cells = 128;
  double margin = 5.0;
  double world_side = 10000.0;
  int32_t verify_every = 1;
  double min_speedup = 0.0;
  std::string json_path = "BENCH_incremental.json";
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
      queries = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--frames")) {
      frames = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--cells")) {
      cells = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--margin")) {
      margin = std::atof(next());
    } else if (!std::strcmp(argv[i], "--world-side")) {
      world_side = std::atof(next());
    } else if (!std::strcmp(argv[i], "--verify-every")) {
      verify_every = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--json")) {
      json_path = next();
    } else if (!std::strcmp(argv[i], "--min-speedup")) {
      min_speedup = std::atof(next());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::printf(
      "generating %d frames of motion for %d nodes, %d queries "
      "(world=%.0fm, cells=%d, margin=%.1f, verify-every=%d)\n",
      frames, nodes, queries, world_side, cells, margin, verify_every);
  const Rect world{0.0, 0.0, world_side, world_side};
  const auto motion = MakeMotion(nodes, frames, 42, world_side);
  const QueryRegistry registry = MakeQueries(queries, 7, world_side);
  ThreadPool pool(threads > 0 ? threads : ThreadPool::DefaultThreads());
  ThreadPool* pool_ptr = pool.num_threads() > 1 ? &pool : nullptr;

  auto incremental = IncrementalEvaluator::Create(
      world, cells, nodes, registry, EvalMode::kIncremental, margin);
  if (!incremental.ok()) {
    std::fprintf(stderr, "Create failed\n");
    return 1;
  }
  std::optional<IncrementalEvaluator> rescan;
  if (verify_every > 0) {
    auto r = IncrementalEvaluator::Create(world, cells, nodes, registry,
                                          EvalMode::kFullRescan);
    if (!r.ok()) {
      std::fprintf(stderr, "Create failed\n");
      return 1;
    }
    rescan.emplace(*std::move(r));
  }

  double rescan_seconds = 0.0;
  int64_t rescan_samples = 0;
  double incremental_seconds = 0.0;
  double steady_seconds = 0.0;
  int64_t steady_samples = 0;
  int64_t mismatches = 0;
  uint64_t hash = 14695981039346656037ull;
  for (int32_t f = 0; f < frames; ++f) {
    const MotionSample& sample = motion[f];
    std::vector<QueryAccuracy> want;
    if (rescan.has_value() && f % verify_every == 0) {
      // kFullRescan state depends only on the current sample, so it can
      // skip frames and still verify the ones it does run.
      auto t0 = std::chrono::steady_clock::now();
      rescan->ApplySample(sample.truth, sample.believed, sample.known,
                          pool_ptr);
      want = rescan->Evaluate(pool_ptr);
      auto t1 = std::chrono::steady_clock::now();
      rescan_seconds += Seconds(t0, t1);
      ++rescan_samples;
    }
    auto t1 = std::chrono::steady_clock::now();
    incremental->ApplySample(sample.truth, sample.believed, sample.known,
                             pool_ptr);
    const auto got = incremental->Evaluate(pool_ptr);
    auto t2 = std::chrono::steady_clock::now();
    incremental_seconds += Seconds(t1, t2);
    if (f >= frames / 2) {
      steady_seconds += Seconds(t1, t2);
      ++steady_samples;
    }
    hash = HashAccuracy(hash, got);
    for (size_t q = 0; q < want.size(); ++q) {
      if (got[q].containment_error != want[q].containment_error ||
          got[q].position_error != want[q].position_error ||
          got[q].truth_size != want[q].truth_size ||
          got[q].believed_size != want[q].believed_size) {
        ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld query-samples differ between modes\n",
                 static_cast<long long>(mismatches));
    return 1;
  }

  const double samples = static_cast<double>(frames);
  const double rescan_ms = rescan_samples > 0
                               ? 1e3 * rescan_seconds /
                                     static_cast<double>(rescan_samples)
                               : 0.0;
  const double incremental_ms = 1e3 * incremental_seconds / samples;
  const double steady_ms =
      steady_samples > 0
          ? 1e3 * steady_seconds / static_cast<double>(steady_samples)
          : 0.0;
  const double speedup = incremental_ms > 0.0 ? rescan_ms / incremental_ms
                                              : 0.0;
  const double bytes_per_node =
      static_cast<double>(incremental->node_state_bytes()) /
      static_cast<double>(std::max(1, nodes));
  std::printf("\n%-28s %14s %14s\n", "mode", "total s", "ms/sample");
  if (rescan_samples > 0) {
    std::printf("%-28s %14.3f %14.3f\n", "full rescan", rescan_seconds,
                rescan_ms);
  }
  std::printf("%-28s %14.3f %14.3f\n", "incremental", incremental_seconds,
              incremental_ms);
  std::printf("%-28s %14.3f %14.3f\n", "incremental (steady tail)",
              steady_seconds, steady_ms);
  if (rescan_samples > 0) {
    std::printf("\nspeedup: %.2fx (threads=%d, outputs bitwise identical "
                "on %lld verified frames)\n",
                speedup, pool.num_threads(),
                static_cast<long long>(rescan_samples));
  }
  std::printf("deltas applied: %lld, queries touched: %lld\n",
              static_cast<long long>(incremental->deltas_applied()),
              static_cast<long long>(incremental->queries_touched()));
  std::printf("node state: %.1f bytes/node, arena high watermark %zu B, "
              "peak RSS %.1f MiB\n",
              bytes_per_node, incremental->arena_high_watermark(),
              bench::PeakRssBytes() / (1024.0 * 1024.0));
  std::printf("output hash: %016llx\n",
              static_cast<unsigned long long>(hash));

  bench::BenchExport out("bench_incremental_eval");
  out.SetConfig("nodes", nodes);
  out.SetConfig("queries", queries);
  out.SetConfig("frames", frames);
  out.SetConfig("threads", pool.num_threads());
  out.SetConfig("cells", cells);
  out.SetConfig("margin", margin);
  out.SetConfig("world_side", world_side);
  out.SetConfig("verify_every", verify_every);
  out.SetMetric("incremental_seconds", incremental_seconds);
  out.SetMetric("incremental_ms_per_sample", incremental_ms);
  out.SetMetric("steady_ms_per_sample", steady_ms);
  out.SetMetric("frames_per_second",
                incremental_ms > 0.0 ? 1e3 / incremental_ms : 0.0);
  out.SetMetric("deltas_applied",
                static_cast<double>(incremental->deltas_applied()));
  out.SetMetric("queries_touched",
                static_cast<double>(incremental->queries_touched()));
  out.SetMetric("bytes_per_node", bytes_per_node);
  out.SetMetric("arena_high_watermark_bytes",
                static_cast<double>(incremental->arena_high_watermark()));
  out.SetMetric("peak_rss_bytes", bench::PeakRssBytes());
  if (rescan_samples > 0) {
    out.SetMetric("rescan_seconds", rescan_seconds);
    out.SetMetric("rescan_ms_per_sample", rescan_ms);
    out.SetMetric("speedup", speedup);
  }
  if (!out.WriteJson(json_path)) {
    return 1;
  }

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
