// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures. Every bench prints the experimental setup, then the rows of
// the corresponding figure/table.

#ifndef LIRA_BENCH_BENCH_UTIL_H_
#define LIRA_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lira/common/parallel.h"
#include "lira/core/policy.h"
#include "lira/sim/experiment.h"
#include "lira/sim/simulation.h"
#include "lira/sim/world.h"

namespace lira::bench {

/// Best-effort `git describe` of the working tree, for provenance in the
/// bench exports; "unknown" outside a repo or without git.
inline std::string GitDescribe() {
  std::string out = "unknown";
  if (FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
      pipe != nullptr) {
    char buffer[128];
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
      std::string line(buffer);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (!line.empty()) {
        out = line;
      }
    }
    ::pclose(pipe);
  }
  return out;
}

/// Peak resident set size of this process in bytes (ru_maxrss is KiB on
/// Linux), or 0 when unavailable. Process-wide: in a bench that builds
/// several evaluators, the peak covers all of them.
inline double PeakRssBytes() {
  struct ::rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

/// The shared BENCH_*.json schema consumed by tools/bench_compare:
///   {"name":"bench_x","git":"<describe>","config":{...},"metrics":{...}}
/// `config` holds the knobs that shaped the run (nodes, ticks, threads...),
/// `metrics` the flat numeric results. Keys may contain dots; bench_compare
/// flattens everything to dotted paths anyway.
class BenchExport {
 public:
  explicit BenchExport(std::string name) : name_(std::move(name)) {}

  void SetConfig(const std::string& key, double value) {
    config_[key] = value;
  }
  void SetMetric(const std::string& key, double value) {
    metrics_[key] = value;
  }

  /// Writes the export; returns false (with a stderr note) on IO failure.
  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    out << "{\n  \"name\": \"" << name_ << "\",\n  \"git\": \""
        << GitDescribe() << "\",\n  \"config\": {";
    WriteMap(out, config_);
    out << "},\n  \"metrics\": {";
    WriteMap(out, metrics_);
    out << "}\n}\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "failed writing %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics_.size());
    return true;
  }

 private:
  static void WriteMap(std::ofstream& out,
                       const std::map<std::string, double>& map) {
    bool first = true;
    for (const auto& [key, value] : map) {
      if (!first) {
        out << ",";
      }
      first = false;
      char number[64];
      std::snprintf(number, sizeof(number), "%.17g", value);
      out << "\n    \"" << key << "\": " << number;
    }
    if (!map.empty()) {
      out << "\n  ";
    }
  }

  std::string name_;
  std::map<std::string, double> config_;
  std::map<std::string, double> metrics_;
};

/// Bench-scale defaults: the paper's parameter ratios (Table 2) on a
/// laptop-sized population.
inline constexpr int32_t kBenchNodes = 3000;
inline constexpr int32_t kBenchFrames = 600;

/// Builds a world variant; exits the process on failure (benches are
/// top-level binaries).
inline World MustBuildWorld(
    QueryDistribution distribution = QueryDistribution::kProportional,
    double query_node_ratio = 0.01, double query_side = 1000.0,
    int32_t num_nodes = kBenchNodes, int32_t frames = kBenchFrames,
    uint64_t seed = 42) {
  WorldConfig config = DefaultWorldConfig(num_nodes);
  config.trace_frames = frames;
  config.query_distribution = distribution;
  config.query_node_ratio = query_node_ratio;
  config.query_side_length = query_side;
  config.seed = seed;
  auto world = BuildWorld(config);
  if (!world.ok()) {
    std::fprintf(stderr, "BuildWorld failed: %s\n",
                 world.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(world);
}

/// Runs one policy at throttle fraction z; exits on failure.
inline SimulationResult MustRun(const World& world,
                                const LoadSheddingPolicy& policy, double z,
                                SimulationConfig config =
                                    DefaultSimulationConfig()) {
  config.z = z;
  auto result = RunSimulation(world, policy, config);
  if (!result.ok()) {
    std::fprintf(stderr, "RunSimulation(%s, z=%.2f) failed: %s\n",
                 policy.name().data(), z, result.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(result);
}

/// Guards relative-error ratios against division by ~0 (LIRA's error is
/// essentially zero near z = 1, which is exactly the paper's point).
inline double Relative(double err, double base) {
  return err / (base > 1e-12 ? base : 1e-12);
}

/// Sweep-level parallelism: runs independent jobs concurrently via
/// lira::RunAll (results in job order, bitwise identical to a serial
/// sweep); exits on the first failed job. `threads` 0 = hardware
/// concurrency.
inline std::vector<SimulationResult> MustRunAll(
    const std::vector<SimulationJob>& jobs, int32_t threads = 0) {
  std::vector<StatusOr<SimulationResult>> results = RunAll(jobs, threads);
  std::vector<SimulationResult> out;
  out.reserve(results.size());
  for (size_t j = 0; j < results.size(); ++j) {
    if (!results[j].ok()) {
      std::fprintf(stderr, "RunAll job %zu (%s, z=%.2f) failed: %s\n", j,
                   jobs[j].policy != nullptr ? jobs[j].policy->name().data()
                                             : "?",
                   jobs[j].config.z,
                   results[j].status().ToString().c_str());
      std::exit(1);
    }
    out.push_back(*std::move(results[j]));
  }
  return out;
}

/// Parses `--threads N` from a bench binary's command line (0 = hardware
/// concurrency, the default); every other flag is left for the caller.
inline int32_t ThreadsFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], "--threads")) {
      return static_cast<int32_t>(std::atoi(argv[i + 1]));
    }
  }
  return 0;
}

/// Parses `--shards N` from a bench binary's command line (0, the default,
/// runs one shard on the simulation's pool; N >= 1 runs N region shards);
/// every other flag is left for the caller.
inline int32_t ShardsFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], "--shards")) {
      return static_cast<int32_t>(std::atoi(argv[i + 1]));
    }
  }
  return 0;
}

inline void PrintWorldBanner(const World& world, const char* title) {
  std::printf("%s\n", title);
  std::printf(
      "world: %.0f km^2, %d nodes, %d queries, full update rate "
      "%.1f upd/s\n\n",
      world.world_rect().Area() / 1e6, world.num_nodes(),
      world.queries.size(), world.full_update_rate);
}

}  // namespace lira::bench

#endif  // LIRA_BENCH_BENCH_UTIL_H_
