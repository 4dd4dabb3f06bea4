// tickbench: the end-to-end tick ledger.
//
//   tickbench --workload city-100k|metro-1m|serve-100k --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//
// Runs episodes of the workload (set-up, warm-up, a fixed window of measured
// ticks) until three set-ups have been timed (city-100k builds its road-map
// world once per two episodes) and the measured windows add up to
// --seconds, but starts no episode that would end past kMaxWallSeconds.
// Every episode must reproduce the first one's counts exactly. With
// --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 every other episode runs with the pipeline's trace recorder
// and telemetry sink attached and the line carries the per-layer metrics.
// Progress goes to stderr; the last stdout line is the JSON result. Exits 1
// when a correctness check or the exact-count gate fails, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload city-100k|metro-1m|serve-100k --seed N"
               " --seconds S --trace 0|1 [--trace-out PATH]\n",
               argv0);
}

/// Bounds a run's wall time: no episode starts that would end after it.
constexpr double kMaxWallSeconds = 150.0;

}  // namespace

int main(int argc, char** argv) {
  using namespace tickbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) {
      Usage(argv[0]);
      return 2;
    }
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (!std::strcmp(flag, "--workload")) {
      workload = value;
    } else if (!std::strcmp(flag, "--seed")) {
      seed = std::strtoull(value, nullptr, 10);
    } else if (!std::strcmp(flag, "--seconds")) {
      seconds = std::atof(value);
    } else if (!std::strcmp(flag, "--trace")) {
      trace = std::atoi(value) != 0;
    } else if (!std::strcmp(flag, "--trace-out")) {
      trace_out = value;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  const bool city = workload == "city-100k";
  if (!city && workload != "metro-1m" && workload != "serve-100k") {
    Usage(argv[0]);
    return 2;
  }
  // The city world (trace + calibration) is most of a city episode's cost,
  // so each world serves two episodes; set-up is timed on the first.
  constexpr int32_t kCityEpisodesPerWorld = 2;
  const int32_t min_episodes = city ? 3 * kCityEpisodesPerWorld : 3;
  CitySpec city_spec;
  FleetSpec fleet_spec;
  if (city) {
    city_spec = CityPreset(100000, seed);
  } else if (workload == "metro-1m") {
    fleet_spec = MetroPreset(1000000, seed);
  } else {
    fleet_spec = ServePreset(100000, seed);
  }

  const auto start = Clock::now();
  std::vector<Episode> episodes;
  std::optional<lira::World> city_world;
  double measured_s = 0.0;
  for (int32_t e = 0;; ++e) {
    const bool traced = trace && e % 2 == 0;
    const std::string path = traced && e == 0 ? trace_out : std::string();
    Episode ep;
    if (city) {
      const bool rebuild = e % kCityEpisodesPerWorld == 0;
      std::map<std::string, double> world_setup;
      double world_s = 0.0;
      if (rebuild) {
        city_world.reset();
        const auto w0 = Clock::now();
        auto built = BuildCityWorld(city_spec.world, &world_setup);
        world_s = MsBetween(w0, Clock::now()) * 1e-3;
        if (!built.ok()) {
          ep.failures.push_back("BuildCityWorld: " +
                                built.status().ToString());
          episodes.push_back(std::move(ep));
          break;
        }
        city_world.emplace(*std::move(built));
      }
      ep = RunCityEpisode(city_spec, *city_world, traced, path);
      ep.fresh_setup = rebuild;
      ep.setup_s.insert(world_setup.begin(), world_setup.end());
      ep.setup_total_s += world_s;
    } else {
      ep = RunFleetEpisode(fleet_spec, traced, path);
    }
    std::fprintf(stderr,
                 "episode %d%s: setup %.3f s, window %.3f s over %lld ticks "
                 "(%lld adapting), tick p50 %.3f ms\n",
                 e, traced ? " (traced)" : "", ep.setup_total_s, ep.loop_s,
                 static_cast<long long>(ep.ticks),
                 static_cast<long long>(ep.adaptations),
                 Quantile(ep.tick_ms, 0.5));
    measured_s += ep.loop_s;
    const bool broken = !ep.failures.empty();
    episodes.push_back(std::move(ep));
    if (broken) {
      break;
    }
    const int32_t done = e + 1;
    const double elapsed = MsBetween(start, Clock::now()) * 1e-3;
    if (done >= min_episodes && measured_s >= seconds) {
      break;
    }
    // Never start an episode that would overrun the wall-clock limit.
    if (elapsed + elapsed / done > kMaxWallSeconds) {
      break;
    }
  }

  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Episode& ep : episodes) {
    failures.insert(failures.end(), ep.failures.begin(), ep.failures.end());
    attempted += ep.attempted;
    failed += ep.failed;
  }
  CheckExactCounts(episodes, &failures);
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
  }
  const std::vector<Metric> metrics =
      trace ? PerLayerMetrics(episodes)
            : EndToEndMetrics(episodes, PeakRssMb());
  for (const Metric& metric : metrics) {
    std::fprintf(stderr, "  %-28s %16.6g %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
  const bool correct = failures.empty() && failed == 0;
  std::printf("%s\n", ResultJson(correct, std::max<int64_t>(attempted, 1),
                                 failed, metrics)
                          .c_str());
  return correct ? 0 : 1;
}
