// Interactive parameter explorer: run any policy at any operating point
// from the command line and print the full result record.
//
//   explore [--policy Lira|Lira-Grid|UniformDelta|RandomDrop]
//           [--z 0.5] [--l 250] [--fairness 50] [--nodes 3000]
//           [--distribution Proportional|Inverse|Random]
//           [--mobility walk|trips] [--auto-throttle]
//           [--capacity-fraction 0.5] [--history] [--seed 42]
//           [--telemetry out.jsonl] [--telemetry-stride 10]
//           [--trace out.json] [--flight out.json]
//           [--health out.jsonl] [--health-stride 60]
//           [--threads N] [--shards S] [--rebalance R]
//           [--incremental | --no-incremental]
//
// --threads sets the simulation engine's worker count (0 = hardware
// concurrency, 1 = fully serial); results are identical for any value.
// --shards S >= 1 runs S region shards with their own worker pool; 0, the
// default, runs one shard on the simulation's pool. S = 1 is bitwise
// identical to 0.
// --rebalance R re-splits the cluster's shard strips from observed load
// every R adaptation windows (requires --shards >= 1; 0 = static map).
// --no-incremental forces the original recompute-everything accuracy and
// statistics paths (incremental is the default); results are bitwise
// identical either way, only wall-clock time changes.
//
// Example: explore --policy Lira --z 0.4 --l 100 --fairness 25 --history
//
// --telemetry streams the run's timeline (z trajectory, queue depth/drops,
// per-stage plan-build spans, adaptation events) to the given file as JSONL
// (or CSV when the path ends in .csv) and prints a metrics digest.
//
// --trace records per-stage spans (ingest/tracker/stats/optimizer) and
// writes the Chrome trace_event format -- load the file in chrome://tracing
// or https://ui.perfetto.dev; a path ending in .jsonl writes one span per
// line instead. --flight keeps a 256-tick flight-recorder ring and dumps it
// as JSON at the end of the run (and on any LIRA_CHECK failure). --health
// appends a cluster health snapshot every --health-stride frames as JSONL,
// plus a final Prometheus text file at PATH.prom.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "lira/core/policy.h"
#include "lira/sim/experiment.h"
#include "lira/sim/simulation.h"
#include "lira/sim/world.h"
#include "lira/telemetry/flight_recorder.h"
#include "lira/telemetry/telemetry.h"
#include "lira/telemetry/trace.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--policy NAME] [--z Z] [--l L] [--fairness D]\n"
      "          [--nodes N] [--distribution NAME] [--mobility walk|trips]\n"
      "          [--auto-throttle] [--capacity-fraction C] [--history]\n"
      "          [--seed S] [--telemetry PATH] [--telemetry-stride K]\n"
      "          [--trace PATH] [--flight PATH]\n"
      "          [--health PATH] [--health-stride K]\n"
      "          [--threads N] [--shards S] [--rebalance R]\n"
      "          [--incremental | --no-incremental]\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lira;
  std::string policy_name = "Lira";
  double z = 0.5;
  LiraConfig lira_config = DefaultLiraConfig();
  int32_t nodes = 3000;
  QueryDistribution distribution = QueryDistribution::kProportional;
  MobilityModel mobility = MobilityModel::kRandomWalk;
  bool auto_throttle = false;
  double capacity_fraction = 0.0;
  bool history = false;
  uint64_t seed = 42;
  std::string telemetry_path;
  int32_t telemetry_stride = 10;
  std::string trace_path;
  std::string flight_path;
  std::string health_path;
  int32_t health_stride = 60;
  int32_t threads = 0;
  int32_t shards = 0;
  int32_t rebalance_stride = 0;
  bool incremental = true;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--policy")) {
      policy_name = next("--policy");
    } else if (!std::strcmp(argv[i], "--z")) {
      z = std::atof(next("--z"));
    } else if (!std::strcmp(argv[i], "--l")) {
      lira_config.l = std::atoi(next("--l"));
    } else if (!std::strcmp(argv[i], "--fairness")) {
      lira_config.fairness_threshold = std::atof(next("--fairness"));
    } else if (!std::strcmp(argv[i], "--nodes")) {
      nodes = std::atoi(next("--nodes"));
    } else if (!std::strcmp(argv[i], "--distribution")) {
      const std::string name = next("--distribution");
      if (name == "Proportional") {
        distribution = QueryDistribution::kProportional;
      } else if (name == "Inverse") {
        distribution = QueryDistribution::kInverse;
      } else if (name == "Random") {
        distribution = QueryDistribution::kRandom;
      } else {
        Usage(argv[0]);
      }
    } else if (!std::strcmp(argv[i], "--mobility")) {
      const std::string name = next("--mobility");
      if (name == "walk") {
        mobility = MobilityModel::kRandomWalk;
      } else if (name == "trips") {
        mobility = MobilityModel::kTrips;
      } else {
        Usage(argv[0]);
      }
    } else if (!std::strcmp(argv[i], "--auto-throttle")) {
      auto_throttle = true;
    } else if (!std::strcmp(argv[i], "--capacity-fraction")) {
      capacity_fraction = std::atof(next("--capacity-fraction"));
    } else if (!std::strcmp(argv[i], "--history")) {
      history = true;
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--telemetry")) {
      telemetry_path = next("--telemetry");
    } else if (!std::strcmp(argv[i], "--telemetry-stride")) {
      telemetry_stride = std::atoi(next("--telemetry-stride"));
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace_path = next("--trace");
    } else if (!std::strcmp(argv[i], "--flight")) {
      flight_path = next("--flight");
    } else if (!std::strcmp(argv[i], "--health")) {
      health_path = next("--health");
    } else if (!std::strcmp(argv[i], "--health-stride")) {
      health_stride = std::atoi(next("--health-stride"));
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = std::atoi(next("--threads"));
    } else if (!std::strcmp(argv[i], "--shards")) {
      shards = std::atoi(next("--shards"));
    } else if (!std::strcmp(argv[i], "--rebalance")) {
      rebalance_stride = std::atoi(next("--rebalance"));
    } else if (!std::strcmp(argv[i], "--incremental")) {
      incremental = true;
    } else if (!std::strcmp(argv[i], "--no-incremental")) {
      incremental = false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage(argv[0]);
    }
  }

  WorldConfig world_config = DefaultWorldConfig(nodes);
  world_config.query_distribution = distribution;
  world_config.mobility = mobility;
  world_config.seed = seed;
  auto world = BuildWorld(world_config);
  if (!world.ok()) {
    std::fprintf(stderr, "BuildWorld: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }

  auto policy = MakePolicy(policy_name, lira_config);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 1;
  }

  SimulationConfig sim = DefaultSimulationConfig();
  sim.z = z;
  sim.auto_throttle = auto_throttle;
  sim.evaluate_history = history;
  sim.threads = threads;
  sim.shards = shards;
  sim.rebalance_stride = rebalance_stride;
  sim.incremental = incremental;
  if (capacity_fraction > 0.0) {
    sim.service_rate_override = capacity_fraction * world->full_update_rate;
  }

  std::unique_ptr<telemetry::FileEventSink> telemetry_file;
  std::unique_ptr<telemetry::TelemetrySink> telemetry_sink;
  if (!telemetry_path.empty()) {
    const bool csv = telemetry_path.size() >= 4 &&
                     telemetry_path.compare(telemetry_path.size() - 4, 4,
                                            ".csv") == 0;
    auto file = telemetry::FileEventSink::Open(
        telemetry_path,
        csv ? telemetry::EventFormat::kCsv : telemetry::EventFormat::kJsonl);
    if (!file.ok()) {
      std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
      return 1;
    }
    telemetry_file = *std::move(file);
    telemetry_sink =
        std::make_unique<telemetry::TelemetrySink>(telemetry_file.get());
    sim.telemetry = telemetry_sink.get();
    sim.telemetry_stride = telemetry_stride;
  }

  std::unique_ptr<telemetry::TraceRecorder> trace;
  if (!trace_path.empty()) {
    // The driver lane plus one lane per shard; --shards 0 runs one shard.
    trace = std::make_unique<telemetry::TraceRecorder>(std::max(shards, 1) +
                                                       1);
    sim.trace = trace.get();
  }
  std::unique_ptr<telemetry::FlightRecorder> flight;
  if (!flight_path.empty()) {
    flight = std::make_unique<telemetry::FlightRecorder>(
        256, shards > 0 ? "cluster" : "server");
    sim.flight_recorder = flight.get();
    telemetry::FlightRecorder::InstallCrashDump(flight_path);
  }
  sim.health_path = health_path;
  sim.health_stride = health_stride;

  auto result = RunSimulation(*world, **policy, sim);
  if (!result.ok()) {
    std::fprintf(stderr, "RunSimulation: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("world:    %d nodes, %d queries (%s, %s mobility), full rate "
              "%.1f upd/s\n",
              world->num_nodes(), world->queries.size(),
              QueryDistributionName(distribution).data(),
              mobility == MobilityModel::kTrips ? "trip" : "random-walk",
              world->full_update_rate);
  std::printf("policy:   %s  z=%.3f%s  l=%d  fairness=%.0f m\n",
              policy_name.c_str(), result->final_z,
              auto_throttle ? " (auto)" : "", lira_config.l,
              lira_config.fairness_threshold);
  std::printf("accuracy: E^C=%.5f  E^P=%.3f m  D^C=%.5f  C^C=%.3f\n",
              result->metrics.mean_containment_error,
              result->metrics.mean_position_error,
              result->metrics.containment_error_stddev,
              result->metrics.containment_error_cov);
  std::printf("load:     sent=%lld dropped=%lld applied=%lld  "
              "update-fraction=%.3f (target %.3f)\n",
              static_cast<long long>(result->updates_sent),
              static_cast<long long>(result->updates_dropped),
              static_cast<long long>(result->updates_applied),
              result->measured_update_fraction, result->final_z);
  std::printf("plan:     %d regions, deltas [%.1f, %.1f] m, %lld builds "
              "(avg %.2f ms)\n",
              result->final_plan_regions, result->final_plan_min_delta,
              result->final_plan_max_delta,
              static_cast<long long>(result->plan_builds),
              result->mean_plan_build_seconds * 1e3);
  if (history) {
    std::printf("history:  E^C=%.5f  E^P=%.3f m  store=%.2f MB\n",
                result->historical_containment_error,
                result->historical_position_error,
                result->history_bytes / 1e6);
  }
  if (telemetry_sink != nullptr) {
    const telemetry::MetricRegistry& metrics = telemetry_sink->metrics();
    const telemetry::Histogram* build =
        metrics.FindHistogram("lira.adapt.plan_build_seconds");
    const telemetry::Histogram* stats =
        metrics.FindHistogram("lira.adapt.stats_rebuild_seconds");
    const telemetry::Counter* arrivals =
        metrics.FindCounter("lira.queue.arrivals");
    const telemetry::Counter* dropped =
        metrics.FindCounter("lira.queue.dropped");
    std::printf("telemetry: %lld events -> %s\n",
                static_cast<long long>(telemetry_sink->events_emitted()),
                telemetry_path.c_str());
    if (build != nullptr && stats != nullptr) {
      std::printf(
          "           plan-build p50=%.2f p95=%.2f p99=%.2f ms  "
          "stats-rebuild p50=%.2f ms\n",
          build->P50() * 1e3, build->P95() * 1e3, build->P99() * 1e3,
          stats->P50() * 1e3);
    }
    std::printf("           queue arrivals=%lld dropped=%lld\n",
                static_cast<long long>(
                    arrivals != nullptr ? arrivals->value() : 0),
                static_cast<long long>(
                    dropped != nullptr ? dropped->value() : 0));
  }
  if (trace != nullptr) {
    const bool jsonl = trace_path.size() >= 6 &&
                       trace_path.compare(trace_path.size() - 6, 6,
                                          ".jsonl") == 0;
    const Status written = jsonl ? trace->WriteJsonl(trace_path)
                                 : trace->WriteChromeTrace(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("trace:    %zu spans -> %s (%s)\n", trace->TotalSpans(),
                trace_path.c_str(), jsonl ? "jsonl" : "chrome trace_event");
  }
  if (flight != nullptr) {
    if (auto s = telemetry::FlightRecorder::DumpAllToFile(flight_path);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("flight:   %lld samples recorded, last %zu -> %s\n",
                static_cast<long long>(flight->total_recorded()),
                flight->size(), flight_path.c_str());
  }
  if (!health_path.empty()) {
    std::printf("health:   snapshots every %d frames -> %s (+ %s.prom)\n",
                health_stride, health_path.c_str(), health_path.c_str());
  }
  return 0;
}
