#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "lira/basestation/base_station.h"
#include "lira/basestation/plan_codec.h"
#include "lira/common/arena.h"
#include "lira/common/kernels.h"
#include "lira/common/node_store.h"
#include "lira/common/parallel.h"
#include "lira/core/policy.h"
#include "lira/cq/incremental_evaluator.h"
#include "lira/cq/workload.h"
#include "lira/mobility/trace.h"
#include "lira/mobility/traffic_model.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/motion/update_reduction.h"
#include "lira/roadnet/map_generator.h"
#include "lira/server/cq_server.h"
#include "lira/server/server_cluster.h"
#include "lira/sim/experiment.h"
#include "lira/telemetry/telemetry.h"

namespace tickbench {
namespace {

using lira::BaseStation;
using lira::DeadReckoningEncoder;
using lira::FrameArena;
using lira::ModelUpdate;
using lira::NodeId;
using lira::Point;
using lira::Rect;
using lira::SheddingPlan;
using lira::ThreadPool;

constexpr int64_t kNodeGrain = 256;
/// Fleet workloads: query side w (sides ~ U[w/2, w]), and the recorded
/// sub-fleet f and the full rate are calibrated on.
constexpr double kQuerySide = 1000.0;
constexpr int32_t kCalibrationNodes = 20000;
constexpr int32_t kCalibrationFrames = 60;
/// Both fleet workloads run S = 4 shards and adapt every 5 ticks.
constexpr int32_t kFleetShards = 4;
constexpr double kFleetAdaptationPeriod = 5.0;
/// Coverage radius of the city's base stations (a 5 x 5 grid on 14 km).
constexpr double kCityStationRadius = 2000.0;

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t FnvDouble(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return Fnv(h, bits);
}

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

/// FNV-1a over a plan's regions (area, delta, stats).
uint64_t PlanHash(const SheddingPlan& plan) {
  uint64_t h = Fnv(kFnvBasis, static_cast<uint64_t>(plan.NumRegions()));
  for (const lira::SheddingRegion& r : plan.regions()) {
    h = FnvDouble(h, r.area.min_x);
    h = FnvDouble(h, r.area.min_y);
    h = FnvDouble(h, r.area.max_x);
    h = FnvDouble(h, r.area.max_y);
    h = FnvDouble(h, r.delta);
    h = FnvDouble(h, r.stats.n);
    h = FnvDouble(h, r.stats.m);
    h = FnvDouble(h, r.stats.s);
  }
  return h;
}

/// FNV-1a over every statistics-grid cell (n, m, s) and the plan.
uint64_t StateHash(const lira::StatisticsGrid& grid, const SheddingPlan& plan) {
  uint64_t h = kFnvBasis;
  for (int32_t iy = 0; iy < grid.alpha(); ++iy) {
    for (int32_t ix = 0; ix < grid.alpha(); ++ix) {
      const lira::RegionStats cell = grid.CellStats(ix, iy);
      h = FnvDouble(h, cell.n);
      h = FnvDouble(h, cell.m);
      h = FnvDouble(h, cell.s);
    }
  }
  return Fnv(h, PlanHash(plan));
}

/// The server's adaptation schedule, replayed from the configured period
/// exactly as CqServer / ServerCluster::Tick evaluate it, so adapting ticks
/// are known without asking the server.
class AdaptSchedule {
 public:
  explicit AdaptSchedule(double period) : period_(period), next_(period) {}
  /// Advances the clock by dt; true when this tick runs the adaptation.
  bool Advance(double dt) {
    time_ += dt;
    if (time_ + 1e-9 >= next_) {
      next_ += period_;
      return true;
    }
    return false;
  }

 private:
  double period_;
  double next_;
  double time_ = 0.0;
};

/// Per-worker scratch of the node-side passes.
struct NodeScratch {
  explicit NodeScratch(int32_t workers)
      : arenas(workers), updates(workers) {}
  std::vector<FrameArena> arenas;
  std::vector<std::vector<ModelUpdate>> updates;
};

/// Runs the encoder over all n nodes on the pool and concatenates the
/// per-chunk updates in chunk (= node id) order into *batch.
void EncodeNodes(ThreadPool& pool, DeadReckoningEncoder& encoder, int64_t n,
                 const double* x, const double* y, const double* vx,
                 const double* vy, double t, const double* delta,
                 NodeScratch& scratch, std::vector<ModelUpdate>* batch) {
  for (std::vector<ModelUpdate>& out : scratch.updates) {
    out.clear();
  }
  pool.ParallelFor(0, n, kNodeGrain, [&](int32_t chunk, int64_t b, int64_t e) {
    FrameArena& arena = scratch.arenas[chunk];
    arena.Reset();
    uint8_t* decision = arena.AllocSpan<uint8_t>(e - b);
    encoder.ObserveSpan(static_cast<NodeId>(b), e - b, x + b, y + b, vx + b,
                        vy + b, t, delta + b, decision,
                        &scratch.updates[chunk]);
  });
  batch->clear();
  for (const std::vector<ModelUpdate>& out : scratch.updates) {
    batch->insert(batch->end(), out.begin(), out.end());
  }
}

/// Encodes the plan for every base station (timed as plan.encode, its bytes
/// counted as plan.bytes, when asked) and checks that each payload decodes
/// back to the station's subset, field by field at wire (f32) precision.
void BroadcastPlan(const SheddingPlan& plan,
                   const std::vector<BaseStation>& stations, bool timed,
                   bool counted, Episode* ep) {
  std::vector<std::vector<uint8_t>> payloads;
  payloads.reserve(stations.size());
  {
    LayerTimer timer(timed ? &ep->layer_ms : nullptr, "plan.encode");
    for (const BaseStation& station : stations) {
      auto payload = lira::EncodePlanSubset(plan, station);
      ++ep->attempted;
      if (!payload.ok()) {
        ++ep->failed;
        payloads.emplace_back();
        continue;
      }
      payloads.push_back(*std::move(payload));
    }
  }
  for (size_t s = 0; s < stations.size(); ++s) {
    if (counted) {
      ep->counts["plan.bytes"] += static_cast<int64_t>(payloads[s].size());
    }
    const std::vector<lira::BroadcastRegion> want =
        lira::PlanSubsetFor(plan, stations[s]);
    auto got = lira::DecodeRegions(payloads[s]);
    bool equal = got.ok() && got->size() == want.size();
    for (size_t i = 0; equal && i < want.size(); ++i) {
      const Rect& a = want[i].area;
      const Rect& b = (*got)[i].area;
      equal = static_cast<float>(a.min_x) == b.min_x &&
              static_cast<float>(a.min_y) == b.min_y &&
              static_cast<float>(a.width()) ==
                  static_cast<float>(b.max_x - b.min_x) &&
              static_cast<float>(want[i].delta) == (*got)[i].delta;
    }
    if (!equal) {
      ep->failures.push_back("plan payload for station " + std::to_string(s) +
                             " does not decode back to its subset");
      return;
    }
  }
}

/// Reports one tick's server walls into the episode.
void RecordServerTick(Episode* ep, double receive_ms, double tick_ms,
                      bool adapting) {
  const double server_ms = receive_ms + tick_ms;
  ep->server_s += server_ms * 1e-3;
  (adapting ? ep->adapt_tick_ms : ep->tick_ms).push_back(server_ms);
  ep->adaptations += adapting ? 1 : 0;
}

std::vector<BaseStation> Stations(const Rect& world, double radius,
                                  Episode* ep) {
  auto stations = lira::UniformPlacement(world, radius);
  if (!stations.ok()) {
    ep->failures.push_back("base-station placement: " +
                           stations.status().ToString());
    return {};
  }
  return *std::move(stations);
}

void Fail(Episode* ep, const std::string& what, const lira::Status& status) {
  ep->failures.push_back(what + ": " + status.ToString());
}

}  // namespace

CitySpec CityPreset(int32_t nodes, uint64_t seed) {
  CitySpec spec;
  spec.world = lira::DefaultWorldConfig(nodes);
  spec.world.seed = seed;
  spec.sim = lira::DefaultSimulationConfig();
  // B scales with n at the repo's 500-per-3000-nodes ratio; a fixed B = 500
  // at 20k nodes already drops most updates and swamps the accuracy loss
  // the shedder causes.
  spec.sim.queue_capacity = std::max<size_t>(
      500, (static_cast<size_t>(nodes) * 500 + 2999) / 3000);
  spec.sim.sample_every = 1;
  spec.sim.warmup_frames = 60;
  spec.world.trace_frames = 160;
  spec.sim.threads = 1;
  spec.sim.seed = 99 + seed;
  spec.lira = lira::DefaultLiraConfig();
  return spec;
}

namespace {

/// Shared by both fleet presets: constant node density (1M per 100 km
/// square) and one query per ten nodes.
FleetSpec FleetBase(int32_t nodes, uint64_t seed) {
  FleetSpec spec;
  const double scale = std::sqrt(static_cast<double>(nodes) / 1e6);
  spec.fleet.num_nodes = nodes;
  spec.fleet.world_side = 100000.0 * scale;
  spec.fleet.seed = seed;
  spec.queries = std::max(1, nodes / 10);
  spec.station_radius = 5000.0 * scale;
  return spec;
}

}  // namespace

FleetSpec MetroPreset(int32_t nodes, uint64_t seed) {
  FleetSpec spec = FleetBase(nodes, seed);
  spec.threads = 2;
  spec.rebalance_stride = 2;
  spec.alpha = 1024;
  spec.lira = lira::DefaultLiraConfig();
  spec.lira.l = 256;
  spec.auto_throttle = true;
  spec.service_rate_per_node = 0.1;
  spec.queue_per_node = 1.0;
  spec.maintain_index = false;
  spec.answer_fraction = 0.0;
  return spec;
}

FleetSpec ServePreset(int32_t nodes, uint64_t seed) {
  FleetSpec spec = FleetBase(nodes, seed);
  spec.threads = 2;
  spec.alpha = 256;
  spec.lira = lira::DefaultLiraConfig();
  spec.auto_throttle = false;
  spec.z = 0.5;
  spec.service_rate_per_node = 0.0;
  spec.queue_per_node = 500.0 / 3000.0;
  spec.maintain_index = true;
  spec.answer_fraction = 0.1;
  return spec;
}

lira::StatusOr<lira::World> BuildCityWorld(
    const lira::WorldConfig& wc, std::map<std::string, double>* setup_s) {
  if (wc.mobility != lira::MobilityModel::kRandomWalk) {
    return lira::InvalidArgumentError(
        "the city workload replays the random-walk trace only");
  }
  auto phase_begin = Clock::now();
  auto phase = [&](const char* name) {
    const auto now = Clock::now();
    (*setup_s)[name] = MsBetween(phase_begin, now) * 1e-3;
    phase_begin = now;
  };
  auto map = lira::GenerateMap(wc.map);
  if (!map.ok()) {
    return map.status();
  }
  phase("world.map_s");
  lira::TrafficModelConfig traffic;
  traffic.num_vehicles = wc.num_nodes;
  traffic.seed = wc.seed * 2654435761ULL + 1;
  auto model = lira::TrafficModel::Create(map->network, traffic);
  if (!model.ok()) {
    return model.status();
  }
  auto trace = lira::Trace::Record(*model, wc.trace_frames, wc.dt);
  if (!trace.ok()) {
    return trace.status();
  }
  phase("world.trace_s");
  auto reduction = lira::CalibrateReduction(*trace, wc.calibration);
  if (!reduction.ok()) {
    return reduction.status();
  }
  phase("world.calibrate_s");
  auto full_rate = lira::MeasureUpdateRate(*trace, wc.calibration.delta_min);
  if (!full_rate.ok()) {
    return full_rate.status();
  }
  phase("world.full_rate_s");
  std::vector<Point> density;
  density.reserve(trace->num_nodes());
  for (NodeId id = 0; id < trace->num_nodes(); ++id) {
    density.push_back(trace->Position(0, id));
  }
  lira::QueryWorkloadConfig workload;
  workload.num_queries =
      static_cast<int32_t>(std::lround(wc.query_node_ratio * wc.num_nodes));
  workload.side_length = wc.query_side_length;
  workload.distribution = wc.query_distribution;
  workload.seed = wc.seed * 7046029254386353ULL + 5;
  auto queries = lira::GenerateQueries(workload, map->world, density);
  if (!queries.ok()) {
    return queries.status();
  }
  phase("world.queries_s");
  return lira::World{*std::move(map), *std::move(trace), *std::move(queries),
                     *std::move(reduction), *full_rate};
}

Episode RunCityEpisode(const CitySpec& spec, const lira::World& world,
                       bool traced, const std::string& trace_path,
                       CityTotals* totals) {
  Episode ep;
  ep.traced = traced;
  const lira::SimulationConfig& sc = spec.sim;

  // ---- Set-up: the pipeline and the evaluator over the shared world.
  const auto setup_begin = Clock::now();
  auto phase_begin = setup_begin;
  auto phase = [&](const char* name) {
    const auto now = Clock::now();
    ep.setup_s[name] = MsBetween(phase_begin, now) * 1e-3;
    phase_begin = now;
  };
  const lira::LiraPolicy policy(spec.lira);
  lira::telemetry::TraceRecorder recorder(2);
  PhaseSink phase_sink;
  lira::telemetry::TelemetrySink sink(&phase_sink);
  ThreadPool pool(sc.threads > 0 ? sc.threads : ThreadPool::DefaultThreads());
  // The CqServerConfig RunSimulation builds for a source-actuated policy on
  // the single in-process server.
  lira::CqServerConfig server_config;
  server_config.num_nodes = world.num_nodes();
  server_config.world = world.world_rect();
  server_config.alpha = sc.alpha;
  server_config.queue_capacity = sc.queue_capacity;
  server_config.service_rate = std::max(1.0, 4.0 * world.full_update_rate);
  server_config.adaptation_period = sc.adaptation_period;
  server_config.auto_throttle = sc.auto_throttle;
  server_config.fixed_z = sc.z;
  server_config.stats_sample_fraction = sc.stats_sample_fraction;
  server_config.incremental_stats = sc.incremental;
  server_config.maintain_index = false;
  server_config.seed = sc.seed;
  server_config.pool = &pool;
  if (traced) {
    server_config.trace = &recorder;
    server_config.telemetry = &sink;
  }
  auto server = lira::CqServer::Create(server_config, &policy,
                                       &world.reduction, &world.queries);
  if (!server.ok()) {
    Fail(&ep, "CqServer::Create", server.status());
    return ep;
  }
  phase("pipeline.create_s");
  auto evaluator = lira::IncrementalEvaluator::Create(
      world.world_rect(), sc.index_cells, world.num_nodes(), world.queries,
      sc.incremental ? lira::EvalMode::kIncremental
                     : lira::EvalMode::kFullRescan);
  if (!evaluator.ok()) {
    Fail(&ep, "IncrementalEvaluator::Create", evaluator.status());
    return ep;
  }
  phase("cq.evaluator_create_s");
  ep.setup_total_s = MsBetween(setup_begin, Clock::now()) * 1e-3;

  const std::vector<BaseStation> stations =
      Stations(world.world_rect(), kCityStationRadius, &ep);
  const lira::Trace& tr = world.trace;
  const int64_t n = world.num_nodes();
  const double delta_min = world.reduction.delta_min();
  DeadReckoningEncoder encoder(world.num_nodes());
  DeadReckoningEncoder reference_encoder(world.num_nodes());
  lira::PositionTracker reference_tracker(world.num_nodes());
  lira::ErrorMetricsAccumulator accuracy(world.queries.size());
  lira::NodeStore store(world.num_nodes());
  std::vector<double> eval_truth_x(n);
  std::vector<double> eval_truth_y(n);
  NodeScratch scratch(pool.num_threads());
  NodeScratch reference_scratch(pool.num_threads());
  std::vector<ModelUpdate> batch;
  AdaptSchedule schedule(sc.adaptation_period);
  std::vector<TickWindow> windows;

  int64_t arrivals0 = 0, dropped0 = 0, applied0 = 0, deltas0 = 0,
          touched0 = 0, builds0 = 0, sent = 0, depth_max = 0;
  for (int32_t frame = 0; frame < tr.num_frames(); ++frame) {
    // Counts cover every frame from the end of warm-up; timings skip the
    // first of them, whose CQ refresh builds every answer from scratch.
    const bool measured = frame >= sc.warmup_frames;
    const bool timed = frame > sc.warmup_frames;
    if (frame == sc.warmup_frames) {
      arrivals0 = server->queue_arrivals();
      dropped0 = server->queue_dropped();
      applied0 = server->updates_applied();
      deltas0 = evaluator->deltas_applied();
      touched0 = evaluator->queries_touched();
      builds0 = server->plan_builds();
    }
    std::map<std::string, double>* layers = timed ? &ep.layer_ms : nullptr;
    double frame_ms = 0.0;
    const double t = tr.TimeOf(frame);
    const SheddingPlan& plan = server->plan();
    const float* states = tr.FrameData(frame);

    // Node side: replay the trace row, look up each node's throttler in the
    // active plan, and dead-reckon against it; the reference system does
    // the same at delta_min with every update applied.
    {
      LayerTimer timer(layers, "motion.step");
      pool.ParallelFor(0, n, kNodeGrain, [&](int32_t, int64_t b, int64_t e) {
        lira::kernels::UnpackFrame(e - b, states + 4 * b, store.truth_x() + b,
                                   store.truth_y() + b, store.vel_x() + b,
                                   store.vel_y() + b);
      });
      frame_ms += timer.Stop();
    }
    {
      LayerTimer timer(layers, "node.plan_lookup");
      pool.ParallelFor(0, n, kNodeGrain, [&](int32_t, int64_t b, int64_t e) {
        plan.FillDeltas(e - b, store.truth_x() + b, store.truth_y() + b,
                        store.delta() + b);
      });
      frame_ms += timer.Stop();
    }
    {
      LayerTimer timer(layers, "node.encode");
      EncodeNodes(pool, encoder, n, store.truth_x(), store.truth_y(),
                  store.vel_x(), store.vel_y(), t, store.delta(), scratch,
                  &batch);
      frame_ms += timer.Stop();
    }
    {
      LayerTimer timer(layers, "reference.encode");
      pool.ParallelFor(0, n, kNodeGrain, [&](int32_t chunk, int64_t b,
                                             int64_t e) {
        FrameArena& arena = reference_scratch.arenas[chunk];
        arena.Reset();
        uint8_t* decision = arena.AllocSpan<uint8_t>(e - b);
        std::vector<ModelUpdate>& out = reference_scratch.updates[chunk];
        out.clear();
        reference_encoder.ObserveSpanUniform(
            static_cast<NodeId>(b), e - b, store.truth_x() + b,
            store.truth_y() + b, store.vel_x() + b, store.vel_y() + b, t,
            delta_min, decision, &out);
        for (const ModelUpdate& update : out) {
          reference_tracker.Apply(update);
        }
      });
      frame_ms += timer.Stop();
    }
    if (measured) {
      sent += static_cast<int64_t>(batch.size());
    }

    // Server: admit the batch, advance the clock one frame.
    TickWindow window;
    window.phase_begin = phase_sink.phases().size();
    window.receive_begin_ns = recorder.NowNs();
    const auto r0 = Clock::now();
    server->ReceiveBatch(&batch);
    const auto r1 = Clock::now();
    window.receive_end_ns = recorder.NowNs();
    if (measured) {
      depth_max = std::max<int64_t>(
          depth_max, static_cast<int64_t>(server->queue_size()));
    }
    const bool adapting = schedule.Advance(tr.dt());
    const int64_t builds_before = server->plan_builds();
    window.tick_begin_ns = recorder.NowNs();
    const auto t0 = Clock::now();
    const lira::Status status = server->Tick(tr.dt());
    const auto t1 = Clock::now();
    window.tick_end_ns = recorder.NowNs();
    window.phase_end = phase_sink.phases().size();
    ++ep.attempted;
    if (!status.ok()) {
      ++ep.failed;
      Fail(&ep, "Tick", status);
      return ep;
    }
    if ((server->plan_builds() > builds_before) != adapting) {
      ep.failures.push_back("tick " + std::to_string(frame) +
                            " disagrees with the adaptation schedule");
    }
    if (timed) {
      const double receive_ms = MsBetween(r0, r1);
      const double tick_ms = MsBetween(t0, t1);
      ep.layer_ms["ingest.receive"] += receive_ms;
      RecordServerTick(&ep, receive_ms, tick_ms, adapting);
      frame_ms += receive_ms + tick_ms;
      windows.push_back(window);
    }
    if (adapting) {
      const double before = ep.layer_ms["plan.encode"];
      BroadcastPlan(server->plan(), stations, timed, measured, &ep);
      frame_ms += ep.layer_ms["plan.encode"] - before;
    }

    // CQ refresh: reference and believed positions, then the evaluator.
    if (measured && (frame - sc.warmup_frames) % sc.sample_every == 0) {
      double eval_ms = 0.0;
      {
        LayerTimer timer(layers, "cq.reference_predict");
        pool.ParallelFor(0, n, kNodeGrain, [&](int32_t, int64_t b, int64_t e) {
          reference_tracker.PredictSpan(
              static_cast<NodeId>(b), e - b, t, store.truth_x() + b,
              store.truth_y() + b, eval_truth_x.data() + b,
              eval_truth_y.data() + b, /*known=*/nullptr);
        });
        eval_ms += timer.Stop();
      }
      {
        LayerTimer timer(layers, "cq.fill_believed");
        pool.ParallelFor(0, n, kNodeGrain, [&](int32_t, int64_t b, int64_t e) {
          server->FillBelievedInto(static_cast<NodeId>(b), e - b, t,
                                   store.believed_x() + b,
                                   store.believed_y() + b,
                                   store.believed_known() + b);
        });
        eval_ms += timer.Stop();
      }
      {
        LayerTimer timer(layers, "cq.apply_sample");
        evaluator->ApplySample(eval_truth_x.data(), eval_truth_y.data(),
                               store.believed_x(), store.believed_y(),
                               store.believed_known(), &pool);
        eval_ms += timer.Stop();
      }
      {
        LayerTimer timer(layers, "cq.evaluate");
        accuracy.AddSample(evaluator->Evaluate(&pool));
        eval_ms += timer.Stop();
      }
      if (timed) {
        ep.eval_ms.push_back(eval_ms);
      }
      frame_ms += eval_ms;
    }
    if (timed) {
      ep.loop_s += frame_ms * 1e-3;
      ++ep.ticks;
    }
  }

  const lira::ErrorMetrics metrics = accuracy.Compute();
  ep.counts["node.updates_sent"] = sent;
  ep.counts["ingest.arrivals"] = server->queue_arrivals() - arrivals0;
  ep.counts["ingest.dropped"] = server->queue_dropped() - dropped0;
  ep.counts["ingest.queue_depth_max"] = depth_max;
  ep.counts["tracker.applied"] = server->updates_applied() - applied0;
  ep.counts["cq.deltas_applied"] = evaluator->deltas_applied() - deltas0;
  ep.counts["cq.queries_touched"] = evaluator->queries_touched() - touched0;
  ep.counts["plan.builds"] = server->plan_builds() - builds0;
  ep.counts["state_hash"] =
      static_cast<int64_t>(StateHash(server->stats(), server->plan()));
  ep.quality["containment_error"] = metrics.mean_containment_error;
  ep.quality["position_error_m"] = metrics.mean_position_error;
  const int32_t measured_frames = tr.num_frames() - sc.warmup_frames;
  ep.quality["load_fraction"] =
      static_cast<double>(sent) /
      (static_cast<double>(measured_frames) * tr.dt()) /
      world.full_update_rate;
  const int64_t arrivals = ep.counts["ingest.arrivals"];
  ep.quality["drop_frac"] =
      arrivals > 0 ? static_cast<double>(ep.counts["ingest.dropped"]) /
                         static_cast<double>(arrivals)
                   : 0.0;
  ep.quality["final_z"] = server->z();
  if (ep.counts["ingest.arrivals"] != sent) {
    ep.failures.push_back("the server saw a different number of arrivals "
                          "than the nodes sent");
  }
  if (traced) {
    ep.traced_ms = FoldSpans(recorder, windows, phase_sink.phases());
    if (!trace_path.empty()) {
      if (lira::Status s = recorder.WriteChromeTrace(trace_path); !s.ok()) {
        Fail(&ep, "WriteChromeTrace", s);
      }
    }
  }
  if (totals != nullptr) {
    totals->metrics = metrics;
    totals->updates_sent = encoder.updates_emitted();
    totals->updates_dropped = server->queue_dropped();
    totals->updates_applied = server->updates_applied();
    totals->final_z = server->z();
    totals->final_plan = server->plan();
  }
  return ep;
}

Episode RunFleetEpisode(const FleetSpec& spec, bool traced,
                        const std::string& trace_path) {
  Episode ep;
  ep.traced = traced;
  const int32_t n = spec.fleet.num_nodes;

  // ---- Set-up: the fleet, a calibration sub-fleet, the registry, the
  // cluster.
  const auto setup_begin = Clock::now();
  auto phase_begin = setup_begin;
  auto phase = [&](const char* name) {
    const auto now = Clock::now();
    ep.setup_s[name] = MsBetween(phase_begin, now) * 1e-3;
    phase_begin = now;
  };
  auto fleet = SyntheticFleet::Create(spec.fleet);
  if (!fleet.ok()) {
    Fail(&ep, "SyntheticFleet::Create", fleet.status());
    return ep;
  }
  phase("fleet.generate_s");
  // f and the full rate at delta_min are measured on a recorded sub-fleet
  // with the same dynamics (the per-node reporting rate does not depend on
  // n), then scaled to n.
  FleetConfig sub_config = spec.fleet;
  sub_config.num_nodes = std::min(n, kCalibrationNodes);
  auto sub_fleet = SyntheticFleet::Create(sub_config);
  if (!sub_fleet.ok()) {
    Fail(&ep, "SyntheticFleet::Create(calibration)", sub_fleet.status());
    return ep;
  }
  auto sub_trace =
      lira::Trace::Record(*sub_fleet, kCalibrationFrames, 1.0);
  if (!sub_trace.ok()) {
    Fail(&ep, "Trace::Record", sub_trace.status());
    return ep;
  }
  const lira::CalibrationConfig calibration;
  auto reduction = lira::CalibrateReduction(*sub_trace, calibration);
  auto sub_rate = lira::MeasureUpdateRate(*sub_trace, calibration.delta_min);
  if (!reduction.ok() || !sub_rate.ok()) {
    Fail(&ep, "calibration",
         reduction.ok() ? sub_rate.status() : reduction.status());
    return ep;
  }
  const double full_rate =
      *sub_rate * static_cast<double>(n) / sub_config.num_nodes;
  phase("fleet.calibrate_s");
  const lira::QueryRegistry queries =
      HotspotQueries(*fleet, spec.queries, kQuerySide,
                     spec.fleet.seed * 0x9e3779b97f4a7c15ULL + 17);
  phase("fleet.queries_s");

  const lira::LiraPolicy policy(spec.lira);
  lira::telemetry::TraceRecorder recorder(kFleetShards + 1);
  PhaseSink phase_sink;
  lira::telemetry::TelemetrySink sink(&phase_sink);
  lira::ServerClusterConfig cluster_config;
  lira::CqServerConfig& server_config = cluster_config.server;
  server_config.num_nodes = n;
  server_config.world = fleet->world();
  server_config.alpha = spec.alpha;
  server_config.queue_capacity = std::max<size_t>(
      1, static_cast<size_t>(std::llround(spec.queue_per_node * n)));
  server_config.service_rate =
      spec.service_rate_per_node > 0.0 ? spec.service_rate_per_node * n
                                       : std::max(1.0, 4.0 * full_rate);
  server_config.adaptation_period = kFleetAdaptationPeriod;
  server_config.auto_throttle = spec.auto_throttle;
  server_config.fixed_z = spec.z;
  server_config.maintain_index = spec.maintain_index;
  server_config.seed = spec.fleet.seed + 1234;
  if (traced) {
    server_config.trace = &recorder;
    server_config.telemetry = &sink;
  }
  cluster_config.shards = kFleetShards;
  cluster_config.threads = spec.threads;
  cluster_config.rebalance_stride = spec.rebalance_stride;
  auto created = lira::ServerCluster::Create(cluster_config, &policy,
                                             &*reduction, &queries);
  if (!created.ok()) {
    Fail(&ep, "ServerCluster::Create", created.status());
    return ep;
  }
  lira::ServerCluster& cluster = **created;
  phase("pipeline.create_s");
  ep.setup_total_s = MsBetween(setup_begin, Clock::now()) * 1e-3;

  ThreadPool pool(spec.threads);
  const std::vector<BaseStation> stations =
      Stations(fleet->world(), spec.station_radius, &ep);
  DeadReckoningEncoder encoder(n);
  std::vector<double> delta(n);
  NodeScratch scratch(pool.num_threads());
  std::vector<ModelUpdate> batch;
  // Shard of each node's previous report, for the cross-shard report count.
  std::vector<int32_t> last_shard(n, -1);
  AdaptSchedule schedule(kFleetAdaptationPeriod);
  std::vector<TickWindow> windows;
  // Brute-force check scratch: believed columns over all nodes.
  std::vector<double> believed_x, believed_y;
  std::vector<uint8_t> believed_known;
  const int32_t m = queries.size();
  const int32_t slice =
      spec.answer_fraction > 0.0
          ? std::max(1, static_cast<int32_t>(
                            std::ceil(spec.answer_fraction * m)))
          : 0;
  uint64_t answer_hash = kFnvBasis;
  int64_t answer_calls = 0, answer_failed = 0, answer_hits = 0;
  int64_t arrivals0 = 0, dropped0 = 0, applied0 = 0, migrated0 = 0,
          builds0 = 0, sent = 0, depth_max = 0, cross_shard = 0;
  double min_z = cluster.z();
  const double dt = 1.0;
  const int32_t total_ticks = spec.warmup_ticks + spec.measured_ticks;
  for (int32_t frame = 0; frame < total_ticks; ++frame) {
    const bool measured = frame >= spec.warmup_ticks;
    if (frame == spec.warmup_ticks) {
      arrivals0 = cluster.queue_arrivals();
      dropped0 = cluster.queue_dropped();
      applied0 = cluster.updates_applied();
      migrated0 = cluster.nodes_migrated();
      builds0 = cluster.plan_builds();
    }
    std::map<std::string, double>* layers = measured ? &ep.layer_ms : nullptr;
    double frame_ms = 0.0;
    const SheddingPlan& plan = cluster.plan();
    {
      LayerTimer timer(layers, "motion.step");
      fleet->Step(dt, &pool);
      frame_ms += timer.Stop();
    }
    const double t = fleet->time();
    {
      LayerTimer timer(layers, "node.plan_lookup");
      pool.ParallelFor(0, n, kNodeGrain, [&](int32_t, int64_t b, int64_t e) {
        plan.FillDeltas(e - b, fleet->x() + b, fleet->y() + b,
                        delta.data() + b);
      });
      frame_ms += timer.Stop();
    }
    {
      LayerTimer timer(layers, "node.encode");
      EncodeNodes(pool, encoder, n, fleet->x(), fleet->y(), fleet->vx(),
                  fleet->vy(), t, delta.data(), scratch, &batch);
      frame_ms += timer.Stop();
    }
    if (measured) {
      sent += static_cast<int64_t>(batch.size());
      for (const ModelUpdate& update : batch) {
        const int32_t shard = cluster.shard_map().ShardFor(update.model.origin);
        int32_t& last = last_shard[update.node_id];
        cross_shard += (last >= 0 && last != shard) ? 1 : 0;
        last = shard;
      }
    } else {
      for (const ModelUpdate& update : batch) {
        last_shard[update.node_id] =
            cluster.shard_map().ShardFor(update.model.origin);
      }
    }

    TickWindow window;
    window.phase_begin = phase_sink.phases().size();
    window.receive_begin_ns = recorder.NowNs();
    const auto r0 = Clock::now();
    cluster.ReceiveBatch(&batch);
    const auto r1 = Clock::now();
    window.receive_end_ns = recorder.NowNs();
    if (measured) {
      depth_max = std::max<int64_t>(
          depth_max, static_cast<int64_t>(cluster.queue_size()));
    }
    const bool adapting = schedule.Advance(dt);
    const int64_t builds_before = cluster.plan_builds();
    window.tick_begin_ns = recorder.NowNs();
    const auto t0 = Clock::now();
    const lira::Status status = cluster.Tick(dt);
    const auto t1 = Clock::now();
    window.tick_end_ns = recorder.NowNs();
    window.phase_end = phase_sink.phases().size();
    ++ep.attempted;
    if (!status.ok()) {
      ++ep.failed;
      Fail(&ep, "Tick", status);
      return ep;
    }
    if ((cluster.plan_builds() > builds_before) != adapting) {
      ep.failures.push_back("tick " + std::to_string(frame) +
                            " disagrees with the adaptation schedule");
    }
    if (measured) {
      const double receive_ms = MsBetween(r0, r1);
      const double tick_ms = MsBetween(t0, t1);
      ep.layer_ms["ingest.receive"] += receive_ms;
      RecordServerTick(&ep, receive_ms, tick_ms, adapting);
      frame_ms += receive_ms + tick_ms;
      windows.push_back(window);
      min_z = std::min(min_z, cluster.z());
    }
    if (adapting) {
      const double before = ep.layer_ms["plan.encode"];
      BroadcastPlan(cluster.plan(), stations, measured, measured, &ep);
      frame_ms += ep.layer_ms["plan.encode"] - before;
    }

    // The rotating AnswerQuery slice; the first answers are kept for the
    // brute-force check on sampled ticks.
    if (measured && slice > 0) {
      const int32_t tick_index = frame - spec.warmup_ticks;
      const bool check = tick_index % spec.answer_check_stride == 0;
      std::vector<std::pair<lira::QueryId, std::vector<NodeId>>> kept;
      const int64_t first = (static_cast<int64_t>(frame) * slice) % m;
      double slice_ms = 0.0;
      for (int32_t k = 0; k < slice; ++k) {
        const auto q = static_cast<lira::QueryId>((first + k) % m);
        const auto a0 = Clock::now();
        auto answer = cluster.AnswerQuery(q);
        const double us = MsBetween(a0, Clock::now()) * 1e3;
        slice_ms += us * 1e-3;
        ep.answer_us.push_back(us);
        ++answer_calls;
        if (!answer.ok()) {
          ++answer_failed;
          continue;
        }
        answer_hits += static_cast<int64_t>(answer->size());
        for (const NodeId id : *answer) {
          answer_hash = Fnv(answer_hash, static_cast<uint64_t>(id));
        }
        if (check && k < spec.answer_check_queries) {
          kept.emplace_back(q, *std::move(answer));
        }
      }
      ep.layer_ms["cq.answer"] += slice_ms;
      frame_ms += slice_ms;
      if (check) {
        believed_x.resize(n);
        believed_y.resize(n);
        believed_known.resize(n);
        cluster.FillBelievedInto(0, n, cluster.time(), believed_x.data(),
                                 believed_y.data(), believed_known.data());
        for (const auto& [q, got] : kept) {
          const Rect& range = queries.Get(q).range;
          std::vector<NodeId> want;
          for (NodeId id = 0; id < n; ++id) {
            if (believed_known[id] &&
                range.Contains({believed_x[id], believed_y[id]})) {
              want.push_back(id);
            }
          }
          if (got != want) {
            ep.failures.push_back(
                "AnswerQuery(" + std::to_string(q) + ") at tick " +
                std::to_string(frame) + " returned " +
                std::to_string(got.size()) + " ids; brute force finds " +
                std::to_string(want.size()));
            break;
          }
        }
      }
    }
    if (measured) {
      ep.loop_s += frame_ms * 1e-3;
      ++ep.ticks;
    }
  }

  ep.attempted += answer_calls;
  ep.failed += answer_failed;
  ep.counts["node.updates_sent"] = sent;
  ep.counts["ingest.arrivals"] = cluster.queue_arrivals() - arrivals0;
  ep.counts["ingest.dropped"] = cluster.queue_dropped() - dropped0;
  ep.counts["ingest.queue_depth_max"] = depth_max;
  ep.counts["tracker.applied"] = cluster.updates_applied() - applied0;
  ep.counts["tracker.handoffs"] = cross_shard;
  ep.counts["cluster.nodes_migrated"] = cluster.nodes_migrated() - migrated0;
  ep.counts["cq.answer_hits"] = answer_hits;
  ep.counts["plan.builds"] = cluster.plan_builds() - builds0;
  ep.counts["answer_hash"] = static_cast<int64_t>(answer_hash);
  ep.counts["state_hash"] =
      static_cast<int64_t>(StateHash(cluster.stats(), cluster.plan()));
  ep.quality["load_fraction"] =
      ep.ticks > 0 ? static_cast<double>(sent) /
                         (static_cast<double>(ep.ticks) * dt) / full_rate
                   : 0.0;
  const int64_t arrivals = ep.counts["ingest.arrivals"];
  ep.quality["drop_frac"] =
      (arrivals > 0 ? static_cast<double>(ep.counts["ingest.dropped"]) /
                          static_cast<double>(arrivals)
                    : 0.0) +
      (answer_calls > 0 ? static_cast<double>(answer_failed) /
                              static_cast<double>(answer_calls)
                        : 0.0);
  ep.quality["final_z"] = cluster.z();
  ep.quality["min_z"] = min_z;
  if (arrivals != sent) {
    ep.failures.push_back("the cluster saw a different number of arrivals "
                          "than the nodes sent");
  }
  if (spec.auto_throttle && !(min_z < 1.0)) {
    ep.failures.push_back("THROTLOOP never lowered z below 1 although the "
                          "offered load exceeds the service rate");
  }
  if (traced) {
    ep.traced_ms = FoldSpans(recorder, windows, phase_sink.phases());
    if (!trace_path.empty()) {
      if (lira::Status s = recorder.WriteChromeTrace(trace_path); !s.ok()) {
        Fail(&ep, "WriteChromeTrace", s);
      }
    }
  }
  return ep;
}

}  // namespace tickbench
