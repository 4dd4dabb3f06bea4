#include "lira/sim/simulation.h"

#include <algorithm>
#include <fstream>
#include <utility>
#include <vector>

#include "lira/common/arena.h"
#include "lira/common/kernels.h"
#include "lira/common/node_store.h"
#include "lira/common/parallel.h"
#include "lira/common/rng.h"
#include "lira/common/stats.h"
#include "lira/cq/incremental_evaluator.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/server/cluster_health.h"
#include "lira/server/history_store.h"
#include "lira/server/server_cluster.h"

namespace lira {

StatusOr<SimulationResult> RunSimulation(const World& world,
                                         const LoadSheddingPolicy& policy,
                                         const SimulationConfig& config) {
  const Trace& trace = world.trace;
  if (config.warmup_frames < 0 ||
      config.warmup_frames >= trace.num_frames()) {
    return InvalidArgumentError("warmup_frames out of range");
  }
  if (config.sample_every < 1) {
    return InvalidArgumentError("sample_every must be >= 1");
  }
  if (config.telemetry_stride < 1) {
    return InvalidArgumentError("telemetry_stride must be >= 1");
  }
  if (config.threads < 0) {
    return InvalidArgumentError("threads must be >= 0");
  }
  if (config.shards < 0) {
    return InvalidArgumentError("shards must be >= 0");
  }
  if (config.rebalance_stride < 0) {
    return InvalidArgumentError("rebalance_stride must be >= 0");
  }
  if (config.rebalance_stride > 0 && config.shards == 0) {
    return InvalidArgumentError(
        "rebalance_stride requires a sharded cluster (shards >= 1)");
  }
  if (config.health_stride < 1) {
    return InvalidArgumentError("health_stride must be >= 1");
  }
  // Shard k traces into lane k + 1, and shards == 0 runs one shard.
  const int32_t num_shards = std::max(config.shards, 1);
  if (config.trace != nullptr && config.trace->num_lanes() < num_shards + 1) {
    return InvalidArgumentError(
        "trace recorder needs at least max(shards, 1) + 1 lanes");
  }

  CqServerConfig server_config;
  server_config.num_nodes = world.num_nodes();
  server_config.world = world.world_rect();
  server_config.alpha = config.alpha;
  server_config.queue_capacity = config.queue_capacity;
  if (config.service_rate_override > 0.0) {
    server_config.service_rate = config.service_rate_override;
  } else if (policy.SheddingAtServer()) {
    // The update budget is the server capacity: Random Drop receives the
    // full load and the queue rejects what exceeds z times it.
    server_config.service_rate =
        std::max(1.0, config.z * world.full_update_rate);
  } else {
    // Source-actuated policies cut the load at the encoders; provision the
    // service stage so queueing delay does not confound the threshold-
    // induced accuracy loss (the paper's fixed-z experiments do the same).
    server_config.service_rate = std::max(1.0, 4.0 * world.full_update_rate);
  }
  server_config.adaptation_period = config.adaptation_period;
  server_config.auto_throttle = config.auto_throttle;
  server_config.fixed_z = config.z;
  server_config.record_history = config.evaluate_history;
  server_config.stats_sample_fraction = config.stats_sample_fraction;
  server_config.incremental_stats = config.incremental;
  // The harness evaluates queries through its own snapshot indexes; skip
  // the server's per-tick snapshot-grid rebuild.
  server_config.maintain_index = false;
  server_config.telemetry = config.telemetry;
  server_config.trace = config.trace;
  server_config.flight_recorder = config.flight_recorder;
  server_config.seed = config.seed;

  // Parallel execution (DESIGN.md §7): the per-frame node loop and the
  // accuracy-sampling pass share a deterministic fork-join pool.
  // threads == 1 (or a 0 default on a single-core host) bypasses the pool.
  ThreadPool pool(config.threads > 0 ? config.threads
                                     : ThreadPool::DefaultThreads());

  // shards == 0 runs one shard on the simulator's pool (the frame loop
  // calls the server only outside its own fan-out, so the sections never
  // nest); S >= 1 shards own min(threads, S) workers. Results are bitwise
  // identical either way (sim/simulation_test).
  ServerClusterConfig cluster_config;
  cluster_config.server = server_config;
  cluster_config.shards = num_shards;
  cluster_config.threads = config.threads;
  cluster_config.rebalance_stride = config.rebalance_stride;
  if (config.shards == 0) {
    cluster_config.server.pool = &pool;
  }
  auto created = ServerCluster::Create(cluster_config, &policy,
                                       &world.reduction, &world.queries);
  if (!created.ok()) {
    return created.status();
  }
  ServerCluster* server = created->get();

  // Periodic cluster health snapshots (JSONL; one ClusterHealth per line).
  std::ofstream health_out;
  const bool write_health = !config.health_path.empty();
  if (write_health) {
    health_out.open(config.health_path);
    if (!health_out) {
      return InvalidArgumentError("cannot open health snapshot file: " +
                                  config.health_path);
    }
  }

  DeadReckoningEncoder encoder(world.num_nodes());
  // The paper's reference system: every node dead-reckons at delta_min and
  // every update is processed (R*(q) and p*(o) are defined "under
  // Delta_i = delta_min for all i", Section 4.1.1) -- errors measure the
  // degradation caused by load shedding, not by dead reckoning itself.
  DeadReckoningEncoder reference_encoder(world.num_nodes());
  PositionTracker reference_tracker(world.num_nodes());
  HistoryStore reference_history(config.evaluate_history ? world.num_nodes()
                                                         : 0);
  ErrorMetricsAccumulator metrics(world.queries.size());

  // Accuracy sampling goes through the IncrementalEvaluator: in the default
  // incremental mode it maintains per-query member sets as deltas and skips
  // unmoved nodes; kFullRescan reproduces the original GridIndex +
  // CompareAllQueries pass verbatim. Both produce bitwise-identical output.
  auto evaluator = IncrementalEvaluator::Create(
      world.world_rect(), config.index_cells, world.num_nodes(),
      world.queries,
      config.incremental ? EvalMode::kIncremental : EvalMode::kFullRescan);
  if (!evaluator.ok()) {
    return evaluator.status();
  }

  int64_t measured_updates = 0;
  int64_t measured_frames = 0;

  const int64_t num_nodes = world.num_nodes();
  constexpr int64_t kNodeGrain = 256;
  // Per-worker scratch, hoisted out of the frame loop and reused (clear
  // keeps the capacity): emitted updates per chunk, merged into `batch` in
  // chunk order == node order, so the server sees the exact serial batch.
  std::vector<std::vector<ModelUpdate>> batch_scratch(pool.num_threads());
  std::vector<std::vector<ModelUpdate>> reference_scratch(pool.num_threads());
  // Per-chunk decision-lane arenas (ParallelFor chunk c always runs on
  // worker c, so an arena is never touched by two threads; Reset at chunk
  // start makes steady-state frames allocation-free).
  std::vector<FrameArena> arenas(pool.num_threads());
  std::vector<ModelUpdate> batch;
  // SoA frame snapshot (DESIGN.md §11): truth positions/velocities widened
  // from the trace row by the UnpackFrame kernel, per-node thresholds from
  // the active plan, and believed-position columns filled by the pipeline
  // at sampling time.
  NodeStore store(static_cast<int32_t>(num_nodes));
  // Evaluation truth: the reference prediction, falling back to the frame
  // truth. Separate columns from the store, so PredictSpan's outputs never
  // alias its fallback inputs.
  std::vector<double> eval_truth_x(num_nodes);
  std::vector<double> eval_truth_y(num_nodes);
  const double delta_min = world.reduction.delta_min();
  // Cumulative evaluator counters already forwarded to telemetry.
  int64_t deltas_emitted = 0;
  int64_t touched_emitted = 0;

  for (int32_t frame = 0; frame < trace.num_frames(); ++frame) {
    const double t = trace.TimeOf(frame);
    const SheddingPlan& plan = server->plan();

    // Node side: every node checks its deviation against the throttler of
    // its current shedding region and transmits when it exceeds it. Chunks
    // own disjoint id ranges: encoder/tracker/history state is per-node,
    // the plan is immutable, and counters are atomic. Each chunk stages its
    // frame columns with the UnpackFrame/FillDeltas kernels and runs the
    // vectorized deviation filter; per-lane decisions are identical to the
    // scalar Observe path (ambiguous lanes re-resolve with the exact scalar
    // expression), so the emitted update stream is bitwise unchanged.
    for (std::vector<ModelUpdate>& chunk_out : batch_scratch) {
      chunk_out.clear();
    }
    const float* frame_states = trace.FrameData(frame);
    pool.ParallelFor(
        0, num_nodes, kNodeGrain,
        [&](int32_t chunk, int64_t chunk_begin, int64_t chunk_end) {
          const int64_t len = chunk_end - chunk_begin;
          kernels::UnpackFrame(len, frame_states + 4 * chunk_begin,
                               store.truth_x() + chunk_begin,
                               store.truth_y() + chunk_begin,
                               store.vel_x() + chunk_begin,
                               store.vel_y() + chunk_begin);
          plan.FillDeltas(len, store.truth_x() + chunk_begin,
                          store.truth_y() + chunk_begin,
                          store.delta() + chunk_begin);
          FrameArena& arena = arenas[chunk];
          arena.Reset();
          uint8_t* decision = arena.AllocSpan<uint8_t>(len);
          encoder.ObserveSpan(static_cast<NodeId>(chunk_begin), len,
                              store.truth_x() + chunk_begin,
                              store.truth_y() + chunk_begin,
                              store.vel_x() + chunk_begin,
                              store.vel_y() + chunk_begin, t,
                              store.delta() + chunk_begin, decision,
                              &batch_scratch[chunk]);
          std::vector<ModelUpdate>& reference_out = reference_scratch[chunk];
          reference_out.clear();
          reference_encoder.ObserveSpanUniform(
              static_cast<NodeId>(chunk_begin), len,
              store.truth_x() + chunk_begin, store.truth_y() + chunk_begin,
              store.vel_x() + chunk_begin, store.vel_y() + chunk_begin, t,
              delta_min, decision, &reference_out);
          for (const ModelUpdate& update : reference_out) {
            reference_tracker.Apply(update);
            if (config.evaluate_history) {
              reference_history.Record(update);
            }
          }
        });
    batch.clear();
    for (const std::vector<ModelUpdate>& chunk_out : batch_scratch) {
      batch.insert(batch.end(), chunk_out.begin(), chunk_out.end());
    }
    if (frame >= config.warmup_frames) {
      measured_updates += static_cast<int64_t>(batch.size());
      ++measured_frames;
    }
    server->ReceiveBatch(&batch);
    LIRA_RETURN_IF_ERROR(server->Tick(trace.dt()));

    if (write_health && frame % config.health_stride == 0) {
      WriteHealthJson(server->HealthSnapshot(), health_out);
      health_out << "\n";
    }

    // Telemetry sampling: the z / queue-depth trajectory plus cumulative
    // queue counters, decimated by the stride to bound overhead.
    if (config.telemetry != nullptr && frame % config.telemetry_stride == 0) {
      telemetry::TelemetrySink& sink = *config.telemetry;
      sink.SampleGauge("lira.throtloop.z", t, server->z());
      sink.SampleGauge("lira.queue.depth", t,
                       static_cast<double>(server->queue_size()));
      sink.Emit(telemetry::EventKind::kCounter, "lira.queue.arrivals", t,
                static_cast<double>(server->queue_arrivals()));
      sink.Emit(telemetry::EventKind::kCounter, "lira.queue.dropped", t,
                static_cast<double>(server->queue_dropped()));
      // Memory-shape gauges (ISSUE 8): heap bytes per node across the SoA
      // columns, and the largest per-frame scratch watermark any worker
      // arena has reached.
      const size_t node_bytes =
          store.MemoryBytes() + evaluator->node_state_bytes();
      sink.SampleGauge("lira.mem.bytes_per_node", t,
                       static_cast<double>(node_bytes) /
                           static_cast<double>(std::max<int64_t>(1,
                                                                 num_nodes)));
      size_t arena_hw = evaluator->arena_high_watermark();
      for (const FrameArena& arena : arenas) {
        arena_hw = std::max(arena_hw, arena.high_watermark());
      }
      sink.SampleGauge("lira.frame.arena_high_watermark", t,
                       static_cast<double>(arena_hw));
    }

    // Accuracy sampling: phase one predicts every node's reference and
    // believed position into per-node column slots (parallel, no shared
    // writes; reference via the reference tracker's PredictSpan with the
    // frame truth as fallback, believed via the server's bulk fill), then
    // the evaluator applies the columns to the snapshot indexes.
    if (frame >= config.warmup_frames &&
        (frame - config.warmup_frames) % config.sample_every == 0) {
      pool.ParallelFor(
          0, num_nodes, kNodeGrain,
          [&](int32_t /*chunk*/, int64_t chunk_begin, int64_t chunk_end) {
            const int64_t len = chunk_end - chunk_begin;
            reference_tracker.PredictSpan(
                static_cast<NodeId>(chunk_begin), len, t,
                store.truth_x() + chunk_begin, store.truth_y() + chunk_begin,
                eval_truth_x.data() + chunk_begin,
                eval_truth_y.data() + chunk_begin, /*known=*/nullptr);
            server->FillBelievedInto(static_cast<NodeId>(chunk_begin), len, t,
                                     store.believed_x() + chunk_begin,
                                     store.believed_y() + chunk_begin,
                                     store.believed_known() + chunk_begin);
          });
      evaluator->ApplySample(eval_truth_x.data(), eval_truth_y.data(),
                             store.believed_x(), store.believed_y(),
                             store.believed_known(), &pool);
      metrics.AddSample(evaluator->Evaluate(&pool));
      if (config.telemetry != nullptr) {
        telemetry::TelemetrySink& sink = *config.telemetry;
        sink.Count("lira.cq.delta_applied", t,
                   evaluator->deltas_applied() - deltas_emitted);
        sink.Count("lira.cq.queries_touched", t,
                   evaluator->queries_touched() - touched_emitted);
        deltas_emitted = evaluator->deltas_applied();
        touched_emitted = evaluator->queries_touched();
      }
    }
  }

  SimulationResult result;
  result.metrics = metrics.Compute();
  result.final_z = server->z();
  result.updates_sent = encoder.updates_emitted();
  result.updates_dropped = server->queue_dropped();
  result.updates_applied = server->updates_applied();
  result.plan_builds = server->plan_builds();
  result.mean_plan_build_seconds =
      server->plan_builds() > 0
          ? server->total_plan_build_seconds() / server->plan_builds()
          : 0.0;
  result.final_plan_regions = server->plan().NumRegions();
  result.final_plan_min_delta = server->plan().MinDelta();
  result.final_plan_max_delta = server->plan().MaxDelta();
  const HistoryStore* history = server->history();
  if (history != nullptr && config.history_probes > 0) {
    // Random historical snapshot probes over the measured window.
    Rng rng(config.seed ^ 0x5eedULL);
    const Rect world_rect = world.world_rect();
    const double t_lo = trace.TimeOf(config.warmup_frames);
    const double t_hi = trace.TimeOf(trace.num_frames() - 1);
    RunningStat containment;
    RunningStat position;
    for (int32_t probe = 0; probe < config.history_probes; ++probe) {
      const double t = rng.Uniform(t_lo, t_hi);
      const double side = rng.Uniform(500.0, 1500.0);
      const Point center{
          rng.Uniform(world_rect.min_x + side / 2,
                      world_rect.max_x - side / 2),
          rng.Uniform(world_rect.min_y + side / 2,
                      world_rect.max_y - side / 2)};
      const Rect range = Rect::CenteredAt(center, side);
      std::vector<NodeId> got = history->RangeAt(range, t);
      std::vector<NodeId> want = reference_history.RangeAt(range, t);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      int32_t sym_diff = 0;
      size_t i = 0;
      size_t j = 0;
      while (i < got.size() && j < want.size()) {
        if (got[i] == want[j]) {
          ++i;
          ++j;
        } else if (got[i] < want[j]) {
          ++sym_diff;
          ++i;
        } else {
          ++sym_diff;
          ++j;
        }
      }
      sym_diff += static_cast<int32_t>((got.size() - i) + (want.size() - j));
      containment.Add(static_cast<double>(sym_diff) /
                      std::max<size_t>(1, want.size()));
      // Position error over a node sample at the probed time.
      for (int32_t k = 0; k < 20; ++k) {
        const auto id = static_cast<NodeId>(
            rng.UniformInt(static_cast<uint64_t>(world.num_nodes())));
        const auto believed = history->PositionAt(id, t);
        const auto reference = reference_history.PositionAt(id, t);
        if (believed.has_value() && reference.has_value()) {
          position.Add(Distance(*believed, *reference));
        }
      }
    }
    result.historical_containment_error = containment.mean();
    result.historical_position_error = position.mean();
    result.history_bytes = history->ApproxBytes();
  }
  if (measured_frames > 0 && world.full_update_rate > 0.0) {
    const double measured_rate =
        static_cast<double>(measured_updates) /
        (static_cast<double>(measured_frames) * trace.dt());
    result.measured_update_fraction = measured_rate / world.full_update_rate;
  }
  if (write_health) {
    // Final snapshot, then the Prometheus rendering of it (plus the full
    // metric registry when telemetry ran) at "<health_path>.prom".
    const ClusterHealth final_health = server->HealthSnapshot();
    WriteHealthJson(final_health, health_out);
    health_out << "\n";
    health_out.flush();
    if (!health_out) {
      return InternalError("failed writing health snapshot file: " +
                           config.health_path);
    }
    std::ofstream prom_out(config.health_path + ".prom");
    if (!prom_out) {
      return InvalidArgumentError("cannot open health snapshot file: " +
                                  config.health_path + ".prom");
    }
    WriteHealthPrometheus(
        final_health,
        config.telemetry != nullptr ? &config.telemetry->metrics() : nullptr,
        prom_out);
    prom_out.flush();
    if (!prom_out) {
      return InternalError("failed writing health snapshot file: " +
                           config.health_path + ".prom");
    }
  }
  if (config.telemetry != nullptr) {
    // Final snapshot of every registered metric, then flush the stream.
    LIRA_RETURN_IF_ERROR(config.telemetry->FlushMetrics(
        trace.TimeOf(trace.num_frames() - 1)));
  }
  return result;
}

}  // namespace lira
