// Telemetry flight recorder: a fixed-size ring buffer of the last N ticks
// of a pipeline's key control signals -- queue depth and drops, the
// throttle fraction z, the measured arrival rate lambda and utilization
// rho, tracked node counts, and the plan shape. When something goes wrong
// (a LIRA_CHECK fires, a chaos test kills a shard) the ring is dumped as
// JSON, leaving a postmortem of what the system looked like just before the
// failure (DESIGN.md §10).
//
// Thread-safety: Record/Snapshot/DumpJson are mutex-guarded -- the record
// rate is one sample per tick per shard, far off any hot path. Cluster
// drivers record serially in shard order, so ring contents are
// deterministic; concurrent recording is still safe (TSan-tested) for
// drivers that choose to record from workers.
//
// Crash dumps: every live FlightRecorder is tracked in a process-global
// registry. InstallCrashDump(path) arms the LIRA_CHECK failure hook
// (lira/common/check.h) so an aborting check writes all live recorders to
// `path` before the process dies.

#ifndef LIRA_TELEMETRY_FLIGHT_RECORDER_H_
#define LIRA_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "lira/common/status.h"

namespace lira::telemetry {

/// One tick's worth of signals for one pipeline/shard.
struct FlightSample {
  int64_t tick = 0;
  /// Server clock, seconds.
  double time = 0.0;
  /// Shard the sample describes; -1 = the whole server / coordinator.
  int32_t shard = -1;
  int64_t queue_depth = 0;
  /// Cumulative drops / arrivals at sample time.
  int64_t queue_dropped = 0;
  int64_t queue_arrivals = 0;
  double z = 0.0;
  /// Last measured arrival rate (upd/s) and utilization lambda/mu; 0 until
  /// the first THROTLOOP step.
  double lambda = 0.0;
  double utilization = 0.0;
  /// Nodes contributing to this shard's statistics grid.
  int64_t nodes = 0;
  int32_t plan_regions = 0;
  double plan_min_delta = 0.0;
  double plan_max_delta = 0.0;
};

/// One shard-map rebalance decision (DESIGN.md §12): what the coordinator
/// moved and the load skew it saw before/after, so a postmortem shows the
/// map's whole recent history next to the per-tick signals.
struct RebalanceRecord {
  int64_t tick = 0;
  double time = 0.0;
  /// ShardMap epoch *after* the move (>= 1; epoch 0 is the initial split).
  int64_t epoch = 0;
  /// Total boundary travel in columns this epoch.
  int32_t columns_moved = 0;
  /// Nodes whose ownership migrated as a result.
  int64_t nodes_migrated = 0;
  /// max/mean per-shard column load before and after the boundary move
  /// (from the integer grid the decision was made on).
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
};

/// Fixed-capacity ring of FlightSamples, oldest overwritten first.
class FlightRecorder {
 public:
  /// `capacity` is clamped to >= 1. `label` names the recorder in dumps
  /// (e.g. "cluster", "server", a test name).
  explicit FlightRecorder(size_t capacity, std::string label = "");
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(const FlightSample& sample);

  /// Records one rebalance decision into a second ring with the same
  /// capacity (rebalances are orders of magnitude rarer than ticks, so the
  /// ring effectively keeps them all).
  void RecordRebalance(const RebalanceRecord& record);

  /// Ring contents, oldest to newest.
  std::vector<FlightSample> Snapshot() const;

  /// Rebalance ring contents, oldest to newest.
  std::vector<RebalanceRecord> SnapshotRebalances() const;

  size_t capacity() const { return capacity_; }
  size_t size() const;
  int64_t total_recorded() const;
  const std::string& label() const { return label_; }

  /// The rings as one JSON object:
  ///   {"label":"cluster","capacity":256,"total_recorded":9000,
  ///    "samples":[{"tick":...,"shard":...,...}, ...],
  ///    "rebalances":[{"tick":...,"epoch":...,...}, ...]}
  void DumpJson(std::ostream& out) const;

  /// Dumps every live recorder to `out` as {"recorders":[...]}.
  static void DumpAll(std::ostream& out);

  /// Dumps every live recorder to the file at `path`.
  static Status DumpAllToFile(const std::string& path);

  /// Arms the LIRA_CHECK failure hook: a failing check writes DumpAll to
  /// `path` before aborting, so a crash leaves a postmortem JSON. An empty
  /// path disarms the hook.
  static void InstallCrashDump(const std::string& path);

 private:
  const size_t capacity_;
  const std::string label_;
  mutable std::mutex mutex_;
  std::vector<FlightSample> ring_;
  size_t next_ = 0;
  int64_t total_ = 0;
  std::vector<RebalanceRecord> rebalance_ring_;
  size_t rebalance_next_ = 0;
  int64_t rebalance_total_ = 0;
};

}  // namespace lira::telemetry

#endif  // LIRA_TELEMETRY_FLIGHT_RECORDER_H_
