// Cluster health snapshots (DESIGN.md §10): a point-in-time summary of a
// ServerCluster -- per-shard occupancy and queue state plus load-skew
// statistics (max/mean shard occupancy and their imbalance ratio) --
// serializable as JSON (one line per snapshot, JSONL-friendly) and as
// Prometheus text exposition alongside the full metric registry.

#ifndef LIRA_SERVER_CLUSTER_HEALTH_H_
#define LIRA_SERVER_CLUSTER_HEALTH_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "lira/telemetry/metrics.h"

namespace lira {

struct ShardHealth {
  int32_t shard = 0;
  /// Nodes currently owned by the shard (ownership follows the updates).
  int64_t nodes_owned = 0;
  int64_t queue_depth = 0;
  /// Cumulative arrivals / drops at this shard's queue.
  int64_t queue_arrivals = 0;
  int64_t queue_dropped = 0;
  /// Grid columns [col_begin, col_end) the shard owns under the current
  /// map epoch (DESIGN.md §12).
  int32_t col_begin = 0;
  int32_t col_end = 0;
};

struct ClusterHealth {
  /// Server clock (seconds) and tick count at snapshot time.
  double time = 0.0;
  int64_t tick = 0;
  int32_t num_shards = 0;
  double z = 0.0;
  /// Nodes with a known owner, summed over shards.
  int64_t total_nodes = 0;
  /// Load-skew statistics over per-shard owned-node counts. The imbalance
  /// ratio is max/mean (1.0 = perfectly balanced, 0 when no nodes are
  /// tracked yet); a sustained high ratio is the skew the shard-map
  /// rebalancing (rebalance_stride, DESIGN.md §12) corrects.
  int64_t max_shard_nodes = 0;
  double mean_shard_nodes = 0.0;
  double imbalance_ratio = 0.0;
  /// Memory shape: heap bytes of the cluster's one model store (one 48 B
  /// ModelRecord per node), and those bytes per configured node (48 at any
  /// shard count).
  int64_t tracker_bytes = 0;
  double bytes_per_node = 0.0;
  /// Shard-map rebalancing state (DESIGN.md §12): the current map epoch,
  /// how many rebalances have fired, and how many node ownerships they
  /// migrated, cumulatively.
  int64_t map_epoch = 0;
  int64_t rebalances = 0;
  int64_t nodes_migrated = 0;
  std::vector<ShardHealth> shards;
};

/// One JSON object (no trailing newline), e.g.
///   {"time":12.5,"tick":250,"num_shards":4,"z":0.8,"total_nodes":100,
///    "max_shard_nodes":40,"mean_shard_nodes":25.0,"imbalance_ratio":1.6,
///    "shards":[{"shard":0,"nodes_owned":40,...}, ...]}
void WriteHealthJson(const ClusterHealth& health, std::ostream& out);

/// Prometheus text exposition: lira_cluster_* gauges for the snapshot
/// (per-shard series labeled shard="k"), followed by the registry's full
/// exposition (telemetry::WritePrometheus) when `metrics` is non-null.
void WriteHealthPrometheus(const ClusterHealth& health,
                           const telemetry::MetricRegistry* metrics,
                           std::ostream& out);

}  // namespace lira

#endif  // LIRA_SERVER_CLUSTER_HEALTH_H_
