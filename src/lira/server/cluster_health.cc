#include "lira/server/cluster_health.h"

#include <cstdio>
#include <string>

#include "lira/telemetry/exposition.h"

namespace lira {
namespace {

void AppendDouble(std::string* out, double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  out->append(buffer);
}

void AppendPromSample(std::string* out, const char* family,
                      const std::string& labels, double value) {
  out->append(family);
  if (!labels.empty()) {
    out->push_back('{');
    out->append(labels);
    out->push_back('}');
  }
  out->push_back(' ');
  AppendDouble(out, value);
  out->push_back('\n');
}

}  // namespace

void WriteHealthJson(const ClusterHealth& health, std::ostream& out) {
  std::string text = "{\"time\":";
  AppendDouble(&text, health.time);
  text += ",\"tick\":" + std::to_string(health.tick);
  text += ",\"num_shards\":" + std::to_string(health.num_shards);
  text += ",\"z\":";
  AppendDouble(&text, health.z);
  text += ",\"total_nodes\":" + std::to_string(health.total_nodes);
  text += ",\"max_shard_nodes\":" + std::to_string(health.max_shard_nodes);
  text += ",\"mean_shard_nodes\":";
  AppendDouble(&text, health.mean_shard_nodes);
  text += ",\"imbalance_ratio\":";
  AppendDouble(&text, health.imbalance_ratio);
  text += ",\"tracker_bytes\":" + std::to_string(health.tracker_bytes);
  text += ",\"bytes_per_node\":";
  AppendDouble(&text, health.bytes_per_node);
  text += ",\"map_epoch\":" + std::to_string(health.map_epoch);
  text += ",\"rebalances\":" + std::to_string(health.rebalances);
  text += ",\"nodes_migrated\":" + std::to_string(health.nodes_migrated);
  text += ",\"shards\":[";
  for (size_t i = 0; i < health.shards.size(); ++i) {
    const ShardHealth& shard = health.shards[i];
    if (i > 0) {
      text.push_back(',');
    }
    text += "{\"shard\":" + std::to_string(shard.shard);
    text += ",\"nodes_owned\":" + std::to_string(shard.nodes_owned);
    text += ",\"queue_depth\":" + std::to_string(shard.queue_depth);
    text += ",\"queue_arrivals\":" + std::to_string(shard.queue_arrivals);
    text += ",\"queue_dropped\":" + std::to_string(shard.queue_dropped);
    text += ",\"col_begin\":" + std::to_string(shard.col_begin);
    text += ",\"col_end\":" + std::to_string(shard.col_end);
    text.push_back('}');
  }
  text += "]}";
  out << text;
}

void WriteHealthPrometheus(const ClusterHealth& health,
                           const telemetry::MetricRegistry* metrics,
                           std::ostream& out) {
  std::string text;
  text.append("# TYPE lira_cluster_time gauge\n");
  AppendPromSample(&text, "lira_cluster_time", "", health.time);
  text.append("# TYPE lira_cluster_tick gauge\n");
  AppendPromSample(&text, "lira_cluster_tick", "",
                   static_cast<double>(health.tick));
  text.append("# TYPE lira_cluster_shards gauge\n");
  AppendPromSample(&text, "lira_cluster_shards", "",
                   static_cast<double>(health.num_shards));
  text.append("# TYPE lira_cluster_z gauge\n");
  AppendPromSample(&text, "lira_cluster_z", "", health.z);
  text.append("# TYPE lira_cluster_total_nodes gauge\n");
  AppendPromSample(&text, "lira_cluster_total_nodes", "",
                   static_cast<double>(health.total_nodes));
  text.append("# TYPE lira_cluster_max_shard_nodes gauge\n");
  AppendPromSample(&text, "lira_cluster_max_shard_nodes", "",
                   static_cast<double>(health.max_shard_nodes));
  text.append("# TYPE lira_cluster_mean_shard_nodes gauge\n");
  AppendPromSample(&text, "lira_cluster_mean_shard_nodes", "",
                   health.mean_shard_nodes);
  text.append("# TYPE lira_cluster_imbalance_ratio gauge\n");
  AppendPromSample(&text, "lira_cluster_imbalance_ratio", "",
                   health.imbalance_ratio);
  text.append("# TYPE lira_cluster_tracker_bytes gauge\n");
  AppendPromSample(&text, "lira_cluster_tracker_bytes", "",
                   static_cast<double>(health.tracker_bytes));
  text.append("# TYPE lira_cluster_bytes_per_node gauge\n");
  AppendPromSample(&text, "lira_cluster_bytes_per_node", "",
                   health.bytes_per_node);
  text.append("# TYPE lira_cluster_map_epoch gauge\n");
  AppendPromSample(&text, "lira_cluster_map_epoch", "",
                   static_cast<double>(health.map_epoch));
  text.append("# TYPE lira_cluster_rebalances counter\n");
  AppendPromSample(&text, "lira_cluster_rebalances", "",
                   static_cast<double>(health.rebalances));
  text.append("# TYPE lira_cluster_nodes_migrated counter\n");
  AppendPromSample(&text, "lira_cluster_nodes_migrated", "",
                   static_cast<double>(health.nodes_migrated));
  text.append("# TYPE lira_cluster_shard_nodes_owned gauge\n");
  for (const ShardHealth& shard : health.shards) {
    AppendPromSample(&text, "lira_cluster_shard_nodes_owned",
                     "shard=\"" + std::to_string(shard.shard) + "\"",
                     static_cast<double>(shard.nodes_owned));
  }
  text.append("# TYPE lira_cluster_shard_queue_depth gauge\n");
  for (const ShardHealth& shard : health.shards) {
    AppendPromSample(&text, "lira_cluster_shard_queue_depth",
                     "shard=\"" + std::to_string(shard.shard) + "\"",
                     static_cast<double>(shard.queue_depth));
  }
  text.append("# TYPE lira_cluster_shard_queue_dropped counter\n");
  for (const ShardHealth& shard : health.shards) {
    AppendPromSample(&text, "lira_cluster_shard_queue_dropped",
                     "shard=\"" + std::to_string(shard.shard) + "\"",
                     static_cast<double>(shard.queue_dropped));
  }
  text.append("# TYPE lira_cluster_shard_col_begin gauge\n");
  for (const ShardHealth& shard : health.shards) {
    AppendPromSample(&text, "lira_cluster_shard_col_begin",
                     "shard=\"" + std::to_string(shard.shard) + "\"",
                     static_cast<double>(shard.col_begin));
  }
  text.append("# TYPE lira_cluster_shard_col_end gauge\n");
  for (const ShardHealth& shard : health.shards) {
    AppendPromSample(&text, "lira_cluster_shard_col_end",
                     "shard=\"" + std::to_string(shard.shard) + "\"",
                     static_cast<double>(shard.col_end));
  }
  out << text;
  if (metrics != nullptr) {
    telemetry::WritePrometheus(*metrics, out);
  }
}

}  // namespace lira
