#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>

namespace tickbench {
namespace {

using lira::telemetry::SpanRecord;
using lira::telemetry::TraceRecorder;

struct Span {
  int64_t begin = 0;
  int64_t end = 0;
  const char* layer = "";
  bool coordinator = false;
};

/// Library span name -> ledger layer.
const char* LayerOf(const char* name) {
  const std::string_view n(name);
  if (n == "ingest.route") {
    return "ingest.receive";
  }
  if (n == "tracker.handoffs") {
    return "tracker.handoff";
  }
  return name;
}

constexpr const char* kPlanBuild = "optimizer.plan_build";
constexpr const char* kUnattributed = "tick.unattributed";

/// Attributes the wall interval [a, z] to layers (ns), per the FoldSpans
/// rule. `spans` is sorted by begin.
void FoldInterval(const std::vector<Span>& spans, int64_t a, int64_t z,
                  std::map<std::string, double>* ns) {
  if (z <= a) {
    return;
  }
  auto first = std::lower_bound(
      spans.begin(), spans.end(), a,
      [](const Span& s, int64_t t) { return s.begin < t; });
  std::vector<Span> open;
  std::vector<int64_t> cuts = {a, z};
  for (auto it = first; it != spans.end() && it->begin <= z; ++it) {
    Span s = *it;
    s.end = std::min(s.end, z);
    if (s.end <= s.begin) {
      continue;
    }
    open.push_back(s);
    cuts.push_back(s.begin);
    cuts.push_back(s.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::map<const char*, int32_t> shard_layers;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const int64_t s = cuts[i];
    const int64_t t = cuts[i + 1];
    const Span* inner = nullptr;
    shard_layers.clear();
    int32_t shard_open = 0;
    for (const Span& span : open) {
      if (span.begin > s || span.end < t) {
        continue;
      }
      if (span.coordinator) {
        if (inner == nullptr || span.begin > inner->begin ||
            (span.begin == inner->begin && span.end < inner->end)) {
          inner = &span;
        }
      } else {
        ++shard_layers[span.layer];
        ++shard_open;
      }
    }
    const double len = static_cast<double>(t - s);
    if (inner != nullptr) {
      (*ns)[inner->layer] += len;
    } else if (shard_open > 0) {
      for (const auto& [layer, count] : shard_layers) {
        (*ns)[layer] += len * count / shard_open;
      }
    } else {
      (*ns)[kUnattributed] += len;
    }
  }
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

const std::vector<std::string> kCountNames = {
    "node.updates_sent",   "ingest.arrivals",        "ingest.dropped",
    "ingest.queue_depth_max", "tracker.applied",     "tracker.handoffs",
    "cluster.nodes_migrated", "cq.deltas_applied",   "cq.queries_touched",
    "cq.answer_hits",      "plan.bytes",             "plan.builds",
};

/// Deterministic quality figures and their units.
const std::vector<std::pair<std::string, std::string>> kQualityNames = {
    {"containment_error", "ratio"}, {"position_error_m", "m"},
    {"load_fraction", "ratio"},     {"drop_frac", "ratio"},
    {"final_z", "ratio"},
};

const std::vector<std::string> kSetupNames = {
    "world.map_s",       "world.trace_s",    "world.calibrate_s",
    "world.full_rate_s", "world.queries_s",  "fleet.generate_s",
    "fleet.calibrate_s", "fleet.queries_s",  "cq.evaluator_create_s",
    "pipeline.create_s",
};

/// Layers timed per tick (reported as ms per measured tick) and per
/// adaptation (ms per adaptation in the window).
const std::vector<std::string> kPerTickLayers = {
    "motion.step",    "node.plan_lookup",   "node.encode",
    "reference.encode", "ingest.receive",   "ingest.service",
    "tracker.apply",  "tracker.handoff",    "tick.unattributed",
    "cq.reference_predict", "cq.fill_believed", "cq.apply_sample",
    "cq.evaluate",    "cq.answer",
};

const std::vector<std::string> kPerAdaptLayers = {
    "cluster.rebalance",  "optimizer.throttle", "stats.rebuild",
    "stats.merge",        "stats.query_rebuild", "core.quad_build",
    "core.gridreduce",    "core.greedy",        "optimizer.plan_finish",
    "plan.encode",
};

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double LayerTotal(const Episode& e, const std::string& layer) {
  // Layers timed from outside win over their folded counterpart
  // (ingest.receive appears in both).
  if (auto it = e.layer_ms.find(layer); it != e.layer_ms.end()) {
    return it->second;
  }
  if (auto it = e.traced_ms.find(layer); it != e.traced_ms.end()) {
    return it->second;
  }
  return 0.0;
}

}  // namespace

void PhaseSink::Record(const lira::telemetry::Event& event) {
  if (event.kind != lira::telemetry::EventKind::kSpan) {
    return;
  }
  const char* layer = nullptr;
  if (event.name == "lira.adapt.quad_build_seconds") {
    layer = "core.quad_build";
  } else if (event.name == "lira.adapt.grid_reduce_seconds") {
    layer = "core.gridreduce";
  } else if (event.name == "lira.adapt.greedy_increment_seconds") {
    layer = "core.greedy";
  }
  if (layer != nullptr) {
    phases_.push_back({layer, event.value * 1e3});
  }
}

std::map<std::string, double> FoldSpans(
    const TraceRecorder& recorder, const std::vector<TickWindow>& ticks,
    const std::vector<PhaseSink::Phase>& phases) {
  std::vector<Span> spans;
  for (int32_t lane = 0; lane < recorder.num_lanes(); ++lane) {
    for (const SpanRecord& r : recorder.lane(lane)->spans()) {
      if (r.duration_ns > 0) {
        spans.push_back({r.start_ns, r.start_ns + r.duration_ns,
                         LayerOf(r.name),
                         lane == TraceRecorder::kDriverLane});
      }
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.begin < b.begin; });
  std::map<std::string, double> ms;
  for (const TickWindow& tick : ticks) {
    std::map<std::string, double> ns;
    FoldInterval(spans, tick.receive_begin_ns, tick.receive_end_ns, &ns);
    FoldInterval(spans, tick.tick_begin_ns, tick.tick_end_ns, &ns);
    // The policy phases ran inside this tick's plan-build span; what is
    // left of the span after them is plan finishing (SheddingPlan::Create
    // and the optimizer's bookkeeping).
    double plan_ns = ns[kPlanBuild];
    ns.erase(kPlanBuild);
    for (size_t p = tick.phase_begin; p < tick.phase_end; ++p) {
      const double child = std::min(plan_ns, phases[p].ms * 1e6);
      ns[phases[p].layer] += child;
      plan_ns -= child;
    }
    ns["optimizer.plan_finish"] += plan_ns;
    for (const auto& [layer, value] : ns) {
      ms[layer] += value * 1e-6;
    }
  }
  return ms;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void CheckExactCounts(const std::vector<Episode>& episodes,
                      std::vector<std::string>* failures) {
  for (size_t e = 1; e < episodes.size(); ++e) {
    if (episodes[e].counts != episodes[0].counts) {
      for (const auto& [name, value] : episodes[0].counts) {
        auto it = episodes[e].counts.find(name);
        if (it == episodes[e].counts.end() || it->second != value) {
          failures->push_back(
              "exact-count gate: " + name + " was " + std::to_string(value) +
              " in episode 0 but " +
              (it == episodes[e].counts.end() ? std::string("missing")
                                              : std::to_string(it->second)) +
              " in episode " + std::to_string(e));
          return;
        }
      }
      failures->push_back("exact-count gate: episode " + std::to_string(e) +
                          " has counts episode 0 lacks");
      return;
    }
    for (const auto& [name, value] : episodes[0].quality) {
      auto it = episodes[e].quality.find(name);
      if (it == episodes[e].quality.end() ||
          std::memcmp(&it->second, &value, sizeof(double)) != 0) {
        failures->push_back("exact-count gate: " + name +
                            " differs bitwise in episode " +
                            std::to_string(e));
        return;
      }
    }
  }
}

std::vector<Metric> EndToEndMetrics(const std::vector<Episode>& episodes,
                                    double peak_rss_mb) {
  std::vector<double> setup, loop, tick, adapt;
  double applied = 0.0;
  double server_s = 0.0;
  for (const Episode& e : episodes) {
    if (e.traced) {
      continue;
    }
    if (e.fresh_setup) {
      setup.push_back(e.setup_total_s);
    }
    loop.push_back(e.loop_s);
    tick.insert(tick.end(), e.tick_ms.begin(), e.tick_ms.end());
    adapt.insert(adapt.end(), e.adapt_tick_ms.begin(), e.adapt_tick_ms.end());
    applied += static_cast<double>(e.counts.at("tracker.applied"));
    server_s += e.server_s;
  }
  return {
      {"setup_s", Median(setup), "s"},
      {"run_s", Median(loop), "s"},
      {"tick_ms_p50", Quantile(tick, 0.5), "ms"},
      {"tick_ms_p90", Quantile(tick, 0.9), "ms"},
      {"adapt_tick_ms_p50", Quantile(adapt, 0.5), "ms"},
      {"updates_per_s", server_s > 0.0 ? applied / server_s : 0.0, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> PerLayerMetrics(const std::vector<Episode>& episodes) {
  std::vector<Metric> out;
  std::vector<const Episode*> traced;
  std::vector<double> traced_loop, plain_loop, eval, answer;
  for (const Episode& e : episodes) {
    (e.traced ? traced_loop : plain_loop).push_back(e.loop_s);
    if (e.traced) {
      traced.push_back(&e);
    }
    eval.insert(eval.end(), e.eval_ms.begin(), e.eval_ms.end());
    answer.insert(answer.end(), e.answer_us.begin(), e.answer_us.end());
  }
  for (const std::string& name : kSetupNames) {
    std::vector<double> v;
    for (const Episode& e : episodes) {
      if (e.fresh_setup) {
        auto it = e.setup_s.find(name);
        v.push_back(it != e.setup_s.end() ? it->second : 0.0);
      }
    }
    out.push_back({name, Median(v), "s"});
  }
  auto per_episode = [&](const std::string& layer, bool per_adapt) {
    std::vector<double> v;
    for (const Episode* e : traced) {
      const int64_t denom = per_adapt ? e->adaptations : e->ticks;
      v.push_back(denom > 0 ? LayerTotal(*e, layer) / denom : 0.0);
    }
    return Median(v);
  };
  for (const std::string& layer : kPerTickLayers) {
    out.push_back({layer + "_ms", per_episode(layer, false), "ms"});
  }
  for (const std::string& layer : kPerAdaptLayers) {
    out.push_back({layer + "_ms", per_episode(layer, true), "ms"});
  }
  double unattributed = 0.0;
  double server_ms = 0.0;
  for (const Episode* e : traced) {
    unattributed += LayerTotal(*e, "tick.unattributed");
    server_ms += e->server_s * 1e3;
  }
  out.push_back({"tick.unattributed_frac",
                 server_ms > 0.0 ? unattributed / server_ms : 0.0, "ratio"});
  out.push_back({"trace.overhead_frac",
                 plain_loop.empty() || traced_loop.empty()
                     ? 0.0
                     : Median(traced_loop) / Median(plain_loop) - 1.0,
                 "ratio"});
  out.push_back({"eval_ms_p50", Quantile(eval, 0.5), "ms"});
  out.push_back({"eval_ms_p90", Quantile(eval, 0.9), "ms"});
  out.push_back({"answer_us_p50", Quantile(answer, 0.5), "us"});
  out.push_back({"answer_us_p99", Quantile(answer, 0.99), "us"});
  const Episode& first = episodes.front();
  for (const auto& [name, unit] : kQualityNames) {
    auto it = first.quality.find(name);
    out.push_back({name, it != first.quality.end() ? it->second : 0.0, unit});
  }
  for (const std::string& name : kCountNames) {
    auto it = first.counts.find(name);
    out.push_back({name,
                   it != first.counts.end() ? static_cast<double>(it->second)
                                            : 0.0,
                   "count"});
  }
  return out;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      json += ", ";
    }
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatDouble(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace tickbench
