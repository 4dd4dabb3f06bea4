// The tick ledger: what one episode of a workload measured, how traced
// spans fold into per-layer self times, and how episodes reduce to the
// end-to-end and per-layer metrics the benchmark prints.
//
// An episode is set-up (timed), an untimed warm-up, then a fixed window of
// measured ticks. Every count an episode records is a deterministic function
// of the seed, so all episodes of one run must agree on them exactly (the
// exact-count gate). Times are kept per tick or per adaptation and are never
// summed across adaptations.

#ifndef TICKBENCH_LEDGER_H_
#define TICKBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lira/telemetry/event_sink.h"
#include "lira/telemetry/trace.h"

namespace tickbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Accumulates one layer's wall time (ms) around calls made from outside.
class LayerTimer {
 public:
  LayerTimer(std::map<std::string, double>* totals, const char* layer)
      : totals_(totals), layer_(layer), start_(Clock::now()) {}
  ~LayerTimer() { Stop(); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

  /// Records once; returns the elapsed ms.
  double Stop() {
    if (stopped_) {
      return 0.0;
    }
    stopped_ = true;
    const double ms = MsBetween(start_, Clock::now());
    if (totals_ != nullptr) {
      (*totals_)[layer_] += ms;
    }
    return ms;
  }

 private:
  std::map<std::string, double>* totals_;
  const char* layer_;
  Clock::time_point start_;
  bool stopped_ = false;
};

/// Collects the policy's phase timers (quad build, GRIDREDUCE, greedy) from
/// the pipeline's TelemetrySink. They carry durations but no start stamps,
/// so they are folded as children of the tick's `optimizer.plan_build` span.
class PhaseSink final : public lira::telemetry::EventSink {
 public:
  struct Phase {
    const char* layer;
    double ms;
  };
  void Record(const lira::telemetry::Event& event) override;
  const std::vector<Phase>& phases() const { return phases_; }

 private:
  std::vector<Phase> phases_;
};

/// One measured tick's server-side intervals on the recorder clock, and the
/// range of PhaseSink entries its Tick produced.
struct TickWindow {
  int64_t receive_begin_ns = 0;
  int64_t receive_end_ns = 0;
  int64_t tick_begin_ns = 0;
  int64_t tick_end_ns = 0;
  size_t phase_begin = 0;
  size_t phase_end = 0;
};

/// Folds the recorder's spans into per-layer self times (ms, summed over
/// the given ticks) plus `tick.unattributed`. Within each tick's
/// ReceiveBatch and Tick intervals, every instant goes to the innermost
/// open span on the coordinator lane; when none is open, it is split evenly
/// across the spans open on shard lanes (a parallel section); when nothing
/// is open it is unattributed. So the layers plus the remainder add up to
/// the measured server wall time exactly.
std::map<std::string, double> FoldSpans(
    const lira::telemetry::TraceRecorder& recorder,
    const std::vector<TickWindow>& ticks,
    const std::vector<PhaseSink::Phase>& phases);

struct Episode {
  bool traced = false;
  /// False when the episode reused an earlier episode's world, so its
  /// set-up covers only the pipeline and is left out of setup_s.
  bool fresh_setup = true;
  /// Set-up phases (s) and their total.
  std::map<std::string, double> setup_s;
  double setup_total_s = 0.0;
  /// Wall time of the measured window (every timed layer of every tick),
  /// and of ReceiveBatch + Tick in it.
  double loop_s = 0.0;
  double server_s = 0.0;
  int64_t ticks = 0;
  int64_t adaptations = 0;
  /// Per measured tick: server on plain ticks, server on adapting ticks,
  /// CQ refresh (city); per AnswerQuery call (serve).
  std::vector<double> tick_ms, adapt_tick_ms, eval_ms, answer_us;
  /// Layer wall times timed from outside (ms, summed over the window).
  std::map<std::string, double> layer_ms;
  /// Folded self times of a traced episode (ms, summed over the window).
  std::map<std::string, double> traced_ms;
  /// Deterministic work counts over the window (the exact-count gate).
  std::map<std::string, int64_t> counts;
  /// Deterministic quality figures (gated bitwise with the counts).
  std::map<std::string, double> quality;
  /// Operations issued and operations that returned an error.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Output checks that did not hold.
  std::vector<std::string> failures;
};

/// Linear-interpolated q-quantile of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Appends the first mismatch between episode 0 and any later episode's
/// counts or quality figures to `failures`.
void CheckExactCounts(const std::vector<Episode>& episodes,
                      std::vector<std::string>* failures);

/// The end-to-end metrics, from untraced episodes.
std::vector<Metric> EndToEndMetrics(const std::vector<Episode>& episodes,
                                    double peak_rss_mb);

/// The per-layer metrics: self times from traced episodes, counts and
/// quality figures from episode 0, and the traced-vs-untraced overhead.
std::vector<Metric> PerLayerMetrics(const std::vector<Episode>& episodes);

/// The run's result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..},...}}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

/// Process peak resident set size, MiB.
double PeakRssMb();

}  // namespace tickbench

#endif  // TICKBENCH_LEDGER_H_
