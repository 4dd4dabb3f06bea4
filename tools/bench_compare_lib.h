// Core logic of the bench-regression gate (tools/bench_compare): a minimal
// JSON reader that flattens any BENCH_*.json into dotted numeric keys, plus
// the per-metric comparison that decides regression/improvement/stable.
// Header-only so tools/bench_compare_test links the exact shipped logic.
//
// The gate compares a freshly produced bench export against a committed
// baseline (bench/baselines/): for every numeric key present in both files
// it computes current/baseline and flags a regression when the ratio moves
// beyond the tolerance in the metric's bad direction. Direction is inferred
// from the key's whole name tokens (the key split on '.' and '_'):
// throughput-style names -- with the token pair "per second" or a token
// "throughput", "speedup", "rate" or "ops" -- are higher-better, everything
// else (latencies in ns/seconds, error metrics, byte counts, migration
// counts) is lower-better. A token must match whole, so "nodes_migrated"
// and "BM_CalibrateReduction" are not rates. Counts take the same
// tolerance as timings, so only a count that moved past it trips the gate.

#ifndef LIRA_TOOLS_BENCH_COMPARE_LIB_H_
#define LIRA_TOOLS_BENCH_COMPARE_LIB_H_

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace lira::benchgate {

/// Flat view of one bench JSON: dotted-path -> numeric value ("rows.0.
/// ingest_seconds", "metrics.BM_PlanDeltaAt"). Non-numeric leaves (name,
/// git describe) land in `strings`.
struct FlatBench {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
  bool ok = false;
  std::string error;
};

namespace internal {

struct Parser {
  const char* p;
  const char* end;
  FlatBench* out;

  bool Fail(const std::string& message) {
    if (out->error.empty()) {
      out->error = message;
    }
    return false;
  }

  void SkipSpace() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) {
      ++p;
    }
  }

  bool ParseString(std::string* value) {
    if (p >= end || *p != '"') {
      return Fail("expected string");
    }
    ++p;
    value->clear();
    while (p < end && *p != '"') {
      if (*p == '\\' && p + 1 < end) {
        ++p;
        switch (*p) {
          case 'n':
            value->push_back('\n');
            break;
          case 't':
            value->push_back('\t');
            break;
          default:
            value->push_back(*p);
        }
      } else {
        value->push_back(*p);
      }
      ++p;
    }
    if (p >= end) {
      return Fail("unterminated string");
    }
    ++p;  // closing quote
    return true;
  }

  bool ParseValue(const std::string& path) {
    SkipSpace();
    if (p >= end) {
      return Fail("unexpected end of input");
    }
    if (*p == '{') {
      return ParseObject(path);
    }
    if (*p == '[') {
      return ParseArray(path);
    }
    if (*p == '"') {
      std::string value;
      if (!ParseString(&value)) {
        return false;
      }
      out->strings[path] = value;
      return true;
    }
    if (!std::strncmp(p, "true", 4) && p + 4 <= end) {
      out->numbers[path] = 1.0;
      p += 4;
      return true;
    }
    if (!std::strncmp(p, "false", 5) && p + 5 <= end) {
      out->numbers[path] = 0.0;
      p += 5;
      return true;
    }
    if (!std::strncmp(p, "null", 4) && p + 4 <= end) {
      p += 4;
      return true;
    }
    char* num_end = nullptr;
    const double value = std::strtod(p, &num_end);
    if (num_end == p) {
      return Fail("expected a JSON value at '" +
                  std::string(p, std::min<size_t>(16, end - p)) + "'");
    }
    out->numbers[path] = value;
    p = num_end;
    return true;
  }

  bool ParseObject(const std::string& path) {
    ++p;  // '{'
    SkipSpace();
    if (p < end && *p == '}') {
      ++p;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipSpace();
      if (p >= end || *p != ':') {
        return Fail("expected ':' after key '" + key + "'");
      }
      ++p;
      if (!ParseValue(path.empty() ? key : path + "." + key)) {
        return false;
      }
      SkipSpace();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == '}') {
        ++p;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(const std::string& path) {
    ++p;  // '['
    SkipSpace();
    if (p < end && *p == ']') {
      ++p;
      return true;
    }
    int64_t index = 0;
    while (true) {
      if (!ParseValue(path + "." + std::to_string(index))) {
        return false;
      }
      ++index;
      SkipSpace();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == ']') {
        ++p;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }
};

}  // namespace internal

/// Parses `text` as JSON and flattens it. On malformed input `ok` is false
/// and `error` says where.
inline FlatBench FlattenJson(const std::string& text) {
  FlatBench out;
  internal::Parser parser{text.data(), text.data() + text.size(), &out};
  parser.SkipSpace();
  if (parser.p >= parser.end) {
    out.error = "empty input";
    return out;
  }
  out.ok = parser.ParseValue("");
  if (out.ok) {
    parser.SkipSpace();
    if (parser.p != parser.end) {
      out.ok = false;
      out.error = "trailing characters after JSON value";
    }
  }
  return out;
}

/// True when a larger value of this metric is better (throughput-style
/// names); everything else -- latencies, errors, sizes -- is lower-better.
/// Matches whole tokens of the key split on '.' and '_' (see file comment).
inline bool HigherIsBetter(const std::string& key) {
  std::vector<std::string> tokens(1);
  for (const char c : key) {
    if (c == '.' || c == '_') {
      tokens.emplace_back();
    } else {
      tokens.back().push_back(c);
    }
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token == "throughput" || token == "speedup" || token == "rate" ||
        token == "ops") {
      return true;
    }
    if (token == "per" && i + 1 < tokens.size() &&
        tokens[i + 1] == "second") {
      return true;
    }
  }
  return false;
}

enum class Verdict { kStable, kImproved, kRegressed, kOnlyInBaseline,
                     kOnlyInCurrent };

struct MetricDiff {
  std::string key;
  double baseline = 0.0;
  double current = 0.0;
  /// current/baseline; 1.0 when the baseline is ~0 and current is too.
  double ratio = 1.0;
  bool higher_is_better = false;
  Verdict verdict = Verdict::kStable;
};

struct CompareOptions {
  /// A metric regresses when it is worse than baseline by more than this
  /// factor (1.10 = 10% worse). CI uses a generous factor to ride out
  /// runner noise; local runs can tighten it.
  double tolerance = 1.10;
  /// Per-metric overrides (exact key match), e.g. {"metrics.BM_X", 2.0}.
  std::map<std::string, double> metric_tolerance;
  /// Values with |baseline| below this are compared absolutely (a 0 -> 1e-9
  /// flip is not a regression).
  double epsilon = 1e-12;
};

struct CompareResult {
  std::vector<MetricDiff> diffs;
  int64_t regressions = 0;
  int64_t improvements = 0;
  int64_t stable = 0;
  /// Keys present in only one file (schema drift -- reported, not fatal).
  int64_t missing = 0;
};

inline CompareResult Compare(const FlatBench& current,
                             const FlatBench& baseline,
                             const CompareOptions& options = {}) {
  CompareResult result;
  for (const auto& [key, base_value] : baseline.numbers) {
    MetricDiff diff;
    diff.key = key;
    diff.baseline = base_value;
    diff.higher_is_better = HigherIsBetter(key);
    const auto it = current.numbers.find(key);
    if (it == current.numbers.end()) {
      diff.verdict = Verdict::kOnlyInBaseline;
      ++result.missing;
      result.diffs.push_back(diff);
      continue;
    }
    diff.current = it->second;
    double tolerance = options.tolerance;
    const auto override_it = options.metric_tolerance.find(key);
    if (override_it != options.metric_tolerance.end()) {
      tolerance = override_it->second;
    }
    if (std::fabs(base_value) < options.epsilon) {
      diff.ratio = std::fabs(diff.current) < options.epsilon ? 1.0 : HUGE_VAL;
      // No meaningful ratio against a ~0 baseline; only flag a lower-better
      // metric that became decidedly nonzero.
      diff.verdict = (!diff.higher_is_better && diff.current > 1.0)
                         ? Verdict::kRegressed
                         : Verdict::kStable;
    } else {
      diff.ratio = diff.current / base_value;
      const double badness =
          diff.higher_is_better ? 1.0 / diff.ratio : diff.ratio;
      if (badness > tolerance) {
        diff.verdict = Verdict::kRegressed;
      } else if (badness < 1.0 / tolerance) {
        diff.verdict = Verdict::kImproved;
      } else {
        diff.verdict = Verdict::kStable;
      }
    }
    switch (diff.verdict) {
      case Verdict::kRegressed:
        ++result.regressions;
        break;
      case Verdict::kImproved:
        ++result.improvements;
        break;
      default:
        ++result.stable;
    }
    result.diffs.push_back(diff);
  }
  for (const auto& [key, value] : current.numbers) {
    if (baseline.numbers.find(key) == baseline.numbers.end()) {
      MetricDiff diff;
      diff.key = key;
      diff.current = value;
      diff.verdict = Verdict::kOnlyInCurrent;
      ++result.missing;
      result.diffs.push_back(diff);
    }
  }
  return result;
}

inline const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kStable:
      return "stable";
    case Verdict::kImproved:
      return "improved";
    case Verdict::kRegressed:
      return "REGRESSED";
    case Verdict::kOnlyInBaseline:
      return "only-in-baseline";
    case Verdict::kOnlyInCurrent:
      return "only-in-current";
  }
  return "?";
}

}  // namespace lira::benchgate

#endif  // LIRA_TOOLS_BENCH_COMPARE_LIB_H_
