#ifndef TUFFY_BENCH_BENCH_JSON_H_
#define TUFFY_BENCH_BENCH_JSON_H_

// Shared BENCH_JSON emitter. Every bench binary prints one
// machine-readable line per measured configuration:
//   BENCH_JSON {"bench":"serving","system":"session",...}
// so the perf trajectory can be tracked across PRs (grep for
// ^BENCH_JSON and parse the rest as JSON). This builder replaces the
// hand-rolled printf format strings — a missing quote or comma in one
// of those silently corrupts the whole line for downstream parsers.
//
// Rows can also stamp the metrics registry: capture a baseline with
// MetricsBaseline() before the measured region, then .Metrics(base)
// appends {"metrics":{...}} holding every counter/histogram sample that
// moved since (WAL appends, grounding rows, search flips) and the level
// of the gauges, tying each BENCH_JSON row to what the system actually
// did, not just how long it took.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace tuffy {
namespace bench {

/// Captures the registry's current samples, to diff against later.
inline std::vector<MetricSample> MetricsBaseline() {
  return MetricsRegistry::Global().Snapshot();
}

/// One BENCH_JSON line under construction. Keys are emitted in call
/// order; call Emit() exactly once.
class BenchJson {
 public:
  explicit BenchJson(const char* bench) {
    out_ = "{";
    Str("bench", bench);
  }

  BenchJson& Str(const char* key, const std::string& value) {
    Key(key);
    out_ += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
    return *this;
  }

  BenchJson& Num(const char* key, double value, int precision = 4) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    Key(key);
    out_ += buf;
    return *this;
  }

  BenchJson& Int(const char* key, uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    Key(key);
    out_ += buf;
    return *this;
  }

  BenchJson& Bool(const char* key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }

  /// Appends "metrics":{name:value,...} — the registry's movement since
  /// `base` (MetricsRegistry::SnapshotSince: counters and histogram
  /// samples as deltas, gauges at their level). Benches run with metrics
  /// enabled by default, so this is the per-row account of
  /// wal/ground/search activity.
  BenchJson& Metrics(const std::vector<MetricSample>& base) {
    Key("metrics");
    out_ += '{';
    bool first = true;
    for (const MetricSample& s :
         MetricsRegistry::Global().SnapshotSince(base)) {
      if (!first) out_ += ',';
      first = false;
      out_ += '"';
      out_ += s.name;
      out_ += "\":";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", s.value);
      out_ += buf;
    }
    out_ += '}';
    return *this;
  }

  /// Prints the finished line to stdout.
  void Emit() {
    out_ += '}';
    std::printf("BENCH_JSON %s\n", out_.c_str());
    std::fflush(stdout);
  }

 private:
  void Key(const char* key) {
    if (out_.size() > 1) out_ += ',';
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  std::string out_;
};

}  // namespace bench
}  // namespace tuffy

#endif  // TUFFY_BENCH_BENCH_JSON_H_
