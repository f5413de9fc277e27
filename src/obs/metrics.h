#ifndef TUFFY_OBS_METRICS_H_
#define TUFFY_OBS_METRICS_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tuffy {

/// Process-wide observability kill switch. Off, every Counter::Add /
/// Gauge::Set / Histogram::Record is a relaxed load and a not-taken
/// branch — the hook stays in the binary but records nothing, which is
/// what makes the "metrics on vs off is bit-identical and <5% latency"
/// invariant cheap to enforce (bench_serving's obs lesion measures it).
/// Instrumentation never feeds back into inference: it reads clocks and
/// bumps atomics, so results are bit-identical either way.
void SetMetricsEnabled(bool enabled);
bool MetricsEnabled();

/// Monotonically increasing counter with sharded atomic cells: each
/// thread hashes to one of kShards cache-line-padded atomics, so
/// concurrent Add() calls from the worker pool do not bounce one cache
/// line around. Value() sums the shards — exact, because every Add lands
/// in exactly one shard (the concurrent-exactness test pins this down).
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Add(uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    shards_[ShardIndex()].cell.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.cell.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> cell{0};
  };

  static size_t ShardIndex();

  Shard shards_[kShards];
};

/// Last-writer-wins instantaneous value (queue depths, open connection
/// counts). Writers are usually a single owner thread; the atomic is for
/// the readers.
class Gauge {
 public:
  void Set(int64_t value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  /// Tracks a high-water mark alongside Set for peak gauges.
  void SetMax(int64_t value) {
    if (!MetricsEnabled()) return;
    int64_t prev = value_.load(std::memory_order_relaxed);
    while (prev < value &&
           !value_.compare_exchange_weak(prev, value,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time copy of a histogram's buckets. Subtractable, so a
/// consumer that wants "what happened since my baseline" (the net
/// server's per-instance metrics over the process-global registry)
/// snapshots at start and diffs.
struct HistogramSnapshot {
  static constexpr int kBuckets = 44;
  uint64_t counts[kBuckets] = {};
  uint64_t count = 0;
  double sum_seconds = 0.0;

  HistogramSnapshot operator-(const HistogramSnapshot& base) const;

  /// Value at quantile `p` in [0, 1], in seconds (0 when empty), with
  /// log-linear interpolation inside the hit power-of-two bucket — the
  /// error is bounded by the bucket's 2x width.
  double Percentile(double p) const;
  double mean_seconds() const {
    return count == 0 ? 0.0 : sum_seconds / static_cast<double>(count);
  }
};

/// Fixed-bucket latency histogram over power-of-two microsecond buckets
/// (bucket i holds [2^i, 2^(i+1)) us; bucket 0 also catches
/// sub-microsecond samples; 44 buckets cover ~5 hours), with atomic
/// cells so Record is lock-free from any thread. This replaces the
/// former util/histogram.h LatencyHistogram, whose instances had to be
/// guarded by their owner's mutex.
class Histogram {
 public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;

  void Record(double seconds) {
    if (!MetricsEnabled()) return;
    RecordAlways(seconds);
  }

  /// Record without the enable gate, for callers using Histogram as a
  /// plain local accumulator (benches) rather than a registry metric.
  void RecordAlways(double seconds) {
    const double micros = seconds * 1e6;
    int b = 0;
    if (micros >= 1.0) {
      uint64_t m = static_cast<uint64_t>(micros);
      while (m >>= 1) ++b;
      if (b >= kBuckets) b = kBuckets - 1;
    }
    counts_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Sum as fixed-point nanoseconds: doubles have no atomic fetch_add
    // pre-C++20-on-all-targets, and nanosecond granularity loses nothing
    // at metric precision.
    sum_ns_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                      std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double Percentile(double p) const { return Snapshot().Percentile(p); }
  double mean_seconds() const { return Snapshot().mean_seconds(); }

 private:
  std::atomic<uint64_t> counts_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

/// One rendered/snapshotted metric (counters and gauges; histograms
/// export through RenderText and GetHistogram).
struct MetricSample {
  std::string name;
  double value = 0.0;
  /// A gauge's value is a level (open sessions, queue depth), not a
  /// running total: differences between two snapshots mean nothing.
  bool gauge = false;
};

/// Process-wide registry of named metrics. Names are stable dotted paths
/// ("wal.fsync.count", "serve.delta.seconds"); the catalog lives in
/// docs/OBSERVABILITY.md. Get* registers on first use and returns a
/// pointer that stays valid for the process lifetime — instrumentation
/// sites cache it in a function-local static, so the hot path never
/// touches the registry mutex. The core serving-path names are
/// registered eagerly at construction so a scrape always sees the full
/// catalog (at zero) rather than only the series that happened to fire.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Every counter and gauge as (name, value), sorted by name, plus
  /// histograms contributing <name>.count and <name>.sum_seconds. The
  /// flight recorder and bench stamping read this.
  std::vector<MetricSample> Snapshot() const;

  /// The movement since `base` (an earlier Snapshot()): each counter and
  /// histogram sample that moved, as its difference (names absent from
  /// `base` count from zero), and each gauge that moved or is not at
  /// zero, at its level — a difference of two levels is no level at all.
  /// Series left out read as zero.
  std::vector<MetricSample> SnapshotSince(
      const std::vector<MetricSample>& base) const;

  /// Prometheus-style text exposition: "# TYPE" comment lines, one
  /// "<name> <value>" sample per counter/gauge, and per histogram the
  /// cumulative buckets '<name>.bucket{le="<seconds>"} <count>' plus
  /// <name>.count / <name>.sum. Dotted metric names are kept verbatim —
  /// a relabeling scrape config can map them to underscore form.
  std::string RenderText() const;

 private:
  mutable std::mutex mu_;
  // std::map: deterministic name order in RenderText/Snapshot.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace tuffy

#endif  // TUFFY_OBS_METRICS_H_
