#include "obs/metrics.h"

#include <cstdio>
#include <sstream>

namespace tuffy {

namespace {
std::atomic<bool> g_metrics_enabled{true};
std::atomic<size_t> g_next_shard{0};
}  // namespace

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

size_t Counter::ShardIndex() {
  // Round-robin shard assignment at first use per thread: spreads the
  // pool's workers across shards regardless of how the platform packs
  // thread ids.
  thread_local size_t shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

HistogramSnapshot HistogramSnapshot::operator-(
    const HistogramSnapshot& base) const {
  HistogramSnapshot out;
  for (int i = 0; i < kBuckets; ++i) {
    out.counts[i] = counts[i] - base.counts[i];
  }
  out.count = count - base.count;
  out.sum_seconds = sum_seconds - base.sum_seconds;
  return out;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const uint64_t rank =
      static_cast<uint64_t>(p * static_cast<double>(count - 1)) + 1;
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) {
      // Interpolate within [2^b, 2^(b+1)) microseconds by the rank's
      // position inside this bucket's samples.
      const double lo = b == 0 ? 0.0 : static_cast<double>(uint64_t{1} << b);
      const double hi = static_cast<double>(uint64_t{1} << (b + 1));
      const uint64_t in_bucket = counts[b];
      const uint64_t before = seen - in_bucket;
      const double frac =
          in_bucket == 0
              ? 0.0
              : static_cast<double>(rank - before) /
                    static_cast<double>(in_bucket);
      return (lo + frac * (hi - lo)) * 1e-6;
    }
  }
  return static_cast<double>(uint64_t{1} << kBuckets) * 1e-6;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (int i = 0; i < kBuckets; ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_seconds =
      static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::MetricsRegistry() {
  // Eagerly register the core serving-path catalog so a scrape (or the
  // CI grep over kMetrics output) always sees these series, even at
  // zero. Instrumentation sites still call Get* themselves; these calls
  // just pre-create the entries.
  for (const char* name : {
           "wal.append.count",
           "wal.append.bytes",
           "wal.fsync.count",
           "ground.delta.count",
           "ground.candidates",
           "ground.pruned.antijoin",
           "ground.maintenance.rows",
           "search.component.count",
           "search.flips",
           "search.exact.components",
           "search.exact.atoms",
           "search.exact.rejected",
           "serve.delta.count",
           "serve.request.count",
           "serve.error.count",
           "serve.overload.count",
           "storage.bufferpool.hits",
           "storage.bufferpool.misses",
           "storage.bufferpool.evictions",
       }) {
    GetCounter(name);
  }
  for (const char* name : {
           "threadpool.queue.depth",
           "net.queue.depth",
           "net.sessions.open",
       }) {
    GetGauge(name);
  }
  for (const char* name : {
           "serve.delta.seconds",
           "net.lane.queue.wait.seconds",
           "search.exact.seconds",
       }) {
    GetHistogram(name);
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot.reset(new Counter());
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot.reset(new Histogram());
  return slot.get();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + 2 * histograms_.size());
  for (const auto& kv : counters_) {
    out.push_back({kv.first, static_cast<double>(kv.second->Value())});
  }
  for (const auto& kv : gauges_) {
    out.push_back({kv.first, static_cast<double>(kv.second->Value()),
                   /*gauge=*/true});
  }
  for (const auto& kv : histograms_) {
    HistogramSnapshot snap = kv.second->Snapshot();
    out.push_back({kv.first + ".count", static_cast<double>(snap.count)});
    out.push_back({kv.first + ".sum_seconds", snap.sum_seconds});
  }
  return out;
}

namespace {
std::string FormatValue(double v) {
  char buf[64];
  // Counters and gauges are integral; render them without a fraction so
  // the exposition greps clean.
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}
}  // namespace

std::string MetricsRegistry::RenderText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& kv : counters_) {
    out << "# TYPE " << kv.first << " counter\n";
    out << kv.first << ' ' << kv.second->Value() << '\n';
  }
  for (const auto& kv : gauges_) {
    out << "# TYPE " << kv.first << " gauge\n";
    out << kv.first << ' ' << kv.second->Value() << '\n';
  }
  for (const auto& kv : histograms_) {
    const HistogramSnapshot snap = kv.second->Snapshot();
    out << "# TYPE " << kv.first << " histogram\n";
    uint64_t cumulative = 0;
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      cumulative += snap.counts[b];
      // Skip empty leading/inner buckets except a few anchors to keep
      // the exposition small; always render buckets holding samples and
      // the final +Inf.
      if (snap.counts[b] == 0 && b != 0) continue;
      const double le = static_cast<double>(uint64_t{1} << (b + 1)) * 1e-6;
      out << kv.first << ".bucket{le=\"" << FormatValue(le) << "\"} "
          << cumulative << '\n';
    }
    out << kv.first << ".bucket{le=\"+Inf\"} " << snap.count << '\n';
    out << kv.first << ".count " << snap.count << '\n';
    out << kv.first << ".sum " << FormatValue(snap.sum_seconds) << '\n';
  }
  return out.str();
}

}  // namespace tuffy
