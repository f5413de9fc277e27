#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark runner: command-line arguments, the
// raw-result JSON document the runner prints for run.py, output checks,
// registry-count snapshots and the process's peak resident memory.
//
// The runner reports raw samples (every latency, every set-up time);
// run.py turns them into the named metrics, so the statistics live in
// one tested place (perfbench/benchstats.py).

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (WAL dirs, the trace file).
  std::string work_dir;
  /// Index of this process among the runner processes of one run. Part
  /// 0 also makes the checks against a reference implementation (batch:
  /// a Run over the in-memory reference; serve_rc: a fresh Run and
  /// Recover; net_fleet: the in-process twins).
  int part = 0;
};

/// Minimal JSON object builder. Keys keep insertion order; nested
/// objects and arrays are passed in already rendered.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, uint64_t value);
  Json& Bool(const std::string& key, bool value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Raw(const std::string& key, const std::string& rendered);
  Json& Nums(const std::string& key, const std::vector<double>& values);
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// A MAP cost with every digit, for check details.
std::string CostText(double cost);

/// Everything one workload run reports back to run.py.
struct Report {
  /// Operations attempted / failed (a failed check counts as one failed
  /// operation, see AddCheck).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output checks: name -> (passed, detail).
  std::vector<std::pair<std::string, std::pair<bool, std::string>>> checks;
  /// Raw sample series (set-up seconds, per-operation milliseconds...).
  std::map<std::string, std::vector<double>> samples;
  /// Single values (final cost, peak memory, layer spans...).
  std::map<std::string, double> values;
  /// Exact counts from the metrics registry (see CountDiff).
  std::map<std::string, double> counts;
  /// Free-form rendered JSON sections (the net schedule records).
  std::map<std::string, std::string> sections;

  void AddCheck(const std::string& name, bool ok, const std::string& detail);
  std::string Render(const Args& args) const;
};

/// The registry counters the benchmark reports as exact counts.
const std::vector<std::string>& CountedMetrics();

/// Snapshot of the counted registry metrics (MetricsBaseline, filtered).
std::map<std::string, double> CountSnapshot();

/// Per-name difference `after - before`, stored into report->counts as
/// "reg.<name>", divided by `per` (1 = the raw total).
void StoreCountDiff(const std::map<std::string, double>& before,
                    const std::map<std::string, double>& after, double per,
                    Report* report);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Restarts the kernel's peak-RSS mark (VmHWM) at the current resident
/// size; false where /proc/self/clear_refs is not writable.
bool ResetPeakRss();
/// VmHWM of this process in MiB (the peak since the last reset).
double PeakRssSinceResetMb();

/// Monotonic nanoseconds (the clock every span and sample uses).
uint64_t NowNs();

inline double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double Millis(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Removes a directory tree (the benchmark's own scratch state).
void RemoveTree(const std::string& path);
/// Creates `path` and its parents.
bool MakeDirs(const std::string& path);

/// min(4, hardware threads), the thread count of every batch run.
int BenchThreads();

/// Workload entry points (batch.cc, serve.cc, net.cc). Each fills the
/// report; a non-OK exit means the workload could not run at all.
bool RunBatchWorkload(const Args& args, Report* report);
bool RunServeWorkload(const Args& args, Report* report);
bool RunNetWorkload(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
