#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span recorder of the traced runs. The benchmark opens one
// span around each call it makes into a layer's public function; spans
// nest by call order (the innermost open span is the parent). Nothing
// is written while the workload runs: the spans are kept in memory and
// written once at exit as Chrome trace-event JSON, which chrome://tracing
// and Perfetto open directly.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;
  uint64_t request_id = 0;
};

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int Begin(const std::string& name, uint64_t request_id = 0);
  void End(int index);
  /// Records an already-measured interval (open-loop requests, whose
  /// start is the due time rather than a call).
  void Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
           uint64_t request_id = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of spans called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// Durations of every span called `name`, in milliseconds.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; records nothing when `rec` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name,
             uint64_t request_id = 0)
      : rec_(rec), index_(rec ? rec->Begin(name, request_id) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
