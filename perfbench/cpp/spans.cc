#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace perfbench {

int SpanRecorder::Begin(const std::string& name, uint64_t request_id) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  spans_[index].end_ns = NowNs();
  // Spans close innermost first; tolerate an out-of-order close.
  auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

void SpanRecorder::Add(const std::string& name, uint64_t start_ns,
                       uint64_t end_ns, uint64_t request_id) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  spans_.push_back(std::move(span));
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += Seconds(s.end_ns - s.start_ns);
  }
  return total;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(Millis(s.end_ns - s.start_ns));
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Requests of the open-loop fleet overlap; give each its own row.
    const uint64_t tid = s.request_id == 0 ? 0 : 1 + s.request_id % 64;
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"request_id\":%llu}}",
                 i == 0 ? "" : ",", JsonString(s.name).c_str(),
                 static_cast<unsigned long long>(tid),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<unsigned long long>(s.request_id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
