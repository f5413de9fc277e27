#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>

#include "bench/bench_json.h"

namespace perfbench {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CostText(double cost) { return JsonNumber(cost); }

void Json::Key(const std::string& key) {
  if (!body_.empty()) body_ += ',';
  body_ += JsonString(key);
  body_ += ':';
}

Json& Json::Num(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

Json& Json::Int(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& rendered) {
  Key(key);
  body_ += rendered;
  return *this;
}

Json& Json::Nums(const std::string& key, const std::vector<double>& values) {
  std::string arr = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) arr += ',';
    arr += JsonNumber(values[i]);
  }
  return Raw(key, arr + "]");
}

void Report::AddCheck(const std::string& name, bool ok,
                      const std::string& detail) {
  checks.push_back({name, {ok, detail}});
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", name.c_str(),
                 detail.c_str());
  }
}

std::string Report::Render(const Args& args) const {
  Json checks_json;
  for (const auto& [name, result] : checks) {
    checks_json.Raw(name, Json()
                              .Bool("ok", result.first)
                              .Str("detail", result.second)
                              .Render());
  }
  Json samples_json;
  for (const auto& [name, series] : samples) samples_json.Nums(name, series);
  Json values_json;
  for (const auto& [name, v] : values) values_json.Num(name, v);
  Json counts_json;
  for (const auto& [name, v] : counts) counts_json.Num(name, v);
  Json sections_json;
  for (const auto& [name, rendered] : sections) {
    sections_json.Raw(name, rendered);
  }
  return Json()
      .Str("workload", args.workload)
      .Int("seed", args.seed)
      .Bool("trace", args.trace)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("checks", checks_json.Render())
      .Raw("samples", samples_json.Render())
      .Raw("values", values_json.Render())
      .Raw("counts", counts_json.Render())
      .Raw("sections", sections_json.Render())
      .Render();
}

const std::vector<std::string>& CountedMetrics() {
  static const std::vector<std::string> kNames = {
      "ground.candidates",       "ground.pruned.antijoin",
      "search.flips",            "search.exact.components",
      "wal.append.count",        "wal.append.bytes",
      "wal.fsync.count",         "serve.overload.count",
  };
  return kNames;
}

std::map<std::string, double> CountSnapshot() {
  std::map<std::string, double> out;
  for (const std::string& name : CountedMetrics()) out[name] = 0.0;
  for (const tuffy::MetricSample& s : tuffy::bench::MetricsBaseline()) {
    auto it = out.find(s.name);
    if (it != out.end()) it->second = s.value;
  }
  return out;
}

void StoreCountDiff(const std::map<std::string, double>& before,
                    const std::map<std::string, double>& after, double per,
                    Report* report) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    const double base = it == before.end() ? 0.0 : it->second;
    report->counts["reg." + name] = (value - base) / per;
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssSinceResetMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return PeakRssMb();
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kib) == 1) break;
  }
  std::fclose(f);
  return kib < 0 ? PeakRssMb() : kib / 1024.0;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

int BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

}  // namespace perfbench
