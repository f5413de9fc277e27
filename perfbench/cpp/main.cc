// Benchmark runner: runs one workload and prints its raw result (every
// sample, value, count and check) as one JSON line on stdout. Normally
// invoked by perfbench/run.py, which turns that line into the named
// metrics; it can also be run by hand:
//
//   perfbench --workload batch_ie --seed 1 --seconds 10 --trace 0
//             --work-dir .bench_build/work

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload batch_lp|batch_ie|serve_rc|"
               "net_fleet --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--part K]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--part") {
      args.part = std::atoi(value);
    } else {
      Usage();
      return 2;
    }
  }
  if (args.work_dir.empty() || args.seconds <= 0) {
    Usage();
    return 2;
  }
  if (!perfbench::MakeDirs(args.work_dir)) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 1;
  }

  perfbench::Report report;
  bool ok = false;
  if (args.workload == "batch_lp" || args.workload == "batch_ie") {
    ok = perfbench::RunBatchWorkload(args, &report);
  } else if (args.workload == "serve_rc") {
    ok = perfbench::RunServeWorkload(args, &report);
  } else if (args.workload == "net_fleet") {
    ok = perfbench::RunNetWorkload(args, &report);
  } else {
    Usage();
    return 2;
  }
  if (!ok) return 1;
  std::printf("%s\n", report.Render(args).c_str());
  return 0;
}
