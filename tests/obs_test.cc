#include <gtest/gtest.h>

#include <fcntl.h>
#include <stdlib.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "datagen/datasets.h"
#include "mln/parser.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_session.h"

namespace tuffy {
namespace {

// ------------------------------------------------------------- metrics

TEST(MetricsTest, ConcurrentCounterUpdatesAreExact) {
  // Every Add lands in exactly one shard, so the shard sum is exact no
  // matter how the threads interleave — the property that lets the hot
  // path skip any stronger synchronization.
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, DisabledSwitchDropsUpdates) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  SetMetricsEnabled(false);
  counter.Add(5);
  gauge.Set(7);
  histogram.Record(1e-3);
  SetMetricsEnabled(true);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(histogram.count(), 0u);
  // RecordAlways bypasses the gate (bench accumulators).
  SetMetricsEnabled(false);
  histogram.RecordAlways(1e-3);
  SetMetricsEnabled(true);
  EXPECT_EQ(histogram.count(), 1u);
}

TEST(MetricsTest, GaugeSetMaxKeepsHighWaterMark) {
  Gauge gauge;
  gauge.SetMax(3);
  gauge.SetMax(9);
  gauge.SetMax(5);
  EXPECT_EQ(gauge.Value(), 9);
}

TEST(MetricsTest, HistogramPercentilesStayInBucketBounds) {
  Histogram h;
  for (int i = 0; i < 990; ++i) h.RecordAlways(2e-3);    // 2 ms
  for (int i = 0; i < 10; ++i) h.RecordAlways(500e-3);   // 500 ms
  // The 2ms samples land in [1024us, 2048us); any interpolated p50 must
  // stay inside that bucket.
  EXPECT_GE(h.Percentile(0.50), 1024e-6);
  EXPECT_LE(h.Percentile(0.50), 2048e-6);
  // p999 reaches into the 500ms bucket [~262ms, ~524ms).
  EXPECT_GE(h.Percentile(0.999), 0.25);
  EXPECT_LE(h.Percentile(0.999), 0.53);
  // The mean is exact (fixed-point ns sum), not bucket-quantized.
  const double expected_mean = (990 * 2e-3 + 10 * 500e-3) / 1000.0;
  EXPECT_NEAR(h.mean_seconds(), expected_mean, 1e-5);

  // Percentiles of an empty histogram are zero, not NaN.
  Histogram empty;
  EXPECT_EQ(empty.Percentile(0.99), 0.0);
}

TEST(MetricsTest, SnapshotSubtractionIsolatesAWindow) {
  Histogram h;
  h.RecordAlways(1e-3);
  h.RecordAlways(1e-3);
  HistogramSnapshot base = h.Snapshot();
  h.RecordAlways(8e-3);
  HistogramSnapshot diff = h.Snapshot() - base;
  EXPECT_EQ(diff.count, 1u);
  EXPECT_NEAR(diff.sum_seconds, 8e-3, 1e-6);
  EXPECT_GE(diff.Percentile(0.5), 4096e-6);
}

TEST(MetricsTest, RegistryReturnsStablePointersAndRendersCatalog) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* a = registry.GetCounter("obs_test.counter");
  Counter* b = registry.GetCounter("obs_test.counter");
  EXPECT_EQ(a, b);
  a->Add(3);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("obs_test.counter 3"), std::string::npos);
  // The serving catalog registers eagerly, so a scrape sees the full
  // set of series even before any traffic.
  for (const char* name :
       {"wal.append.count", "wal.fsync.count", "ground.delta.count",
        "search.component.count", "serve.delta.count",
        "net.lane.queue.wait.seconds", "serve.delta.seconds",
        "threadpool.queue.depth"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find(".bucket{le=\"+Inf\"}"), std::string::npos);

  bool found = false;
  for (const MetricSample& s : registry.Snapshot()) {
    if (s.name == "obs_test.counter") {
      EXPECT_EQ(s.value, 3.0);
      EXPECT_FALSE(s.gauge);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsTest, SnapshotMarksGauges) {
  // A gauge is a level: snapshot consumers (bench rows) must report it
  // as one instead of differencing it like a counter.
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("obs_test.gauge")->Set(7);
  registry.GetCounter("obs_test.marked_counter")->Add(2);
  int seen = 0;
  for (const MetricSample& s : registry.Snapshot()) {
    if (s.name == "obs_test.gauge") {
      EXPECT_TRUE(s.gauge);
      EXPECT_EQ(s.value, 7.0);
      ++seen;
    } else if (s.name == "obs_test.marked_counter") {
      EXPECT_FALSE(s.gauge);
      ++seen;
    } else if (s.name == "serve.delta.seconds.count") {
      EXPECT_FALSE(s.gauge);  // histogram samples are totals too
      ++seen;
    }
  }
  EXPECT_EQ(seen, 3);
  // The scrape format is unchanged: the gauge renders as a gauge line.
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE obs_test.gauge gauge\nobs_test.gauge 7\n"),
            std::string::npos);
}

// -------------------------------------------------------------- traces

TEST(TraceTest, SpanTreeParentageFollowsNesting) {
  TraceBuilder trace("s");
  int root = trace.BeginSpan("apply_delta");
  int wal = trace.BeginSpan("wal.append");
  trace.EndSpan(wal);
  int ground = trace.BeginSpan("ground.delta");
  trace.EndSpan(ground);
  // An already-timed section lands under the innermost open span.
  uint64_t now = TraceNowNs();
  int comp = trace.AddSpan("search.component[0]", now - 1000, now);
  // ...and an explicit parent attaches under a closed span.
  int refresh = trace.AddChildSpan("mcsat.refresh", now - 800, now, comp);
  trace.EndSpan(root);

  DeltaTrace finished = trace.Finish(42);
  EXPECT_EQ(finished.sequence, 42u);
  ASSERT_EQ(finished.spans.size(), 5u);
  EXPECT_EQ(finished.spans[root].parent, -1);
  EXPECT_EQ(finished.spans[wal].parent, root);
  EXPECT_EQ(finished.spans[ground].parent, root);
  EXPECT_EQ(finished.spans[comp].parent, root);
  EXPECT_EQ(finished.spans[refresh].parent, comp);
  for (const Span& span : finished.spans) {
    EXPECT_GE(span.end_ns, span.start_ns) << span.name;
  }

  const std::string rendered = finished.Render();
  EXPECT_NE(rendered.find("apply_delta"), std::string::npos);
  // Children indent under their parents; the refresh is one level
  // deeper than its component.
  EXPECT_NE(rendered.find("  wal.append"), std::string::npos);
  EXPECT_NE(rendered.find("    mcsat.refresh"), std::string::npos);
}

TEST(TraceTest, RingKeepsOnlyTheLastCapacityTraces) {
  TraceRing ring(3);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    TraceBuilder trace("s");
    int root = trace.BeginSpan("apply_delta");
    trace.EndSpan(root);
    ring.Push(trace.Finish(seq));
  }
  std::vector<DeltaTrace> kept = ring.Snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept.front().sequence, 3u);
  EXPECT_EQ(kept.back().sequence, 5u);
}

TEST(TraceTest, SessionDeltaProducesLifecycleSpans) {
  auto r = ParseProgram(
      "*link(node, node)\n"
      "label(node, cls)\n"
      "2 link(x, y), label(x, c) => label(y, c)\n");
  ASSERT_TRUE(r.ok());
  MlnProgram program = r.TakeValue();
  program.symbols().Intern("A", "cls");
  program.symbols().Intern("B", "cls");
  for (int i = 0; i < 4; ++i) {
    program.symbols().Intern("n" + std::to_string(i), "node");
  }
  auto atom = [&](const std::string& pred,
                  const std::vector<std::string>& args) {
    GroundAtom a;
    a.pred = program.FindPredicate(pred).value();
    for (const std::string& arg : args) {
      a.args.push_back(program.symbols().Find(arg));
    }
    return a;
  };
  EvidenceDb evidence;
  evidence.Add(atom("link", {"n0", "n1"}), true);
  evidence.Add(atom("label", {"n0", "A"}), true);

  SessionOptions opts;
  opts.total_flips = 20000;
  opts.seed = 11;
  InferenceSession session(program, opts);
  ASSERT_TRUE(session.Open(evidence).ok());

  EvidenceDelta delta;
  delta.Assert(atom("link", {"n1", "n2"}), true);
  TraceBuilder trace("test-session");
  auto applied = session.ApplyDelta(delta, &trace);
  ASSERT_TRUE(applied.ok());

  std::vector<DeltaTrace> traces = session.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const DeltaTrace& t = traces.front();
  EXPECT_EQ(t.sequence, applied.value().seq);
  auto has_span = [&](const std::string& name) {
    for (const Span& span : t.spans) {
      if (span.name.rfind(name, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_span("apply_delta"));
  EXPECT_TRUE(has_span("ground.delta"));
  EXPECT_TRUE(has_span("search"));
  EXPECT_TRUE(has_span("search.component["));
}

TEST(TraceTest, SlowDeltaThresholdLogsTheSpanTree) {
  auto r = ParseProgram(
      "*link(node, node)\n"
      "label(node, cls)\n"
      "2 link(x, y), label(x, c) => label(y, c)\n");
  ASSERT_TRUE(r.ok());
  MlnProgram program = r.TakeValue();
  program.symbols().Intern("A", "cls");
  program.symbols().Intern("n0", "node");
  program.symbols().Intern("n1", "node");
  auto atom = [&](const std::string& pred,
                  const std::vector<std::string>& args) {
    GroundAtom a;
    a.pred = program.FindPredicate(pred).value();
    for (const std::string& arg : args) {
      a.args.push_back(program.symbols().Find(arg));
    }
    return a;
  };
  EvidenceDb evidence;
  evidence.Add(atom("label", {"n0", "A"}), true);

  SessionOptions opts;
  opts.total_flips = 20000;
  opts.seed = 11;
  opts.slow_delta_seconds = 1e-9;  // every delta breaches
  InferenceSession session(program, opts);
  ASSERT_TRUE(session.Open(evidence).ok());

  EvidenceDelta delta;
  delta.Assert(atom("link", {"n0", "n1"}), true);
  TraceBuilder trace("slow");
  ::testing::internal::CaptureStderr();
  auto applied = session.ApplyDelta(delta, &trace);
  const std::string log = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(applied.ok());
  EXPECT_NE(log.find("slow delta"), std::string::npos) << log;
  EXPECT_NE(log.find("apply_delta"), std::string::npos) << log;
}

TEST(TraceTest, TracingAndMetricsDoNotChangeInference) {
  // The key invariant: instrumentation on vs off is bit-identical for
  // inference. Two sessions, same options, same delta stream — one
  // traced with metrics on, one untraced with the kill switch off.
  RcParams p;
  p.num_clusters = 3;
  p.papers_per_cluster = 4;
  p.num_categories = 3;
  p.labeled_fraction = 0.6;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());
  const MlnProgram& program = ds.value().program;

  PredicateId cat = program.FindPredicate("cat").value();
  GroundAtom victim;
  for (const auto& [a, truth] : ds.value().evidence.entries()) {
    if (a.pred == cat && truth) {
      victim = a;
      break;
    }
  }
  ASSERT_FALSE(victim.args.empty());
  EvidenceDelta delta;
  delta.Retract(victim);

  SessionOptions opts;
  opts.total_flips = 40000;
  opts.seed = 13;

  InferenceSession traced(program, opts);
  ASSERT_TRUE(traced.Open(ds.value().evidence).ok());
  TraceBuilder trace("traced");
  auto r1 = traced.ApplyDelta(delta, &trace);
  ASSERT_TRUE(r1.ok());

  SetMetricsEnabled(false);
  InferenceSession plain(program, opts);
  ASSERT_TRUE(plain.Open(ds.value().evidence).ok());
  auto r2 = plain.ApplyDelta(delta);
  SetMetricsEnabled(true);
  ASSERT_TRUE(r2.ok());

  EXPECT_EQ(r1.value().map_cost, r2.value().map_cost);
  EXPECT_EQ(r1.value().flips, r2.value().flips);
  EXPECT_EQ(traced.truth(), plain.truth());
  EXPECT_EQ(traced.map_cost(), plain.map_cost());
}

// ----------------------------------------------------- flight recorder

TEST(FlightRecorderTest, DumpReplaysRecordedEventsInOrder) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Record("obs_test first event");
  recorder.Recordf("obs_test delta seq=%d cost=%.2f", 7, 1.50);

  char path[] = "/tmp/obs_test_dump_XXXXXX";
  int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  recorder.Dump(fd, /*include_metrics=*/true);
  ::lseek(fd, 0, SEEK_SET);
  std::string contents(1 << 16, '\0');
  ssize_t n = ::read(fd, contents.data(), contents.size());
  ASSERT_GT(n, 0);
  contents.resize(static_cast<size_t>(n));
  ::close(fd);
  ::unlink(path);

  EXPECT_NE(contents.find("flight recorder"), std::string::npos);
  size_t first = contents.find("obs_test first event");
  size_t second = contents.find("obs_test delta seq=7 cost=1.50");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  // include_metrics appends the registry snapshot.
  EXPECT_NE(contents.find("metrics at crash"), std::string::npos);
  EXPECT_NE(contents.find("serve.delta.count"), std::string::npos);
}

TEST(FlightRecorderTest, RingWrapsWithoutLosingTheTail) {
  FlightRecorder& recorder = FlightRecorder::Global();
  for (int i = 0; i < static_cast<int>(FlightRecorder::kSlots) + 10; ++i) {
    recorder.Recordf("obs_test wrap %d", i);
  }
  char path[] = "/tmp/obs_test_wrap_XXXXXX";
  int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  recorder.Dump(fd, /*include_metrics=*/false);
  ::lseek(fd, 0, SEEK_SET);
  std::string contents(1 << 16, '\0');
  ssize_t n = ::read(fd, contents.data(), contents.size());
  ASSERT_GT(n, 0);
  contents.resize(static_cast<size_t>(n));
  ::close(fd);
  ::unlink(path);

  // The newest event survived the wrap; the oldest were overwritten.
  const int last = static_cast<int>(FlightRecorder::kSlots) + 9;
  EXPECT_NE(contents.find("obs_test wrap " + std::to_string(last)),
            std::string::npos);
  EXPECT_EQ(contents.find("obs_test wrap 0\n"), std::string::npos);
}

}  // namespace
}  // namespace tuffy
