"""Tests of the benchmark's own arithmetic (benchstats.py) and of the
metric names in BENCHMARK.json.

    python3 perfbench/test_benchstats.py
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats as bs  # noqa: E402
import run  # noqa: E402

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def rec(write, due, sent, done, step=0, conn=0):
    return (conn, step, 1 if write else 0, due, sent, done)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bs.percentile(values, 50), 50)
        self.assertEqual(bs.percentile(values, 95), 95)
        self.assertEqual(bs.percentile(values, 99), 99)
        self.assertEqual(bs.percentile(values, 100), 100)
        self.assertEqual(bs.percentile([5.0, 1.0, 3.0], 50), 3.0)

    def test_samples_beyond(self):
        self.assertEqual(bs.samples_beyond(200, 95), 10)
        self.assertEqual(bs.samples_beyond(200, 99), 2)
        self.assertEqual(bs.samples_beyond(1000, 99), 10)

    def test_tail_needs_ten_beyond(self):
        # About 200 deltas: p95 leaves exactly 10 beyond it, p99 only 2.
        self.assertEqual(bs.tail_percentile(200), 95.0)
        self.assertEqual(bs.tail_percentile(199), 90.0)
        self.assertEqual(bs.tail_percentile(1000), 99.0)
        self.assertEqual(bs.tail_percentile(10000), 99.9)
        self.assertEqual(bs.tail_percentile(10000, cap=99.0), 99.0)
        self.assertEqual(bs.tail_percentile(20), 50.0)
        self.assertIsNone(bs.tail_percentile(19))

    def test_tail_value(self):
        values = [float(i) for i in range(1, 201)]
        self.assertEqual(bs.tail(values), (95.0, 190.0))
        self.assertEqual(bs.tail([1.0] * 5), (None, None))


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(bs.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bs.quartile_spread(values), (q3 - q1) / q2)
        self.assertEqual(bs.quartile_spread([2.0, 2.0, 2.0, 2.0]), 0.0)


class OpenLoopTest(unittest.TestCase):
    def test_latency_from_due_time(self):
        # Due at 1000 us, sent 500 us late, answered at 4000 us: the
        # latency counts the generator's lateness too.
        r = rec(True, 1000, 1500, 4000)
        self.assertAlmostEqual(bs.latency_ms(r), 3.0)
        self.assertAlmostEqual(bs.lateness_ms(r), 0.5)
        self.assertIsNone(bs.latency_ms(rec(True, 1000, 1000, None)))

    def test_unanswered_at(self):
        recs = [rec(False, 0, 0, 100), rec(False, 50, 50, 300),
                rec(False, 200, 200, None), rec(False, 400, 400, 450)]
        self.assertEqual(bs.unanswered_at(recs, 0), 1)
        self.assertEqual(bs.unanswered_at(recs, 150), 1)
        self.assertEqual(bs.unanswered_at(recs, 250), 2)
        self.assertEqual(bs.unanswered_at(recs, 500), 1)  # the lost one

    def test_backlog_steady_vs_growing(self):
        # 100 requests every 1000 us, each answered 300 us after due.
        steady = [rec(False, i * 1000, i * 1000, i * 1000 + 300)
                  for i in range(100)]
        self.assertFalse(bs.backlog_growing(steady))
        # Service slower than arrivals: request i answered at 1500*i.
        growing = [rec(False, i * 1000, i * 1000, i * 1500 + 300)
                   for i in range(100)]
        self.assertTrue(bs.backlog_growing(growing))


class MaxRateTest(unittest.TestCase):
    def step(self, n, lat_us, period_us=1000, step=0, done=True):
        out = []
        for i in range(n):
            due = i * period_us
            out.append(rec(i % 2 == 0, due, due,
                           due + lat_us if done else None, step=step))
        return out

    def test_step_summary_limit(self):
        ok = bs.step_summary([self.step(400, 2000)], limit_ms=5.0)
        self.assertTrue(ok["sustained"])
        self.assertEqual(ok["write_tail_pct"], 95.0)
        slow = bs.step_summary([self.step(400, 8000)], limit_ms=5.0)
        self.assertFalse(slow["sustained"])

    def test_processes_pool_latency(self):
        # Two processes of 200 requests: pooled, the tail reaches p95.
        s = bs.step_summary([self.step(200, 2000), self.step(200, 2000)],
                            limit_ms=5.0)
        self.assertEqual(s["requests"], 400)
        self.assertEqual(s["write_tail_pct"], 95.0)
        self.assertTrue(s["sustained"])

    def test_lost_request_misses_limit(self):
        recs = self.step(400, 1000)
        recs[3] = rec(False, 3000, 3000, None)
        self.assertFalse(bs.step_summary([recs], limit_ms=5.0)["sustained"])

    def test_highest_rate_before_first_miss(self):
        good = {"sustained": True}
        bad = {"sustained": False}
        self.assertEqual(
            bs.max_sustained_rate([200, 400, 800, 1600],
                                  [good, good, bad, good]), 400)
        self.assertEqual(bs.max_sustained_rate([400, 200], [good, good]), 400)
        self.assertEqual(bs.max_sustained_rate([200, 400], [bad, good]), 0.0)

    def test_growing_backlog_fails_step(self):
        recs = [rec(False, i * 1000, i * 1000, i * 1500 + 300)
                for i in range(400)]
        steady = self.step(400, 1000)
        s = bs.step_summary([steady, recs], limit_ms=1e9)
        self.assertTrue(s["backlog_growing"])
        self.assertFalse(s["sustained"])


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads(SPEC_PATH.read_text())

    def full(self, trace):
        listed = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        return {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in listed}

    def test_exact_sets_pass(self):
        self.assertEqual(bs.check_metric_names(self.full(False), self.spec,
                                               False), [])
        self.assertEqual(bs.check_metric_names(self.full(True), self.spec,
                                               True), [])

    def test_missing_extra_and_unit(self):
        metrics = self.full(False)
        del metrics["setup_s"]
        metrics["bogus"] = {"value": 1.0, "unit": "s"}
        metrics["op_p50_ms"]["unit"] = "s"
        problems = bs.check_metric_names(metrics, self.spec, False)
        self.assertIn("missing metric setup_s", problems)
        self.assertIn("undeclared metric bogus", problems)
        self.assertTrue(any("unit of op_p50_ms" in p for p in problems))

    def test_spec_shape(self):
        spec = self.spec
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def test_per_layer_reduces_raw_series(self):
        raw = {"workload": "serve_rc", "counts": {"reg.wal.fsync.count": 7.0},
               "values": {"ground.clauses": 12.0},
               "samples": {"serve.research_ms": [5.0, 1.0, 3.0, 100.0],
                           "serve.dirty_frac": [0.1, 0.2, 0.6],
                           "obs.untraced_ms": [10.0, 11.0, 12.0],
                           "obs.traced_ms": [11.0, 12.0, 13.2]}}
        got = run.per_layer(raw, self.spec)
        self.assertEqual(got["serve.research_ms"], 4.0)  # median
        self.assertAlmostEqual(got["serve.dirty_frac"], 0.3)  # mean
        self.assertEqual(got["ground.clauses"], 12.0)
        self.assertEqual(got["reg.wal.fsync.count"], 7.0)
        self.assertAlmostEqual(got["obs.trace_overhead_frac"], 1.0 / 11.0)
        self.assertEqual(got["net.shed"], 0.0)  # idle layer
        self.assertEqual(set(got), {m["name"] for m in self.spec["per_layer"]})

    def test_registry_counts_are_counts(self):
        for m in self.spec["per_layer"]:
            if m["name"].startswith("reg."):
                self.assertEqual(m["unit"], "count", m["name"])


if __name__ == "__main__":
    unittest.main()
