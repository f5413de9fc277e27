"""Arithmetic of the benchmark: percentiles, spreads, open-loop latency,
the net_max_rps rule and the metric-name check.

The runner binary reports raw samples; everything here turns them into
the named metrics. Tested by test_benchstats.py:

    python3 perfbench/test_benchstats.py
"""

import math
import statistics

# Percentiles a tail may be reported at, highest last.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples. The
    epsilon absorbs binary rounding (99.9% of 10000 is rank 9990)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it. `values` need not be sorted."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail_percentile(n, cap=99.9):
    """The highest candidate percentile, at most `cap`, with at least
    MIN_BEYOND of n samples beyond it; None when even the median has
    fewer."""
    best = None
    for p in TAIL_CANDIDATES:
        if p <= cap and samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def tail(values, cap=99.9):
    """(percentile, value) of the reportable tail, or (None, None)."""
    p = tail_percentile(len(values), cap)
    if p is None:
        return None, None
    return p, percentile(values, p)


def median(values):
    return statistics.median(values)


def mean(values):
    return statistics.fmean(values)


def quartiles(values):
    """First quartile, median and third quartile, the way
    statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (the acceptance spread of a metric over seeds)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


# ------------------------------------------------------------ open loop
#
# A request record is (conn, step, write, due_us, sent_us, done_us), times
# in microseconds since the load started; done_us is None when no reply
# came back.


def latency_ms(record):
    """Open-loop latency: reply time minus the time the request was due
    (not the time it was sent), or None for an unanswered request."""
    _, _, _, due, _, done = record
    return None if done is None else (done - due) / 1000.0


def lateness_ms(record):
    """How late the generator sent the request against its schedule."""
    _, _, _, due, sent, _ = record
    return (sent - due) / 1000.0


def unanswered_at(records, t_us):
    """Requests due by t_us whose reply had not arrived at t_us — the
    backlog, whether queued at the server or not yet sent."""
    return sum(1 for r in records
               if r[3] <= t_us and (r[5] is None or r[5] > t_us))


def backlog_growing(step_records, min_growth=4, growth_share=0.02):
    """True when the backlog at the last request's due time exceeds the
    backlog at the middle request's due time by more than
    max(min_growth, growth_share * requests in the step)."""
    if len(step_records) < 2:
        return False
    dues = sorted(r[3] for r in step_records)
    t_mid = dues[len(dues) // 2]
    t_end = dues[-1]
    growth = (unanswered_at(step_records, t_end) -
              unanswered_at(step_records, t_mid))
    return growth > max(min_growth, growth_share * len(step_records))


def step_summary(runs, limit_ms):
    """Latency figures of one ladder step and whether it meets the limit.
    `runs` holds the step's records of each runner process; latencies are
    pooled over them, the backlog is judged per process (their clocks
    differ). The step meets the limit when the read and write tails are
    within `limit_ms`, every request was answered, and no process shows
    a growing backlog."""
    pooled = [r for recs in runs for r in recs]
    out = {"requests": len(pooled)}
    ok = True
    for kind, flag in (("write", 1), ("read", 0)):
        lats = [latency_ms(r) for r in pooled if r[2] == flag]
        answered = [x for x in lats if x is not None]
        out[kind + "_count"] = len(lats)
        out[kind + "_failed"] = len(lats) - len(answered)
        if answered:
            out[kind + "_p50_ms"] = median(answered)
            p, v = tail(answered, cap=99.0)
            out[kind + "_tail_pct"] = p
            out[kind + "_tail_ms"] = v
            if v is None or v > limit_ms:
                ok = False
        else:
            ok = False
        if len(answered) < len(lats):
            ok = False  # a refused or lost request misses any limit
    out["backlog_growing"] = any(backlog_growing(recs) for recs in runs)
    out["sustained"] = ok and not out["backlog_growing"]
    return out


def max_sustained_rate(rates, summaries):
    """The highest offered rate of the ladder, walking up from the
    lowest, before the first step that misses the limit; 0 if the lowest
    already misses it."""
    best = 0.0
    for rate, summary in sorted(zip(rates, summaries), key=lambda x: x[0]):
        if not summary["sustained"]:
            break
        best = rate
    return best


# ------------------------------------------------------- metric names


def check_metric_names(metrics, spec, trace):
    """Problems (as strings) between a result's metrics and BENCHMARK.json:
    with trace the metrics must be exactly the per_layer list, without it
    exactly the end_to_end list, each with its declared unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = []
    names = {m["name"]: m["unit"] for m in wanted}
    for name in names:
        if name not in metrics:
            problems.append("missing metric " + name)
    for name, entry in metrics.items():
        if name not in names:
            problems.append("undeclared metric " + name)
            continue
        if entry.get("unit") != names[name]:
            problems.append("unit of %s is %r, declared %r" %
                            (name, entry.get("unit"), names[name]))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append("value of %s is not a finite number" % name)
    return problems
