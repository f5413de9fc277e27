#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload batch_ie --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
runner binary (perfbench/CMakeLists.txt) from this checkout's sources into
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. The runner reports raw samples; this script turns them into the
metrics named in BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1), prints every metric of the workload by name and unit,
and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 1 the spans of the traced run are written as Chrome
trace-event JSON to .bench_build/traces/<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import benchstats as bs

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("batch_lp", "batch_ie", "serve_rc", "net_fleet")

# net_fleet: the latency limit of net_max_rps, on the read and write tail
# (at most p99, see benchstats.tail) of each ladder step.
NET_LATENCY_LIMIT_MS = 20.0

# An untraced run is split across this many runner processes, run one
# after the other, each measuring seconds / PROCESSES[workload] with the
# same seed. On the reference machine a process lands in one of a few
# speed modes for its whole life (up to 1.5x apart on the parse-bound
# set-up, 7% on a Run, 10% on serve_rc's single-threaded deltas), so
# pooling samples of several processes steadies the medians.
PROCESSES = {"batch_lp": 3, "batch_ie": 3, "serve_rc": 5, "net_fleet": 3}
# The whole run must end within 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target


def build(out):
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "exec" / "tuffy_engine.h").exists():
        log("perfbench: library sources (src/) not found in " + str(ROOT))
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: build step failed: %s" % e)
            return None
        if proc.returncode != 0:
            log(proc.stdout.decode(errors="replace")[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def run_runner(binary, args, seconds, part, work, timeout):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%g" % seconds, "--trace", str(args.trace),
           "--work-dir", str(work / str(part)), "--part", str(part)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return None
    if proc.returncode != 0:
        log("perfbench: runner exited with %d" % proc.returncode)
        return None
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def merge(raws):
    """One result from the runner processes of an untraced run: samples
    pooled, counts summed, checks kept per process. Every process runs
    the same seed, so the MAP cost must repeat exactly across them."""
    if len(raws) == 1:
        return raws[0]
    out = {"workload": raws[0]["workload"], "processes": raws,
           "attempted": sum(r["attempted"] for r in raws),
           "failed": sum(r["failed"] for r in raws),
           "checks": {}, "samples": {}, "values": {}}
    for k, raw in enumerate(raws):
        for name, c in raw["checks"].items():
            out["checks"]["p%d.%s" % (k, name)] = c
        for name, series in raw["samples"].items():
            out["samples"].setdefault(name, []).extend(series)
    costs = [r["values"]["map_cost"] for r in raws]
    repeats = all(c == costs[0] for c in costs)
    out["checks"]["map_cost_repeats"] = {
        "ok": repeats,
        "detail": "MAP cost of every process: " + ", ".join(
            "%.17g" % c for c in costs)}
    if not repeats:
        out["attempted"] += 1
        out["failed"] += 1
    out["values"]["map_cost"] = costs[0]
    out["values"]["peak_rss_mb"] = bs.median(
        [r["values"]["peak_rss_mb"] for r in raws])
    return out


# ------------------------------------------------------------ metrics


def net_ladder(raws):
    """Ladder rows (identical in every process) and, per step, the
    request records of each process."""
    steps = raws[0]["sections"]["net_steps"]
    per_step = [[[r for r in raw["sections"]["net_requests"] if r[1] == i]
                 for raw in raws] for i in range(len(steps))]
    return steps, per_step


def net_reference(steps):
    """Index of the reference step: the first of the rate ladder."""
    return next(i for i, s in enumerate(steps) if s["kind"] == "ladder")


def end_to_end(result, report):
    """The end_to_end metrics; also appends the workload's human report
    lines (value, unit, name) to `report`."""
    w = result["workload"]
    samples, values = result["samples"], result["values"]
    setup = samples["setup_s"]
    report.append((bs.median(setup), "s",
                   "setup_s (median of %d)" % len(setup)))
    if w == "net_fleet":
        steps, per_step = net_ladder(result.get("processes", [result]))
        ref = net_reference(steps)
        summaries = [bs.step_summary(runs, NET_LATENCY_LIMIT_MS)
                     for runs in per_step]
        on = [i for i, s in enumerate(steps) if s["kind"] == "ladder"]
        for i in on:
            s, row = summaries[i], steps[i]
            report.append((row["rate"], "req/s",
                           "offered rate, step %d (%d requests)" %
                           (i, s["requests"])))
            for kind in ("write", "read"):
                if kind + "_p50_ms" not in s:
                    continue
                report.append((s[kind + "_p50_ms"], "ms",
                               "  net_%s_p50_ms (n=%d)" %
                               (kind, s[kind + "_count"])))
                if s[kind + "_tail_ms"] is not None:
                    report.append((s[kind + "_tail_ms"], "ms",
                                   "  net_%s_p99_ms (reported at p%g)" %
                                   (kind, s[kind + "_tail_pct"])))
            report.append((int(s["backlog_growing"]), "bool",
                           "  growing backlog"))
        max_rps = bs.max_sustained_rate([steps[i]["rate"] for i in on],
                                        [summaries[i] for i in on])
        report.append((max_rps, "req/s",
                       "net_max_rps (tails within %g ms)" %
                       NET_LATENCY_LIMIT_MS))
        op_p50 = summaries[ref]["write_p50_ms"]
    else:
        ops = samples["op_ms"]
        op_p50 = bs.median(ops)
        if w == "serve_rc":
            report.append((op_p50, "ms", "delta_p50_ms (n=%d)" % len(ops)))
            p, v = bs.tail(ops)
            if p is not None:
                report.append((v, "ms", "delta_p95_ms (reported at p%g)" % p))
        else:
            report.append((op_p50 / 1e3, "s", "run_s (median of %d)" %
                           len(ops)))
    report.append((values["map_cost"], "cost", "map_cost"))
    report.append((values["peak_rss_mb"], "MB", "peak_rss_mb"))
    return {
        "setup_s": bs.median(setup),
        "op_p50_ms": op_p50,
        "map_cost": values["map_cost"],
        "peak_rss_mb": values["peak_rss_mb"],
    }


# Per-layer series the runner reports raw; their mean is the metric (the
# median for every other series).
LAYER_MEANS = ("serve.flips_per_delta", "serve.dirty_frac",
               "serve.maintenance_rows_per_delta")


def per_layer(raw, spec):
    """The per_layer metrics; layers the workload leaves idle report 0."""
    samples = raw["samples"]
    values = dict(raw["values"])
    values.update(raw["counts"])
    for m in spec["per_layer"]:
        series = samples.get(m["name"])
        if series:
            values[m["name"]] = (bs.mean(series) if m["name"] in LAYER_MEANS
                                 else bs.median(series))
    if "obs.traced_ms" in samples:
        base = bs.median(samples["obs.untraced_ms"])
        values["obs.trace_overhead_frac"] = (
            (bs.median(samples["obs.traced_ms"]) - base) / base)
    if raw["workload"] == "net_fleet":
        steps, per_step = net_ladder([raw])
        ref_recs = per_step[net_reference(steps)][0]
        writes = [bs.latency_ms(r) for r in ref_recs if r[2] == 1]
        writes = [x for x in writes if x is not None]
        values["net.overhead_ms"] = (bs.median(writes) -
                                     bs.median(samples["inproc_write_ms"]))
        late = [bs.lateness_ms(r) for r in ref_recs]
        values["net.gen_late_ms"] = bs.tail(late, cap=99.0)[1] or max(late)
        off = [i for i, s in enumerate(steps) if s["kind"] == "metrics_off"]
        if off:
            base = [bs.latency_ms(r) for r in per_step[off[0]][0]]
            base = [x for x in base if x is not None]
            lat = [bs.latency_ms(r) for r in ref_recs]
            lat = [x for x in lat if x is not None]
            values["obs.trace_overhead_frac"] = (
                (bs.median(lat) - bs.median(base)) / bs.median(base))
    return {m["name"]: float(values.get(m["name"], 0.0))
            for m in spec["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log("perfbench: BENCHMARK.json not found in " + str(ROOT))
        return 1
    spec = json.loads(spec_path.read_text())

    out = build_dir()
    binary = build(out / "perfbench")
    if binary is None:
        return 1
    work = out / "work" / ("%s-%d-%d" % (args.workload, args.seed,
                                         os.getpid()))
    processes = 1 if args.trace else PROCESSES[args.workload]
    raws = []
    try:
        for k in range(processes):
            timeout = RUN_TIMEOUT_S / processes
            raw = run_runner(binary, args, args.seconds / processes, k,
                             work, timeout)
            if raw is None:
                return 1
            raws.append(raw)
        if args.trace:
            trace_src = work / "0" / ("trace-%s.json" % args.workload)
            if trace_src.exists():
                traces = out / "traces"
                traces.mkdir(parents=True, exist_ok=True)
                dest = traces / ("%s-seed%d.json" % (args.workload,
                                                     args.seed))
                shutil.move(str(trace_src), str(dest))
                log("perfbench: spans written to %s" % dest)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    report = []
    raw = merge(raws)
    if args.trace:
        values = per_layer(raw, spec)
    else:
        values = end_to_end(raw, report)
    metrics = {name: {"value": v, "unit": units.get(name, "?")}
               for name, v in values.items()}
    problems = bs.check_metric_names(metrics, spec, bool(args.trace))
    if problems:
        for p in problems:
            log("perfbench: " + p)
        return 1

    checks = raw["checks"]
    correct = raw["failed"] == 0 and all(c["ok"] for c in checks.values())
    attempted = max(1, raw["attempted"])
    print("workload %s, seed %d, %s run" %
          (args.workload, args.seed, "traced" if args.trace else "untraced"))
    for name, c in checks.items():
        print("  check %-28s %s  %s" %
              (name, "ok  " if c["ok"] else "FAIL", c["detail"]))
    for value, unit, name in report:
        print("  %-46s %14.6g %s" % (name, value, unit))
    print("  %-46s %14.6g %s" % ("fail_frac (%d of %d)" % (
        raw["failed"], attempted), raw["failed"] / attempted, "ratio"))
    for name, m in metrics.items():
        print("  %-46s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
