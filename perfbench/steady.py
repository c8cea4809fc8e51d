"""Steadiness check: run the whole benchmark twice on the same code.

    python3 perfbench/steady.py

Each set runs every workload RUNS times, each run in a fresh interpreter
with its own seed (the second set uses new seeds).  For every end-to-end
metric and workload it reports the spread of each set, the distance
between the first and third quartile as a share of the median, and how far
the second set's median lies from the first's, also as a share.  The two
sets agree on a metric when both spreads and that distance, in either
direction, are within the metric's bound in BENCHMARK.json.  It then runs
each workload once traced and writes every run's numbers, the summary and
the per-layer metrics to perfbench/baseline.json.  Exits 1 if a run fails,
a verdict is wrong or two sets do not agree.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys

from run import HERE, SPEC, WORKLOAD_NAMES, checkout_commit, run_child

RUNS = 10


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share;
    negative when it is better."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a


def run_set(workloads, seeds, seconds):
    out = {}
    for name in workloads:
        runs = []
        for seed in seeds:
            code, context, result = run_child(name, seed, seconds, 0)
            if code != 0 or result is None or not result["correct"]:
                sys.exit(f"{name} seed {seed}: exit {code}, result {result}")
            runs.append({"seed": seed, "context": context, "result": result})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        out[name] = runs
    return out


def summarize(sets, workloads):
    rows = []
    ok = True
    for name in workloads:
        for metric in SPEC["end_to_end"]:
            per_set = [[r["result"]["metrics"][metric["name"]]["value"] for r in s[name]]
                       for s in sets]
            spreads = [spread(v) for v in per_set]
            drift = worse_by(metric, per_set[0], per_set[1])
            agree = abs(drift) <= metric["bound"] and all(
                sp <= metric["bound"] for sp in spreads)
            ok = ok and agree
            rows.append({
                "workload": name, "metric": metric["name"], "unit": metric["unit"],
                "bound": metric["bound"],
                "medians": [statistics.median(v) for v in per_set],
                "quartiles": [statistics.quantiles(v, n=4) for v in per_set],
                "spreads": spreads, "second_worse_by": drift, "agree": agree,
            })
    return rows, ok


def main():
    workloads = WORKLOAD_NAMES
    seconds = SPEC["run_seconds"]
    seeds = [list(range(1 + k * RUNS, 1 + (k + 1) * RUNS)) for k in (0, 1)]
    sets = [run_set(workloads, s, seconds) for s in seeds]
    rows, ok = summarize(sets, workloads)
    print(f"{'workload':18s} {'metric':17s} {'median 1':>12s} {'median 2':>12s} "
          f"{'spread 1':>9s} {'spread 2':>9s} {'worse by':>9s} {'bound':>6s} agree")
    for r in rows:
        print(f"{r['workload']:18s} {r['metric']:17s} {r['medians'][0]:12.6g} "
              f"{r['medians'][1]:12.6g} {r['spreads'][0]:9.4f} {r['spreads'][1]:9.4f} "
              f"{r['second_worse_by']:9.4f} {r['bound']:6.2f} "
              f"{'yes' if r['agree'] else 'NO'}")

    traced = {}
    for name in workloads:
        code, context, result = run_child(name, seeds[0][0], seconds, 1)
        if code != 0 or result is None or not result["correct"]:
            sys.exit(f"{name} traced: exit {code}, result {result}")
        traced[name] = {"context": context, "result": result}
    with open(HERE / "baseline.json", "w") as f:
        json.dump({
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": checkout_commit(), "runs_per_set": RUNS,
            "seconds": seconds, "seeds": seeds,
            "summary": rows, "sets": sets, "traced": traced,
        }, f, indent=1)
        f.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
