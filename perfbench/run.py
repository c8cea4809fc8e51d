"""finpart benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One closed-loop caller runs one operation at a time.
With `--trace 0` the run prints every end-to-end metric of BENCHMARK.json;
with `--trace 1` it prints every per-layer metric instead.  The last line
of standard output is the result object; the line before it holds the run's
context (Python version, core count, commit, seed, the host-drift
calibration, the unscaled metrics, the set-up samples and the tail
percentile).  A wrong verdict prints `"correct": false` and exits 1.

`--workload all` runs every workload, each in a fresh interpreter, prints a
table of their metrics and exits non-zero if any verdict was wrong.

Host-speed scaling: the shared hosts this runs on slow down by up to 2x
for a minute or more at a time, which no run of tolerable length averages
out.  So a short fixed stdlib loop (the probe) runs before every operation,
and each operation's time is scaled by PROBE_REF_S over the median of the
probes next to it: the end-to-end times read as on a host where the probe
takes PROBE_REF_S.  The probe runs no package code, so a change to the
package moves the scaled times as it moves the raw ones.  A set-up cannot
be split into operations, so a sidecar process stops it every SLICE_S to
time one probe, and each slice it ran is scaled in the same way; so is
every operation of a workload whose operations last too long for the
probes around them to track the host (`sliced`).  The measured loop
runs pinned to one core, unless the workload forks workers.  An
interactive shell would take the stopped process for a stopped job, so the
run itself goes on in a child process, which the shell does not watch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, nullcontext
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

# set-up runs in the run's own process and then again in fresh interpreters,
# at least MIN_SETUPS times in all and more while under SETUP_BUDGET_S, so
# a cheap set-up is sampled up to nine times and the ~30 s ranked
# profile-space build twice, which is what the benchmark's time allows
MIN_SETUPS = 2
MAX_SETUPS = 9
SETUP_BUDGET_S = 2.0
# the sidecar lets a set-up run this long between two probes
SLICE_S = 0.02
# probes the sidecar adds on each side of a set-up, so that a cheap set-up,
# which spans only a few slices, still has enough of them
EDGE = 10
# an operation, or a slice of a set-up, is scaled by the median of this many
# probes on each side of it: the hosts change speed within a second, and
# wider windows, up to the whole run, tracked them worse
PROBE_WINDOW = 2
CHILD_TIMEOUT_S = 170
# the probe's time on a quiet 2-core reference host (Python 3.11)
PROBE_REF_S = 0.0012
# with three copies of each operation of a pass, the median and the tail
# each fall among the copies of one operation
PASSES = 3
# big-int masks tracked the package's slowdown under host contention better
# than a pure-interpreter loop or a random walk over a large list
_PROBE_INTS = [random.Random(i).getrandbits(200_000) for i in range(8)]


def probe():
    """Seconds for a short fixed stdlib loop over big-int masks."""
    t = perf_counter()
    g = 0
    for _ in range(4):
        for b in _PROBE_INTS:
            g |= b
            g &= ~(b >> 1)
    return perf_counter() - t


def calibrate():
    """Fifty probes: the host-drift diagnostic timed (as their sum) at the
    start and end of a run."""
    return [probe() for _ in range(50)]


def checkout_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def require_checkout():
    """Point imports at the checkout's own package, or exit 2."""
    src = ROOT / "src"
    if not (src / "finpart" / "__init__.py").is_file():
        print(f"error: no finpart package under {src}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    if not (ROOT / "configs").is_dir():
        print(f"error: no configs directory under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def interleave(pid):
    """Sidecar: until standard input closes, let process `pid` run for
    SLICE_S, stop it, time one probe and continue it.  Prints, as JSON, the
    start and end of every slice it ran and the probe after it, and EDGE
    probes on each side as slices of length 0."""
    # the first probes of a fresh process also pay for growing its heap
    for _ in range(EDGE):
        probe()
    slices = [(t, t, probe()) for t in [perf_counter()] * EDGE]
    start = perf_counter()
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], SLICE_S)[0]:
        os.kill(pid, signal.SIGSTOP)
        end = perf_counter()
        try:
            p = probe()
        finally:
            os.kill(pid, signal.SIGCONT)
        slices.append((start, end, p))
        start = perf_counter()
    # the target closed standard input after its set-up, so these probes no
    # longer interrupt anything it measures
    end = perf_counter()
    slices.append((start, end, probe()))
    slices += [(end, end, probe()) for _ in range(EDGE)]
    print(json.dumps(slices))


def scale(probes, k):
    """PROBE_REF_S over the median of the probes around the k-th stretch of
    work, which ran between probes[k] and probes[k + 1]."""
    return PROBE_REF_S / statistics.median(
        probes[max(0, k - PROBE_WINDOW + 1):k + PROBE_WINDOW + 1])


def scaled_window(slices, t0, t1):
    """(scaled, running) seconds of process time between t0 and t1, from the
    sidecar's slices (start, end, probe after the slice)."""
    probes = [p for _, _, p in slices]
    ran = [max(0.0, min(b, t1) - max(a, t0)) for a, b, _ in slices]
    return sum(r * scale(probes, i - 1) for i, r in enumerate(ran) if r), sum(ran)


@contextmanager
def pinned():
    """Run the block on one core, so that the probes and the work they
    scale run on the same core."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


@contextmanager
def sidecar():
    """Run the block pinned, with the probe sidecar beside it on the same
    core.  Yields a list that holds the sidecar's slices once the block
    ends."""
    slices = []
    with pinned():
        side = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--interleave", str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            side.stdout.readline()
            yield slices
        finally:
            side.stdin.close()
            out = side.stdout.read()
            side.wait()
    slices += json.loads(out)


def cold_setup(name, seed):
    """Import the package, build the workload and complete its first
    operation, with the sidecar interleaving probes.  Returns (scaled
    seconds, running seconds, workload object, wrong-verdict message)."""
    with sidecar() as slices:
        t0 = perf_counter()
        import workloads

        w = workloads.WORKLOADS[name]()
        op = w.setup_op(seed)
        result = op.run()
        t1 = perf_counter()
    return (*scaled_window(slices, t0, t1), w, op.check(result))


def setup_probe(name, seed):
    """One set-up in a fresh interpreter, reported back as JSON."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_op(op, refused):
    """Run one operation.  Returns (seconds, status, result)."""
    t = perf_counter()
    try:
        result = op.run()
        status = "ok"
    except refused:
        result, status = None, "refused"
    except Exception:
        traceback.print_exc()
        result, status = None, "error"
    return perf_counter() - t, status, result


class Tally:
    """Outcomes and times of the operations of one loop."""

    def __init__(self, limit_s):
        self.limit_s = limit_s
        self.durations = []
        self.ok = []       # correct and within the limit
        self.probes = []   # probe seconds before each operation, and one after
        self.refused = 0
        self.errors = 0
        self.over_limit = 0
        self.wrong = []

    def add(self, op, dur, status, result):
        self.durations.append(dur)
        ok = False
        if status != "ok":
            self.refused += status == "refused"
            self.errors += status == "error"
        elif msg := op.check(result):
            self.wrong.append(f"{op.label}: {msg}")
        elif dur > self.limit_s:
            self.over_limit += 1
        else:
            ok = True
        self.ok.append(ok)

    @property
    def attempted(self):
        return len(self.durations)

    @property
    def failed(self):
        return self.refused + self.errors + self.over_limit

    def scaled(self):
        """Durations scaled to the reference host speed."""
        return [d * scale(self.probes, i) for i, d in enumerate(self.durations)]

    def metrics(self, durations):
        """(throughput, p50, tail, tail percentile) from the given
        durations; an operation that is not ok misses the limit.  The tail
        is at the highest whole percentile with at least ten samples above
        it.  Not at a fractional one: about one operation in 180 of
        coder_partitions takes a full garbage collection, which put the
        eleventh-highest sample on the edge of that group in a 10 s run."""
        lat = sorted(d if ok else max(d, self.limit_s)
                     for d, ok in zip(durations, self.ok))
        n = len(lat)
        pct = next((p for p in range(99, 0, -1) if n * (100 - p) >= 1000), 0)
        i = n - 1 - min(n - 1, n * (100 - pct) // 100)
        return (sum(self.ok) / sum(durations), statistics.median(lat), lat[i], pct)


def loop_ops(w, seed, seconds):
    """The operations of the measured loop.  Workloads whose operations
    differ widely in cost run PASSES whole passes, so every run has the same
    mix and sample count; the others run as many operations as fit in
    `seconds`."""
    stream = w.ops(seed)
    if w.pass_len:
        yield from islice(stream, w.pass_len * PASSES)
        return
    end = perf_counter() + seconds
    for i, op in enumerate(stream):
        if i and perf_counter() >= end:
            return
        yield op


def measure(name, seed, seconds):
    cal_start = calibrate()
    setup, setup_raw, w, wrong = cold_setup(name, seed)
    import workloads  # already imported, inside the set-up window

    setups, setups_raw = [setup], [setup_raw]
    wrongs = [wrong] if wrong else []
    while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and sum(setups_raw) < SETUP_BUDGET_S):
        sample = setup_probe(name, seed)
        setups.append(sample["setup_s"])
        setups_raw.append(sample["raw_s"])
        if sample["wrong"]:
            wrongs.append(sample["wrong"])

    tally = Tally(w.limit_s)
    if w.sliced:
        windows = []
        with sidecar() as slices:
            for op in loop_ops(w, seed, seconds):
                t0 = perf_counter()
                outcome = run_op(op, workloads.Refused)
                windows.append((t0, perf_counter()))
                tally.add(op, *outcome)
        scaled, raw = zip(*(scaled_window(slices, *win) for win in windows))
        probes = [p for _, _, p in slices]
    else:
        with nullcontext() if w.forks else pinned():
            for op in loop_ops(w, seed, seconds):
                tally.probes.append(probe())
                tally.add(op, *run_op(op, workloads.Refused))
            tally.probes.append(probe())
        scaled, raw, probes = tally.scaled(), tally.durations, tally.probes
    cal_end = calibrate()

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {}
    for key, durations, setup in (("scaled", scaled, setups),
                                  ("raw", raw, setups_raw)):
        thr, p50, tail, pct = tally.metrics(durations)
        values[key] = {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": thr,
            "op_p50_ms": 1000 * p50,
            "op_tail_ms": 1000 * tail,
            "peak_rss_mb": rss,
        }
    info = {
        "unscaled": values["raw"],
        "host_slowdown": statistics.median(probes) / PROBE_REF_S,
        "setup_samples_s": setups_raw,
        "tail_percentile": pct,
        "latency_samples": tally.attempted,
        "fail_ratio": tally.failed / tally.attempted,
        "refused": tally.refused,
        "over_limit": tally.over_limit,
        "errors": tally.errors,
        "calibration_s": [sum(cal_start), sum(cal_end)],
    }
    return values["scaled"], tally, wrongs + tally.wrong, info


def measure_traced(name, seed):
    """Set-up and a fixed number of operations under the tracer.  Each
    operation also runs untraced right beside its traced run, so the two
    see the same host speed and their ratio is the tracing overhead; the
    untraced copy goes first on odd operations and second on even ones, so
    neither copy always finds the caches warmed by the other."""
    import workloads
    from tracing import Tracer

    cal_start = calibrate()
    w = workloads.WORKLOADS[name]()
    tracer = Tracer(workloads.Refused)
    with tracer.installed():
        op = w.setup_op(seed)
        wrong = op.check(op.run())
    wrongs = [wrong] if wrong else []
    ops = list(islice(w.ops(seed), w.trace_ops))

    plain = Tally(w.limit_s)
    tally = Tally(w.limit_s)
    for i, op in enumerate(ops, 1):
        if i % 2:
            plain.add(op, *run_op(op, workloads.Refused))
        tracer.op_id = i
        with tracer.installed():
            tally.add(op, *run_op(op, workloads.Refused))
        if not i % 2:
            plain.add(op, *run_op(op, workloads.Refused))
    cal_end = calibrate()

    m = tracer.layer_metrics()
    searched = m.get("ramsey.colorings_searched", 0)
    pruned = m.get("ramsey.colorings_pruned", 0)
    scanned = m.get("coding.extract_slice.scanned", 0)
    has_s = m.get("ramsey.has_property.s", 0)
    m.update({
        "coding.extract_slice.hit_ratio":
            m.get("coding.extract_slice.returned", 0) / scanned if scanned else 0.0,
        "ramsey.prune_ratio":
            pruned / (searched + pruned) if searched + pruned else 0.0,
        "ramsey.colorings_per_s": (searched + pruned) / has_s if has_s else 0.0,
        "ramsey.refused": m.get("ramsey.has_property.refused", 0),
        "trace.overhead_ratio": sum(tally.durations) / sum(plain.durations),
    })
    values = {metric["name"]: m.get(metric["name"], 0) for metric in SPEC["per_layer"]}
    spans = ROOT / ".bench_trace" / f"{name}-seed{seed}.tsv.gz"
    tracer.write(spans)
    info = {
        "spans": len(tracer.start),
        "spans_file": str(spans.relative_to(ROOT)),
        "fail_ratio": tally.failed / tally.attempted,
        "calibration_s": [sum(cal_start), sum(cal_end)],
    }
    return values, tally, wrongs + plain.wrong + tally.wrong, info


def run_one(args):
    if args.trace:
        values, tally, wrong, info = measure_traced(args.workload, args.seed)
        specs = SPEC["per_layer"]
    else:
        values, tally, wrong, info = measure(args.workload, args.seed, args.seconds)
        specs = SPEC["end_to_end"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": 1,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": checkout_commit(),
        **info,
        "wrong": wrong,
    }
    print(json.dumps({"context": context}))
    for msg in wrong:
        print(f"WRONG VERDICT {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }))
    return 1 if wrong else 0


def run_worker():
    """Run this command again in a child process, whose output passes
    through, and return its exit code."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__)), *sys.argv[1:],
                             "--worker"])
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_child(workload, seed, seconds, trace):
    """One workload run in a fresh interpreter; returns (exit code,
    context, result)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--worker"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 300,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return proc.returncode or 1, {}, None
    return proc.returncode, json.loads(lines[-2])["context"], json.loads(lines[-1])


def run_all(args):
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        code, context, result = run_child(name, args.seed, args.seconds, args.trace)
        results[name] = {"context": context, "result": result}
        if code != 0 or result is None or not result["correct"]:
            status = 1
        print(f"== {name}: exit {code}")
        if result is None:
            continue
        for metric, v in result["metrics"].items():
            print(f"  {metric:44s} {v['value']:>14.6g} {v['unit']}")
        print(f"  {'fail_ratio':44s} {result['failed'] / result['attempted']:>14.6g}"
              f" ({result['failed']} of {result['attempted']})")
        if "tail_percentile" in context:
            print(f"  op_tail_ms is p{context['tail_percentile']:.2f} of "
                  f"{context['latency_samples']} samples; host slowdown "
                  f"{context['host_slowdown']:.3f}")
        print(f"  correct {result['correct']}; calibration_s "
              f"{[round(c, 4) for c in context['calibration_s']]}")
    print(json.dumps(results))
    return status


def main():
    if sys.argv[1:2] == ["--interleave"]:
        return interleave(int(sys.argv[2]))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    require_checkout()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup, raw, _, wrong = cold_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup, "raw_s": raw, "wrong": wrong}))
        return 0
    if not args.worker:
        return run_worker()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
