"""gorlab benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload cli-presentations --seed 0 --seconds 30 --trace 0

A single-process, single-thread closed loop: the next op starts only after
the previous one returned and was checked.  Inputs come from ``--seed``.  The
run repeats passes over the workload's op list (pass k draws fresh inputs
from ``(seed, k)``) until ``--seconds`` have elapsed and at least 100 ops ran.

Every time in the end-to-end metrics is scaled to a nominal host speed.
After each op a fixed pure-Python reference loop runs for a tenth of the
op's time, and the op's time is multiplied by ``REFERENCE_NOMINAL_S`` over
the reference's mean time per loop in the samples around it.  A slow spell
of the shared host, which slows gorlab and the reference alike, so drops
out.  The unscaled wall-clock values are in the report line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the pass-0 ops and prints the per-layer
metrics, per pass.  Human-readable lines and a ``{"report": ...}`` line come
first; the last line of stdout is the result object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_OPS = 100
# The reference loop's iterations, and the time one loop takes on the
# nominal machine (about its mean on a 2-vCPU x86-64 host under CPython
# 3.11); a scaled time reads in seconds of that machine.
REFERENCE_ITERS = 600
REFERENCE_NOMINAL_S = 0.001
# after each op the reference runs for this share of the op's time, and at
# least REFERENCE_MIN_LOOPS times; a time is scaled by the samples this many
# ops before and after it
REFERENCE_SHARE = 0.1
REFERENCE_MIN_LOOPS = 2
REFERENCE_WINDOW = 2
GORLAB_MODULES = (
    "scalar",
    "errors",
    "linalg",
    "algebra",
    "poly",
    "forms",
    "frobenius",
    "families",
    "tensors",
    "cli",
)

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracing import Tracer, is_count  # noqa: E402
from workloads import INCONCLUSIVE, WORKLOADS, CliResult  # noqa: E402


def load_gorlab():
    """A fresh import of gorlab from this checkout's src/."""
    for name in [n for n in sys.modules if n == "gorlab" or n.startswith("gorlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("gorlab")
    if Path(pkg.__file__).resolve().parent != (SRC / "gorlab").resolve():
        raise RuntimeError(f"imported gorlab from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"gorlab.{m}") for m in GORLAB_MODULES})


def reference_loop():
    """A fixed pure-Python loop (int, Fraction, dict and sort work) that
    calls nothing of gorlab."""
    acc = 0
    x = Fraction(1, 3)
    table = {}
    for i in range(REFERENCE_ITERS):
        acc = (acc * 31 + i) % 1_000_003
        if i % 4 == 0:
            x *= Fraction(i % 7 + 1, i % 5 + 1)
            if x.denominator > 1000:
                x = Fraction(1, 3)
        table[acc % 10007, i & 7] = [i, x]
    return sorted(table)


def sample_reference(after_s):
    """Run the reference loop for a tenth of ``after_s`` (the op just
    timed), at least ``REFERENCE_MIN_LOOPS`` times: the host's speed,
    sampled uniformly in time.  Returns (total seconds, loops)."""
    loops = 0
    t0 = time.perf_counter()
    while True:
        reference_loop()
        loops += 1
        spent = time.perf_counter() - t0
        if loops >= REFERENCE_MIN_LOOPS and spent >= REFERENCE_SHARE * after_s:
            return spent, loops


def scaled(times, refs):
    """``times[i]`` ran between the reference samples ``refs[i]`` and
    ``refs[i + 1]``; each is scaled by the mean time per loop of the
    samples around it, ``REFERENCE_WINDOW`` on either side."""
    out = []
    for i, t in enumerate(times):
        window = refs[max(0, i + 1 - REFERENCE_WINDOW) : i + 1 + REFERENCE_WINDOW]
        spent = sum(s for s, _ in window)
        loops = sum(n for _, n in window)
        out.append(t * REFERENCE_NOMINAL_S * loops / spent)
    return out


class Stats:
    """Latencies and outcomes of the timed ops."""

    def __init__(self):
        self.latencies = []
        self.by_class = defaultdict(list)
        self.failed = 0
        self.decisions = 0
        self.inconclusive = 0
        self.failures = []  # the first few, for the report

    def add(self, op, seconds, error, verdict):
        self.latencies.append(seconds)
        self.by_class[op.cls].append(seconds)
        if op.decision:
            self.decisions += 1
            self.inconclusive += verdict == INCONCLUSIVE
        if error is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{op.cls}: {type(error).__name__}: {error}")

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy_s(self):
        return sum(self.latencies)


def run_op(op, stats, tracer=None, op_id=None):
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as ex:  # an op that raises is a failed op, not a crash
        result, error = None, ex
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    verdict = None
    if error is None:
        try:
            verdict = op.check(result)
        except Exception as ex:  # a wrong or malformed output fails the op
            error = ex
    stats.add(op, seconds, error, verdict)
    return result


def warm_up(g, build, seed, workdir):
    """One untimed op of each kind, on tiny inputs of their own."""
    seen = set()
    stats = Stats()
    for op in build(g, seed, -1, workdir, tiny=True):
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(op, stats)
    return stats.failures


def set_up(build, seed, workdir, tiny):
    """Import, generate the pass-0 inputs and warm up, several times."""
    times = []
    refs = [sample_reference(0)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        g = load_gorlab()
        ops = build(g, seed, 0, workdir, tiny)
        warm_failures = warm_up(g, build, seed, workdir)
        times.append(time.perf_counter() - t0)
        refs.append(sample_reference(times[-1]))
    return g, ops, times, refs, warm_failures


def measure(g, build, seed, seconds, ops, workdir, tiny):
    stats = Stats()
    digest = hashlib.sha256()
    refs = [sample_reference(0)]
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        for op in ops:
            result = run_op(op, stats)
            refs.append(sample_reference(stats.latencies[-1]))
            if k == 0 and isinstance(result, CliResult):
                digest.update(result.stdout.encode())
        shutil.rmtree(workdir / f"pass{k}", ignore_errors=True)
        k += 1
        if time.perf_counter() >= deadline and stats.attempted >= MIN_OPS:
            return stats, refs, k, digest.hexdigest()
        ops = build(g, seed, k, workdir, tiny)


def measure_traced(g, ops, seconds):
    """Alternate untraced and traced passes over the same ops."""
    plain, traced = Stats(), Stats()
    tracer = Tracer(g)
    tracer.install()
    per_pass = []
    passes = 0
    # op times in the order they ran, each with the reference samples around it
    times, is_traced, refs = [], [], [sample_reference(0)]
    deadline = time.perf_counter() + seconds
    try:
        while True:
            for op in ops:
                run_op(op, plain)
                times.append(plain.latencies[-1])
                is_traced.append(False)
                refs.append(sample_reference(times[-1]))
            tracer.keep_spans = passes == 0
            before = tracer.snapshot()
            for i, op in enumerate(ops):
                result = run_op(op, traced, tracer, f"{passes}:{i}")
                times.append(traced.latencies[-1])
                is_traced.append(True)
                refs.append(sample_reference(times[-1]))
                if isinstance(result, CliResult):
                    tracer.counts["cli.stdout_bytes"] += len(result.stdout.encode())
            after = tracer.snapshot()
            per_pass.append({k: v - before.get(k, 0) for k, v in after.items() if is_count(k)})
            passes += 1
            if time.perf_counter() >= deadline and traced.attempted >= MIN_OPS:
                break
    finally:
        tracer.uninstall()
    counts_repeat = all(p == per_pass[0] for p in per_pass)
    busy = {False: 0.0, True: 0.0}
    for t, tr in zip(scaled(times, refs), is_traced):
        busy[tr] += t
    overhead = busy[True] / busy[False] - 1
    return plain, traced, tracer, passes, counts_repeat, overhead


def quantile(values, p, steps=8):
    """The Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, each weighted by the Beta((n+1)p, (n+1)(1-p)) mass of its
    share of [0, 1] (integrated by the midpoint rule, ``steps`` points a
    share).  Where the latencies have gaps, one order statistic jumps
    between the op classes on either side from run to run; this estimate
    moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)

    def log_density(x):
        return (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)

    peak = log_density((a - 1) / (a + b - 2))
    weights = [
        sum(math.exp(log_density((i + (j + 0.5) / steps) / n) - peak) for j in range(steps)) for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def metadata(seed):
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "gorlab").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "src_gorlab_lines": lines,
    }


def class_medians(stats):
    return {cls: round(statistics.median(v) * 1e3, 3) for cls, v in sorted(stats.by_class.items())}


def outcome(stats_list, warm_failures):
    attempted = sum(s.attempted for s in stats_list)
    failed = sum(s.failed for s in stats_list)
    decisions = sum(s.decisions for s in stats_list)
    inconclusive = sum(s.inconclusive for s in stats_list)
    failures = warm_failures + [f for s in stats_list for f in s.failures]
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "decision_ops": decisions,
        "inconclusive_frac": inconclusive / decisions if decisions else 0.0,
        "failures": failures[:10],
    }, failed == 0 and not warm_failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "gorlab" / "__init__.py").is_file():
        print(f"error: no gorlab sources at {SRC / 'gorlab'}", file=sys.stderr)
        return 2

    build = WORKLOADS[args.workload]
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        g, ops, setup_times, setup_refs, warm_failures = set_up(build, args.seed, workdir, args.tiny)
        if args.trace:
            plain, traced, tracer, passes, counts_repeat, overhead = measure_traced(g, ops, args.seconds)
            stats_list = [plain, traced]
        else:
            stats, refs, passes, stdout_sha256 = measure(
                g, build, args.seed, args.seconds, ops, workdir, args.tiny
            )
            stats_list = [stats]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary, correct = outcome(stats_list, warm_failures)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "metadata": metadata(args.seed),
        "passes": passes,
        "ops_per_pass": len(ops),
        "setup_s_samples": setup_times,
        **summary,
    }
    if args.trace:
        metrics = tracer.metrics(passes, overhead)
        layer_s = tracer.layer_self_s()
        report["busy_s"] = {"untraced": plain.busy_s, "traced": traced.busy_s}
        report["counts_repeat"] = counts_repeat
        report["layer_self_share"] = {
            m: round(s / traced.busy_s, 4) for m, s in sorted(layer_s.items(), key=lambda kv: -kv[1])
        }
        report["op_class_median_ms"] = class_medians(plain)
        span_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "op"], "spans": tracer.spans}, fh)
        report["span_file"] = str(span_file.relative_to(ROOT))
        report["spans"] = len(tracer.spans)
    else:
        raw = stats.latencies
        lat = scaled(raw, refs)
        setup_scaled = scaled(setup_times, setup_refs)
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "ops/s"},
            "op_p50_ms": {"value": quantile(lat, 0.5) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": quantile(lat, 0.9) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
        report["samples"] = {"setup_s": len(setup_times), "op_latency": len(lat)}
        report["unscaled"] = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": quantile(raw, 0.5) * 1e3,
            "op_p90_ms": quantile(raw, 0.9) * 1e3,
        }
        report["reference_loop_ms"] = {
            "mean": sum(s for s, _ in refs) / sum(n for _, n in refs) * 1e3,
            "nominal": REFERENCE_NOMINAL_S * 1e3,
            "loops": sum(n for _, n in refs),
        }
        report["stdout_sha256"] = stdout_sha256 if args.workload == "cli-presentations" else None
        report["op_class_median_ms"] = class_medians(stats)
        for name, m in metrics.items():
            n = len(setup_times) if name == "setup_s" else len(lat)
            print(f"{name:>14} {m['value']:12.4f} {m['unit']:<6} (n={n})")
    print(
        f"{'failed_frac':>14} {summary['failed_frac']:12.4f} ratio  (n={summary['attempted']})\n"
        f"{'inconclusive_frac':>14} {summary['inconclusive_frac']:8.4f} ratio  (n={summary['decision_ops']})"
    )
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
