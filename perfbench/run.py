"""gradira exact-engine benchmark.

    python3 perfbench/run.py --workload {ym-field,canon-tower,poly-jacobi}
        --seed N --seconds S --trace {0,1}

Run from the root of a gradira checkout; gradira is imported from its
``src`` directory.  One closed-loop caller runs the workload's batch job
again and again for about S seconds.  Each iteration is a fresh,
single-threaded Python process (iteration.py), started only after the
previous one has exited, so the normalise cache and the lazily registered
chart symbols start cold every time, as they do for a CLI invocation.

With ``--trace 0`` the end-to-end metrics are medians over the iterations.
With ``--trace 1`` one untraced and one traced iteration give the
per-layer metrics and the tracing overhead.  Every verdict is checked
against a known answer.  The human-readable lines name every
metric with its unit; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
ITERATION = os.path.join(HERE, "iteration.py")

MIN_ITERATIONS = 3
MAX_ITERATIONS = 40
START_LIMIT_S = 120.0  # no iteration starts later than this
DEADLINE_S = 170.0  # every iteration is stopped by then
T_START = time.perf_counter()

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def run_iteration(workload, seed, trace=0, generate=False):
    """Run one iteration process to completion and return its JSON result."""
    cmd = [sys.executable, ITERATION, "--workload", workload, "--seed", str(seed),
           "--workdir", WORKDIR, "--trace", str(trace)]
    if generate:
        cmd.append("--generate")
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - T_START)))
    except subprocess.TimeoutExpired:
        raise BenchError(f"an iteration of {workload} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"an iteration of {workload} exited with "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("error"):
        print(f"iteration: {result['error']}", file=sys.stderr)
    for name in result.get("failed_names", []):
        print(f"iteration: wrong verdict: {name}", file=sys.stderr)
    return result


def tail_percentile(values, min_beyond=10):
    """The highest whole percentile with at least ``min_beyond`` values
    above it (nearest rank), as (percentile, value); None if too few."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= min_beyond:
            return pct, ordered[rank - 1]
    return None


def measure(workload, seed, seconds):
    """Iterations until about ``seconds`` of wall time have passed."""
    results, walls = [], []
    start = time.perf_counter()
    for _ in range(MAX_ITERATIONS):
        t0 = time.perf_counter()
        results.append(run_iteration(workload, seed))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_ITERATIONS and (
                elapsed + statistics.median(walls) > seconds):
            break
        if elapsed > START_LIMIT_S:
            break
    return results


def end_to_end(wl, results):
    """(JSON metrics, extra human-readable metrics) of an untraced run."""
    med = statistics.median
    metrics = {
        "setup_s": (med(r["import_s"] + r["setup_s"] for r in results), "s"),
        "total_s": (med(r["total_s"] for r in results), "s"),
        "main_s": (med(r["phases"][wl.main_phase] for r in results), "s"),
        "peak_rss_mb": (med(r["rss_mb"] for r in results), "MB"),
    }
    extra = {
        "import_s": (med(r["import_s"] for r in results), "s"),
        "iterations": (len(results), "count"),
    }
    for phase in results[0]["phases"]:
        extra[f"{phase}_s"] = (med(r["phases"][phase] for r in results), "s")
    items = [t for r in results for t in r["items_ms"]]
    if items:
        extra["triples"] = (len(items), "count")
        extra["triples_per_s"] = (
            len(items) / sum(r["total_s"] for r in results), "1/s")
        extra["triple_p50_ms"] = (med(items), "ms")
        tail = tail_percentile(items)
        if tail is not None:
            extra["triple_tail_ms"] = (tail[1], "ms")
            extra["triple_tail_percentile"] = (tail[0], "pct")
    return metrics, extra


def trace_layers(workload, seed):
    """An untraced and a traced iteration: per-layer metrics."""
    plain = run_iteration(workload, seed, trace=0)
    traced_run = run_iteration(workload, seed, trace=1)
    layers = {name: tuple(v) for name, v in traced_run["layers"].items()}
    layers["trace.overhead_s"] = (traced_run["total_s"] - plain["total_s"], "s")
    return [plain, traced_run], layers


def main(argv=None):
    p = argparse.ArgumentParser(description="gradira exact-engine benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gradira", "__init__.py")):
        print(f"error: no gradira sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    wl = WORKLOADS[args.workload]
    try:
        if wl.needs_files:
            run_iteration(args.workload, args.seed, generate=True)
        if args.trace:
            results, metrics = trace_layers(args.workload, args.seed)
            extra = {}
        else:
            results = measure(args.workload, args.seed, args.seconds)
            metrics, extra = end_to_end(wl, results)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    extra["failed_ratio"] = (failed / attempted, "ratio")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
