"""One iteration of a workload in a fresh, single-threaded Python process.

    python3 perfbench/iteration.py --workload W --seed N --workdir DIR
        [--trace 0|1] [--generate]

Times the import of gradira from the checkout's ``src``, the workload's
setup and its job, runs the known-answer checks (untimed, untraced) and
prints one JSON object as the last line of standard output.  With
``--trace 1`` the setup and the job run with every layer function wrapped
(see tracer.py) and the per-layer numbers are added.  ``--generate`` only
writes the workload's input files.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_gradira():
    """Import gradira from the checkout's src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "gradira", "__init__.py")):
        raise SystemExit(f"error: no gradira sources under {SRC}")
    sys.path.insert(0, SRC)
    import gradira

    if os.path.dirname(os.path.dirname(os.path.abspath(gradira.__file__))) != SRC:
        raise SystemExit(f"error: gradira imported from {gradira.__file__}")
    return gradira


def _cache_info(g):
    cancel = getattr(g.scalars, "_cancel", None)
    if cancel is None or not hasattr(cancel, "cache_info"):
        return None
    return cancel.cache_info()


def layer_metrics(recorder, cache_deltas, cache_size):
    """The per-layer metrics of one traced iteration."""
    out = {}
    for name, (calls, self_s) in sorted(recorder.summary().items()):
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    arith_calls = out["scalars.arith.calls"][0]
    rational = recorder.counters["scalars.arith.rational"]
    out["scalars.arith.rational_share"] = (
        rational / arith_calls if arith_calls else 0.0, "ratio")
    hits, misses = cache_deltas
    out["scalars.normalise.hits"] = (hits, "count")
    out["scalars.normalise.misses"] = (misses, "count")
    out["scalars.normalise.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["scalars.normalise.cache_size"] = (cache_size, "count")
    out["linsolve.cells"] = (recorder.counters["linsolve.cells"], "count")
    out["linsolve.inconsistent"] = (recorder.counters["linsolve.inconsistent"], "count")
    out["trace.spans"] = (len(recorder), "count")
    return out


def run(args):
    g = import_gradira()
    import_s = time.perf_counter() - T_START
    from workloads import WORKLOADS, Phases

    wl = WORKLOADS[args.workload](g, args.seed, args.workdir)
    if args.generate:
        wl.generate_files()
        return {"ok": True}

    recorder = None
    hits = misses = 0
    if args.trace:
        from tracer import Recorder

        recorder = Recorder()

    def traced(fn, *fn_args):
        nonlocal hits, misses
        if recorder is None:
            return fn(*fn_args)
        before = _cache_info(g)
        recorder.install()
        try:
            return fn(*fn_args)
        finally:
            recorder.uninstall()
            after = _cache_info(g)
            if before is not None:
                hits += after.hits - before.hits
                misses += after.misses - before.misses

    t0 = time.perf_counter()
    traced(wl.setup)
    setup_s = time.perf_counter() - t0
    wl.prepare()
    phases = Phases()
    error = None
    t0 = time.perf_counter()
    try:
        traced(wl.job, phases)
    except Exception as exc:  # a crashing job is reported as a failed check
        error = f"{type(exc).__name__}: {exc}"
    total_s = time.perf_counter() - t0

    verdicts = [("job ran", False)] if error else wl.checks()
    failed = [name for name, ok in verdicts if not ok]
    result = {
        "ok": True,
        "import_s": import_s,
        "setup_s": setup_s,
        "total_s": total_s,
        "phases": phases.times,
        "items_ms": phases.items_ms,
        "attempted": len(verdicts),
        "failed": len(failed),
        "failed_names": failed[:20],
        "verdicts": "".join("1" if ok else "0" for _, ok in verdicts),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if error:
        result["error"] = error
    if recorder is not None:
        info = _cache_info(g)
        size = info.currsize if info is not None else 0
        result["layers"] = layer_metrics(recorder, (hits, misses), size)
        recorder.write_spans(os.path.join(
            args.workdir, f"spans-{args.workload}.bin"))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--generate", action="store_true")
    args = p.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
