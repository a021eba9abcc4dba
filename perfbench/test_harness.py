"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

They run three poly-jacobi iterations in fresh processes, so the whole
file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
from iteration import layer_metrics  # noqa: E402
from workloads import TRIPLES_PER_BATCH  # noqa: E402


def test_self_time_of_nested_spans(tmp_path):
    # outer [0, 12] calls inner [1, 7], which calls leaf [2, 4]; then outer
    # calls leaf [8, 9].  Self times: leaf 2 + 1, inner 6 - 2, outer 12 - 6 - 1.
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 8.0, 9.0, 12.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))
    leaf = rec.wrap("t.leaf", lambda: None)
    inner = rec.wrap("t.inner", lambda: leaf())

    def outer_body():
        inner()
        leaf()

    outer = rec.wrap("t.outer", outer_body)
    outer()
    summary = rec.summary()
    assert summary["t.outer"] == (1, 5.0)
    assert summary["t.inner"] == (1, 4.0)
    assert summary["t.leaf"] == (2, 3.0)
    assert sum(s for _, s in summary.values()) == 12.0

    path = tmp_path / "spans.bin"
    rec.write_spans(path)
    names, arrays = tracer.read_spans(path)
    assert [names[f] for f in arrays["fn"]] == ["t.outer", "t.inner", "t.leaf", "t.leaf"]
    assert list(arrays["parent"]) == [-1, 0, 1, 0]
    assert list(arrays["start"]) == [0.0, 1.0, 2.0, 8.0]
    assert list(arrays["end"]) == [12.0, 7.0, 4.0, 9.0]


def test_a_raising_call_still_closes_its_span():
    ticks = iter([0.0, 3.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        rec.wrap("t.boom", boom)()
    assert rec.summary()["t.boom"] == (1, 3.0)
    assert rec._stack == []


def _bindings(gradira_modules):
    return {(m.__name__, k): v for m in gradira_modules for k, v in vars(m).items()}


def test_no_wrapper_stays_bound_after_a_traced_call():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gradira

    before = _bindings(tracer.gradira_modules())
    methods = {(cls, name): cls.__dict__[name] for cls, name in (
        (gradira.Structure, "__init__"), (gradira.Structure, "derive_sharp"),
        (gradira.Hamiltonian, "__post_init__"))}
    rec = tracer.Recorder()
    rec.install()
    try:
        patched = tracer.leftover_wrappers()
        # every target is bound somewhere, and by-value imports are patched too
        assert {key for key in patched if key[0] == "gradira.forms"} >= {
            ("gradira.forms", "wedge"), ("gradira.forms", "contract")}
        assert ("gradira.structure", "contract") in patched
        assert ("gradira.linsolve", "as_scalar") in patched
        assert ("gradira.structure.Structure", "__init__") in patched
        ch = gradira.Chart(base=["x1"], fiber=["y1"])
        gradira.wedge(gradira.Form.d_coord(ch, "x1"), gradira.Form.d_coord(ch, "y1"))
    finally:
        rec.uninstall()
    assert rec.summary()["forms.wedge"][0] == 1
    assert tracer.leftover_wrappers() == []
    after = _bindings(tracer.gradira_modules())
    assert all(after[key] is value for key, value in before.items())
    assert all(cls.__dict__[name] is fn for (cls, name), fn in methods.items())


@pytest.fixture(scope="module")
def poly_runs():
    """One untraced and two traced poly-jacobi iterations."""
    os.makedirs(run.WORKDIR, exist_ok=True)
    run.run_iteration("poly-jacobi", 7, generate=True)
    return [run.run_iteration("poly-jacobi", 7, trace=t)
            for t in (0, 1, 1)]


def test_traced_and_untraced_runs_give_the_same_verdicts(poly_runs):
    plain, first, second = poly_runs
    assert plain["attempted"] == 1 + 2 * TRIPLES_PER_BATCH
    assert plain["failed"] == 0
    assert plain["verdicts"] == first["verdicts"] == second["verdicts"]


def test_counts_repeat_exactly_across_traced_runs(poly_runs):
    _, first, second = poly_runs
    counts = {k: v for k, v in first["layers"].items() if v[1] == "count"}
    assert counts["scalars.diff.calls"][0] > 0
    assert counts == {k: second["layers"][k] for k in counts}


def test_benchmark_json_names_what_the_harness_prints(poly_runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    _, first, _ = poly_runs
    layer_names = set(first["layers"]) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    e2e, _ = run.end_to_end(run.WORKLOADS["poly-jacobi"], poly_runs[:1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
    assert set(layer_metrics(tracer.Recorder(), (0, 0), 0)) == layer_names - {
        "trace.overhead_s"}


def test_tail_percentile_keeps_ten_values_beyond_it():
    values = list(range(1, 101))
    assert run.tail_percentile(values) == (90, 90)
    assert run.tail_percentile(values[:10]) is None


def test_refuses_a_directory_without_gradira_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poly-jacobi",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
