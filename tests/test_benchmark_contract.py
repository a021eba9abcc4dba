"""The benchmark's traced run must still find every function it wraps.

``perfbench/test_harness.py`` is not part of the default test run, so a
refactor that renames or deletes a traced function would only show up
when the benchmark is traced.  This check loads the tracer by path and
resolves every target the way ``Recorder.install`` does.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import sympy

from gradira import Hamiltonian, Section, hdw_residuals, reduced_canonical, scalars

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _load_tracer()
    missing = []
    for name, modname, path in tracer.TARGETS:
        owner = importlib.import_module(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(owner.__dict__.get(attr)):
            missing.append((name, modname, path))
    assert missing == []


def test_wrapped_scalar_functions_are_module_functions():
    # the tracer patches them by rebinding module attributes
    for name in ("sadd", "smul", "sdiv", "sneg", "diff", "as_scalar"):
        fn = getattr(scalars, name)
        assert inspect.isfunction(fn) and fn.__module__ == "gradira.scalars"


def test_hdw_coefficients_support_the_workload_checks():
    """The ym-field checks subtract an expression from a stored
    coefficient and hand the difference to sympy.expand and sympy.cancel."""
    scn = reduced_canonical(2, 1)
    ham = Hamiltonian(scn.hamiltonian_form, scn.structure)
    res = {label: (lhs, rhs) for label, _, lhs, rhs in
           hdw_residuals(ham, Section(scn.chart), scn.hamiltonian_generators)}
    S = sympy.Symbol
    expected = {f"y1 dX[{mu}]": (S(f"y1__x{mu}"), S(f"H__p{mu}_1")) for mu in (1, 2)}
    expected["p^mu_y1 dX[mu]"] = (S("p1_1__x1") + S("p2_1__x2"), -S("H__y1"))
    assert set(expected) <= set(res)
    for label, pair in res.items():
        exprs = expected.get(label) or [sympy.sympify(f.data.get((0, 1), 0)) for f in pair]
        for form, expr in zip(pair, exprs):
            c = form.data.get((0, 1), 0)
            assert sympy.expand(c - expr) == 0
            assert sympy.cancel(c - expr) == 0
            assert sympy.expand(expr - c) == 0
