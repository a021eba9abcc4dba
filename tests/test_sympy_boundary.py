"""sympy stays off the import path of the built-in jobs.

Each test runs a fresh interpreter, since this test process has long
imported sympy: the built-in scenario files and every job on them hold
ints, rationals and polynomials only, so they never import it, while a
true rational function imports it on demand.
"""

import ast
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

from gradira import render, scalars

SRC = Path(__file__).resolve().parents[1] / "src" / "gradira"

BUILT_IN_JOBS = """
    import contextlib, io, os, sys, tempfile
    import gradira
    from gradira.cli import main

    assert "sympy" not in sys.modules
    scenarios = {
        "ext21": ["extended-canonical", "--n", "2", "--fields", "1"],
        "red21": ["reduced-canonical", "--n", "2", "--fields", "1", "--with-extension"],
        "red32": ["reduced-canonical", "--n", "3", "--fields", "2", "--with-extension"],
        "red33": ["reduced-canonical", "--n", "3", "--fields", "3", "--with-extension"],
        "ym": ["yang-mills", "--n", "3", "--algebra", "su2", "--with-extension"],
    }
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in scenarios.items():
            path = os.path.join(tmp, name + ".json")
            runs = [["scenario", *args, "--out", path]]
            runs += [[command, "-f", path]
                     for command in ("verify", "hdw", "tower", "extend", "evolution")]
            for run in runs:
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    codes.append(main(run))
    print(codes)
    print("sympy" in sys.modules)
"""

RATIONAL_FUNCTION = """
    import sys
    from gradira import Structure, reduced_canonical, render
    from gradira.scalars import diff

    top = reduced_canonical(2, 1, declare_h=False).structure
    assert "sympy" not in sys.modules
    f = 1 + top.chart.sym("y1")
    scaled = Structure(top.chart, [g * f for g in top.generators(top.n)],
                       [v * f for v in top.sharp_values(top.n)])
    assert "sympy" in sys.modules
    y1 = top.chart.index("y1")
    value = top.chart.sym("x1") / f
    print(render(value), render(diff(value, top.chart)[y1]))
    print(sorted({render(c) for gen in scaled.levels[1]
                  for c in gen.sharp.data.values() if not c.is_rational}))
"""


def _run(source):
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(source)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_built_in_jobs_never_import_sympy():
    codes, imported = _run(BUILT_IN_JOBS)
    # the extended canonical file fails verify (1) and has no Hamiltonian
    # for hdw and evolution (2); every other job passes
    assert codes == str([0, 1, 2, 0, 0, 2] + [0] * 24)
    assert imported == "False"


def test_a_rational_function_imports_sympy_on_demand():
    quotient, pivots = _run(RATIONAL_FUNCTION)
    assert quotient == "x1/(y1 + 1) -x1/(y1**2 + 2*y1 + 1)"
    # the level-1 sharp values, found through pivots on 1 + y1
    assert pivots == "['-y1 - 1', '-y1/2 - 1/2', 'y1/2 + 1/2']"


def test_render_and_forms_each_import_without_sympy():
    # render imports forms at module level and forms imports render only in
    # a call, so each imports on its own, with no cycle and no sympy
    for module in ("gradira.render", "gradira.forms"):
        assert _run(f"import sys, {module}; print('sympy' in sys.modules)") == ["False"]


LOAD_PICKLE = """
    import pickle, sys
    value = pickle.loads(bytes.fromhex({data!r}))
    print(type(value.value).__name__, value.generators)
    print("sympy" in sys.modules)
    from gradira import render
    print(render(value))
"""


def test_loading_a_pickled_rational_function_does_not_import_sympy():
    value = scalars.as_scalar("x1*H/(1 - 2*y1)")
    kind, imported, text = _run(LOAD_PICKLE.format(data=pickle.dumps(value).hex()))
    assert kind == "Frac ('x1', 'y1', 'H')"
    assert imported == "False"
    assert text == render(value) == "-H*x1/(2*y1 - 1)"


MESSAGES = """
    import sys
    from fractions import Fraction
    from gradira import Form, MultiVector, reduced_canonical, scalars, wedge
    from gradira.calculus import poincare_primitive
    from gradira.dynamics import check_subalgebra_condition
    from gradira.errors import NonPolynomialError

    red = reduced_canonical(2, 1)
    ch, st = red.chart, red.structure
    h_y1 = scalars.diff(scalars.generator("H"), ch)[ch.index("y1")]
    try:
        poincare_primitive(Form(ch, 1, {(0,): h_y1}))
    except NonPolynomialError as exc:
        print(exc)
    alpha = Form.scalar_form(ch, ch.sym("y1"))
    vector = lambda name: MultiVector.coord_vector(ch, name)
    u = (wedge(vector("p1_1"), vector("x2")) - wedge(vector("p2_1"), vector("x1"))) / 2
    for c in (1, 3, Fraction(-2, 3)):
        report = check_subalgebra_condition(alpha, c * u, st).render()
        print([line for line in report.splitlines() if "C =" in line])
    print("sympy" in sys.modules)
"""


def test_messages_render_coefficients_without_sympy():
    message, *constants, imported = _run(MESSAGES)
    # the parser's name of the partial, not sympy's H__y1
    assert message == "coefficient D(H,y1) is not polynomial"
    # a constant reads as sympy printed it
    assert constants == [str([f"PASS epsilon=-dX[2]: C = {c}", f"PASS epsilon=dX[1]: C = {c}"])
                         for c in ("2", "2/3", "-3")]
    assert imported == "False"


def _imports_sympy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "sympy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy"


def test_only_ratfunc_imports_sympy_at_module_level():
    """sympy is imported at module level only by ``ratfunc``, and inside a
    function only by ``render._sympy_printer``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        top = set(map(id, tree.body))
        for scope in ast.walk(tree):
            for node in ast.iter_child_nodes(scope):
                if _imports_sympy(node):
                    where = "module" if id(node) in top else getattr(scope, "name", "?")
                    found.append((path.stem, where))
    assert sorted(set(found)) == [("ratfunc", "module"), ("render", "_sympy_printer")]
