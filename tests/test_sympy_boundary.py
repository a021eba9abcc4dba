"""sympy stays off the import path of the built-in jobs.

Each test runs a fresh interpreter, since this test process has long
imported sympy: the built-in scenario files and every job on them hold
ints, rationals and polynomials only, so they never import it, while a
true rational function imports it on demand.
"""

import subprocess
import sys
import textwrap

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
