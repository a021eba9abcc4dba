"""The benchmark's workloads: setup, timed job and known-answer checks.

Every workload drives gradira through its public functions, as the CLI
does.  ``generate_files`` writes the inputs once per run, ``setup`` is the
scenario build or the file load, ``prepare`` loads seeded inputs (untimed),
``job`` is the timed batch job split into named phases, and ``checks``
compares each verdict with an answer written down here by hand, never with
output of the code under test.

Nothing here imports sympy or gradira at module level: the iteration
process times that import itself.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import time
from contextlib import contextmanager

# Defaults; recorded in BENCHMARK.json and README.md.
DEFAULT_SEED = 5
TRIPLES_PER_BATCH = 64


class Phases:
    """Wall time per named phase of one job."""

    def __init__(self):
        self.times = {}
        self.items_ms = []

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - t0


def _verdict(fn):
    """Run one known-answer check; an exception counts as a wrong verdict."""
    try:
        return bool(fn())
    except Exception:  # a raising check is a failed check, reported by name
        return False


class Workload:
    name = ""
    main_phase = ""
    needs_files = False

    def __init__(self, g, seed, workdir):
        self.g = g  # the imported gradira package
        self.seed = seed
        self.workdir = workdir

    def generate_files(self):
        """Write input files; runs in its own process before any timing."""

    def setup(self):
        raise NotImplementedError

    def prepare(self):
        """Untimed loading of the seeded inputs written by generate_files."""

    def job(self, phase):
        raise NotImplementedError

    def checks(self):
        """[(check name, verdict)] against the known answers."""
        raise NotImplementedError


class YangMillsField(Workload):
    """yang_mills(3, "su2"): verify + fibered report, then the hdw command."""

    name = "ym-field"
    main_phase = "verify"

    def setup(self):
        self.scn = self.g.yang_mills(3, "su2")

    def job(self, phase):
        g, scn = self.g, self.scn
        st = scn.structure
        with phase("verify"):
            report = g.verify_axioms(st)
            report.extend(g.verify_fibered(st))
            self.report_text = report.render()
        with phase("hdw"):
            from gradira.dynamics import render_residual_equation

            ham = g.Hamiltonian(scn.hamiltonian_form, st)
            self.entries = g.hdw_residuals(
                ham, g.Section(scn.chart), scn.hamiltonian_generators
            )
            self.hdw_lines = [render_residual_equation(e) for e in self.entries]

    def checks(self):
        import sympy

        out = []
        lines = self.report_text.splitlines()
        out.append(("verify report not empty", bool(lines)))
        for k, line in enumerate(lines):
            out.append((f"verify line {k} PASS", line.startswith("PASS ")))
        out.extend(self._hdw_checks(sympy))
        return out

    def _hdw_checks(self, sympy):
        """The Yang-Mills system for su2 (f^i_{jk} = epsilon_{ijk}), n = 3:
        9 curl equations, then 9 divergence equations."""
        S = sympy.Symbol
        vol = (0, 1, 2)

        def f(i, j, k):
            return sympy.LeviCivita(i, j, k)

        def pt(mu, nu, i):
            if mu == nu:
                return sympy.Integer(0)
            if mu < nu:
                return S(f"pt{mu}{nu}_{i}")
            return -S(f"pt{nu}{mu}_{i}")

        def A(i, mu):
            return S(f"A{i}_{mu}")

        expected = []
        for i in range(1, 4):
            for mu in range(1, 4):
                for nu in range(mu + 1, 4):
                    lhs = S(f"A{i}_{mu}__x{nu}") - S(f"A{i}_{nu}__x{mu}")
                    rhs = -pt(mu, nu, i) + sum(
                        f(i, j, l) * A(j, mu) * A(l, nu)
                        for j in range(1, 4) for l in range(1, 4)
                    )
                    expected.append((f"curl {i} {mu}{nu}", lhs, rhs))
        for i in range(1, 4):
            for mu in range(1, 4):
                rhs = -sum(
                    f(j, i, l) * pt(mu, nu, j) * A(l, nu)
                    for j in range(1, 4) for l in range(1, 4) for nu in range(1, 4)
                )
                expected.append((f"divergence {i} {mu}", None, rhs))
        out = [("hdw equation count", len(self.entries) == len(expected)
                and len(self.hdw_lines) == len(expected))]
        for (name, lhs, rhs), entry in zip(expected, self.entries):
            _, _, got_l, got_r = entry
            if lhs is not None:
                out.append((f"hdw {name} lhs", _verdict(
                    lambda: sympy.expand(got_l.data.get(vol, 0) - lhs) == 0)))
            out.append((f"hdw {name} rhs", _verdict(
                lambda: sympy.cancel(got_r.data.get(vol, 0) - rhs) == 0)))
        return out


class CanonicalTower(Workload):
    """A reduced_canonical(3, 3) file with its symmetric extension table:
    load, the tower command, then the evolution command."""

    name = "canon-tower"
    main_phase = "tower"
    needs_files = True
    N, FIELDS = 3, 3

    @property
    def path(self):
        return os.path.join(self.workdir, "reduced-canonical-3-3.json")

    def generate_files(self):
        g = self.g
        scn = g.reduced_canonical(self.N, self.FIELDS)
        table = g.canonical_extension_table(scn, style="symmetric")
        doc = g.dump_scenario(scn, extension=table)
        with open(self.path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    def setup(self):
        self.sf = self.g.load_structure_file(self.path)

    def job(self, phase):
        g, sf = self.g, self.sf
        st = sf.structure
        with phase("tower"):
            level = g.build_span_tower(st, st.n + 1, st.n, vertical=True)
            lines = [f"S^{level.a}[{level.j}] admitted generators ({len(level.entries)}):"]
            lines += [f"  {g.render(e.form)}" for e in level.entries]
            rejected = level.rejected()
            lines.append(f"rejected candidates ({len(rejected)}):")
            lines += [f"  {g.render(form)}" for form in rejected]
            lines.append(f"homogeneous freedom dimension: {len(level.freedom)}")
            self.level, self.rejected, self.tower_lines = level, rejected, lines
        with phase("evolution"):
            ham = g.Hamiltonian(sf.hamiltonian, st)
            connection = g.gamma_H(ham, sf.extension)
            forms = list(sf.generators)
            for u in sf.chart.fiber_coords:
                forms.append((u, g.Form.scalar_form(sf.chart, sf.chart.sym(u))))
            report = g.check_evolution(ham, sf.extension, connection, forms)
            self.evolution_text = report.render()

    def _families(self):
        """The classical families of S^{n+1}[n]: dy^j ^ d^n x,
        dp^mu_j ^ d^n x, the traces sum_mu dy^j ^ dp^mu_l ^ d^{n-1}x_mu and,
        with several fields, the field pairs dy^j ^ dy^l ^ d^{n-1}x_mu
        (vertical witness dy^l (x) d/dp^mu_j - dy^j (x) d/dp^mu_l)."""
        g = self.g
        ch = self.sf.chart
        n, k = self.N, self.FIELDS
        vol = g.volume_contraction(ch, [])
        d = lambda name: g.Form.d_coord(ch, name)  # noqa: E731
        fams = [g.wedge(d(f"y{j}"), vol) for j in range(1, k + 1)]
        fams += [g.wedge(d(f"p{mu}_{j}"), vol)
                 for j in range(1, k + 1) for mu in range(1, n + 1)]
        for j in range(1, k + 1):
            for l in range(1, k + 1):
                trace = g.Form.zero(ch, n + 1)
                for mu in range(1, n + 1):
                    trace = trace + g.wedge(
                        d(f"y{j}"),
                        g.wedge(d(f"p{mu}_{l}"), g.volume_contraction(ch, [mu - 1])))
                fams.append(trace)
        for j in range(1, k + 1):
            for l in range(j + 1, k + 1):
                fams += [g.wedge(d(f"y{j}"), g.wedge(
                    d(f"y{l}"), g.volume_contraction(ch, [mu])))
                    for mu in range(n)]
        return fams

    def _momentum_pairs(self):
        """dp ^ dp' ^ d^{n-1}x_c for every pair of distinct momenta among
        p1_1, p2_1, p3_1, p1_2, p2_2 and every c."""
        g = self.g
        ch = self.sf.chart
        n = self.N
        d = lambda name: g.Form.d_coord(ch, name)  # noqa: E731
        momenta = [f"p{mu}_1" for mu in range(1, n + 1)] + ["p1_2", "p2_2"]
        out = []
        for i, a in enumerate(momenta):
            for b in momenta[i + 1:]:
                for c in range(n):
                    out.append((f"{a}^{b} dX[{c + 1}]", g.wedge(
                        d(a), g.wedge(d(b), g.volume_contraction(ch, [c])))))
        return out

    def checks(self):
        out = []
        level = self.level
        fams = self._families()
        span = level.admitted_span()
        out.append(("tower has admitted and rejected candidates",
                     bool(level.entries) and bool(self.rejected)))
        for k, fam in enumerate(fams):
            out.append((f"family {k} admitted", _verdict(lambda: span.contains(fam))))
        from gradira.spans import decompose_over

        for k, entry in enumerate(level.entries):
            out.append((f"entry {k} in the family span", _verdict(
                lambda: decompose_over(fams, entry.form) is not None)))
        for name, form in self._momentum_pairs():
            out.append((f"momentum pair {name} rejected",
                        _verdict(lambda: not span.contains(form))))
        lines = self.evolution_text.splitlines()
        out.append(("evolution report not empty", bool(lines)))
        for k, line in enumerate(lines):
            out.append((f"evolution line {k} PASS", line.startswith("PASS ")))
        return out


class PolyJacobi(Workload):
    """Jacobiators of seeded polynomial Hamiltonian triples on
    reduced_canonical(2, 1), each with a closedness and primitive check."""

    name = "poly-jacobi"
    main_phase = "jacobiator"
    needs_files = True

    @property
    def path(self):
        return os.path.join(self.workdir, f"poly-jacobi-seed-{self.seed}.pickle")

    def generate_files(self):
        """Draw the triples once per run.  Drawing them costs about half as
        much as the job and fills the normalise cache, so each iteration
        loads them instead and its job starts with a cold cache."""
        from gradira.sampling import random_hamiltonian_form

        scn = self.g.reduced_canonical(2, 1)
        rng = random.Random(self.seed)
        triples = []
        while len(triples) < TRIPLES_PER_BATCH:
            triple = [random_hamiltonian_form(rng, scn) for _ in range(3)]
            if not any(form.is_zero() for form in triple):
                triples.append(triple)
        with open(self.path, "wb") as fh:
            pickle.dump(triples, fh)

    def setup(self):
        self.scn = self.g.reduced_canonical(2, 1)

    def prepare(self):
        # written by generate_files of this run, never by anything else
        with open(self.path, "rb") as fh:
            self.triples = pickle.load(fh)

    def job(self, phase):
        g = self.g
        st = self.scn.structure
        self.results = []
        for a, b, c in self.triples:
            t0 = time.perf_counter()
            with phase("jacobiator"):
                jac = (g.bracket(g.bracket(a, b, st), c, st)
                       + g.bracket(g.bracket(b, c, st), a, st)
                       + g.bracket(g.bracket(c, a, st), b, st))
            with phase("primitive"):
                closed = g.exterior_derivative(jac).is_zero()
                primitive = g.poincare_primitive(jac)
                exact = g.exterior_derivative(primitive) == jac
            phase.items_ms.append((time.perf_counter() - t0) * 1e3)
            self.results.append((closed, exact))

    def checks(self):
        out = [("triple count", len(self.results) == TRIPLES_PER_BATCH)]
        for k, (closed, exact) in enumerate(self.results):
            out.append((f"triple {k} d(jac) == 0", closed))
            out.append((f"triple {k} d(primitive) == jac", exact))
        return out


WORKLOADS = {w.name: w for w in (YangMillsField, CanonicalTower, PolyJacobi)}
