"""Graded Dirac structures on a chart.

A Structure is determined by the top span S^n together with the sharp_n
values of its generators; the lower tower S^a = iota_{TM} S^{a+1} and the
derived maps sharp_a(iota_U alpha) = sharp_n(alpha) ^ U are computed at
build time.  All sharp values are cosets modulo the annihilators K_p, and
coset equality is decided by contracting against the S^p generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from math import comb

from . import scalars
from .calculus import exterior_derivative, lie_derivative, schouten_data
from .errors import (ChartError, DegreeError, GradiraError, MembershipError,
                     NonWellDefinedError, NotHamiltonianError)
from .forms import (Form, MultiVector, MvForm, _bilinear, _combination,
                    _contract_by_pair, _coordinate_contractions, _full_contraction,
                    contract, linear_combination, wedge)
from .linsolve import Components, Echelon
from .multiindex import contract_index, merge
from .render import render
from .report import Report
from .spans import Span, annihilator

__all__ = ["Structure", "CosetRep", "TowerGen", "deg_h", "is_hamiltonian_form",
           "require_hamiltonian", "bracket", "verify_axioms", "verify_fibered"]


def deg_h(form_or_degree, n):
    """Homogeneity degree (n - 1) - deg."""
    a = form_or_degree if isinstance(form_or_degree, int) else form_or_degree.degree
    return (n - 1) - a


@dataclass
class TowerGen:
    """A tower generator with a chosen representative of its sharp value."""

    form: Form
    sharp: MultiVector


class CosetRep:
    """A multivector (or multivector valued form) modulo K_p.

    Equality against another representative with the same modulus is the
    contraction test against the S^p generators.
    """

    def __init__(self, rep, modulus_degree, structure):
        self.rep = rep
        self.modulus_degree = modulus_degree
        self.structure = structure

    def equiv(self, other):
        if isinstance(other, CosetRep):
            if other.modulus_degree != self.modulus_degree:
                return False
            other = other.rep
        diff_rep = self.rep - other
        return self.structure.coset_is_zero(diff_rep, self.modulus_degree)

    def __eq__(self, other):
        return self.equiv(other)

    def __repr__(self):
        return f"{render(self.rep)}  (mod K_{self.modulus_degree})"


# The most W unknowns a pairing system may have.  Its rows take memory in
# proportion, and 10**6 is about 5 times the S^4[1] system of
# reduced_canonical(3, 3), the largest a built-in job sets up.
MAX_PAIRING_UNKNOWNS = 1_000_000


class PairingSystem:
    """The W side of the S^a[j] pairing iota_W alpha = iota_{sharp_1~(theta)} alpha
    (alpha in S^n, W in Lambda^{a-j} (x) V_{n+1-j}): one row per (S^n
    generator index, result multi-index), linear in the W components; with
    ``vertical`` only vector slots touching the fiber.

    No row is built up front.  A column is ``Structure.column`` on the
    structure's (n, n + 1 - j) ``term_index``, which the plain and the
    vertical system share, and a row comes from that index's terms at this
    system's vector indices v, regrouped by (g, I \\ v).  The rows are
    kept as ``components``, a ``linsolve.Components``: a connected
    component (two rows are linked when they share a W unknown) is built
    and eliminated the first time a right-hand side touches it, so a solve
    builds only the rows its right-hand side reaches.  ``rows``,
    ``freedom`` and the live W columns of ``build_span_tower`` build them
    all, from the same store.  This is exactly the joint elimination of
    all the rows: an ``Echelon`` reduces a row only by pivots whose columns
    the row holds, so elimination never crosses components, and a
    component takes its rows in the joint order.  Its pivots, kernel
    vectors (key order included) and particular values, nonzero scalars on
    well-formed keys, are those of the joint elimination."""

    def __init__(self, structure, fdeg, vdeg, vertical):
        chart, n = structure.chart, structure.n
        size = comb(chart.m, fdeg) * (comb(chart.m, vdeg) - vertical * comb(chart.n, vdeg))
        if size > MAX_PAIRING_UNKNOWNS:
            raise GradiraError(f"the pairing system has {size:,} unknowns, more than "
                               f"{MAX_PAIRING_UNKNOWNS:,}")
        self.space = (chart, fdeg, vdeg)  # the chart and grading of W
        vkeys = [v for v in combinations(range(chart.m), vdeg)
                 if not vertical or any(i >= chart.n for i in v)]
        self.unknowns = [(f, v) for f in combinations(range(chart.m), fdeg) for v in vkeys]
        index = structure.term_index(n, vdeg)
        self._terms = {}  # (g, I \ v) -> [(v, signed c)]
        for v in vkeys:
            for g, rest, _, c in index.get(v, ()):
                self._terms.setdefault((g, rest), []).append((v, c))
        self.components = Components(self._row, self.unknowns, partial(structure.column, n))

    def _row(self, key):
        """The row (g, K), or None when no term reaches it: each split of K
        into rest and f, with a term c dx^I of generator g holding v and
        I \\ v = rest, gives the unknown (f, v) the coefficient c times the
        sign of iota_v dx^I (kept in the index) times that of merging f and
        rest, as in ``Structure.column``."""
        g, idx = key
        if len(idx) < self.space[1]:
            return None
        coeffs = {}
        for rest in combinations(idx, len(idx) - self.space[1]):
            for v, c in self._terms.get((g, rest), ()):
                f = tuple(i for i in idx if i not in rest)
                coeffs[f, v] = c if merge(f, rest)[0] > 0 else scalars.sneg(c)
        if len(coeffs) < 2:  # most rows hold one unknown
            return coeffs or None
        return {u: coeffs[u] for u in sorted(coeffs)}

    @property
    def rows(self):
        """Every row {(g, K): {W unknown: coefficient}}, sorted by key."""
        return self.components.rows

    @cached_property
    def freedom(self):
        """The homogeneous solutions, one per free W component."""
        return tuple(MvForm(*self.space, v, _normalized=True) for v in self.components.kernel)

    def solve(self, rhs):
        """The particular W for theta's ``Structure.pairing_rhs``, or None
        when theta is not admitted."""
        particular = self.components.particular(rhs)
        return None if particular is None else MvForm(*self.space, particular, _normalized=True)


class Structure:
    """A regular graded Dirac structure of order n on a fibered chart."""

    def __init__(self, chart, generators, sharps):
        if len(generators) != len(sharps):
            raise DegreeError("generator and sharp lists differ in length")
        if not chart.fiber_coords:
            raise ChartError(f"no fiber coordinate on {chart!r}: d H of an n-form H is an "
                             "(n+1)-form, so a structure needs chart dimension m > n")
        self.chart = chart
        self.n = chart.n
        for g in generators:
            if not isinstance(g, Form) or g.degree != self.n or g.chart != chart:
                raise DegreeError(f"S^n generators must be forms of degree n on {chart!r}")
        for v in sharps:
            if not isinstance(v, MultiVector) or v.degree != 1 or v.chart != chart:
                raise DegreeError(f"sharp_n values must be vector fields on {chart!r}")
        self.levels = {self.n: [TowerGen(g, v) for g, v in zip(generators, sharps)]}
        self._term_indices = {}
        self._build_tower()
        self._canonicalize_null_values()
        self._spans = {a: Span(chart, a, self.generators(a))
                       for a in range(1, self.n + 1)}
        self._check_decomposition_kernel()
        self._pairing_systems = {}

    # -- tower -------------------------------------------------------------

    def _build_tower(self):
        """S^a = iota_{TM} S^{a+1} for a = n-1..1, on coefficient dicts.

        The candidates are iota_{@/x^i} alpha, with sharp value
        sharp(alpha) ^ @/x^i, for each level-(a+1) generator alpha and,
        in increasing order, each coordinate i that alpha holds (the
        others give zero): ``forms._coordinate_contractions`` gives them
        all in one pass over alpha's keys.  One ``Echelon`` keeps the
        independent ones in candidate order.  Two candidates are
        proportional exactly when they share a ray key: the coefficient
        dict divided by its coefficient at its smallest key k0.  A kept
        candidate c_t takes as its sharp value the mean of
        (c_t[k0] / c_s[k0]) sharp_s over the candidates c_s of its ray.  Any single provenance is a valid
        representative modulo K; the mean is the canonical, basis-symmetric
        choice (it gives e.g. the 1/n coefficients of the canonical sharp_1
        table).
        """
        chart, one = self.chart, scalars.ONE
        for a in range(self.n - 1, 0, -1):
            candidates, rays = [], {}
            for gen in self.levels[a + 1]:
                contractions = _coordinate_contractions(gen.form.data)
                for i in sorted(contractions):
                    form = contractions[i]
                    c0 = form[min(form)]
                    ray = frozenset((k, scalars.sdiv(c, c0)) for k, c in form.items())
                    sharp = _bilinear(gen.sharp.data, {(i,): one}, merge)
                    rays.setdefault(ray, []).append((c0, sharp))
                    candidates.append((form, c0, ray))
            forms = [form for form, _, _ in candidates]
            dependent = Echelon(forms, sorted(set().union(*forms))).dependent
            self.levels[a] = []
            for t, (form, c0, ray) in enumerate(candidates):
                if t in dependent:
                    continue
                group = rays[ray]
                sharp = _combination((scalars.sdiv(c0, scalars.smul(len(group), cs)), data)
                                     for cs, data in group)
                self.levels[a].append(TowerGen(
                    Form(chart, a, form, _normalized=True),
                    MultiVector(chart, self.n + 1 - a, sharp, _normalized=True)))

    def _canonicalize_null_values(self):
        """Replace K-null derived sharp representatives by the zero
        multivector (the canonical representative of the zero coset)."""
        for a in range(1, self.n):
            p = self.n + 1 - a
            for gen in self.levels[a]:
                if gen.sharp and self.coset_is_zero(gen.sharp, p):
                    gen.sharp = MultiVector.zero(self.chart, p)

    def span(self, a):
        if a < 1 or a > self.n:
            raise DegreeError(f"no tower level {a} (1..{self.n})")
        return self._spans[a]

    def generators(self, a):
        return [g.form for g in self.levels[a]]

    def sharp_values(self, a):
        return [g.sharp for g in self.levels[a]]

    @cached_property
    def s1_frame(self):
        """(gens, sharps, frame): independent generators g_k of S^1, their
        sharp_1 values, and the dual vector fields E_k, <g_l, E_k> = delta_lk.

        Read off the elimination of ``span(1)``, the level-1 generators as
        rows: E_k is the particular solution for the right-hand side
        {k: 1}, read off the pivot rows' combinations, so it has no
        component on a non-pivot coordinate.  Computed on first use and
        kept; only the extension layer needs it.
        """
        chart = self.chart
        level = self.levels[1]
        echelon = self.span(1).echelon
        kept = [k for k in range(len(level)) if k not in echelon.dependent]
        frame = [MultiVector(chart, 1, {col: combo[k] for col, (_, combo)
                                        in echelon.pivots.items() if k in combo},
                             _normalized=True) for k in kept]
        return [level[k].form for k in kept], [level[k].sharp for k in kept], frame

    def pairing_field(self, beta):
        """X_beta = sum_k <sharp_1(g_k), beta> E_k over ``s1_frame``, for an
        n-form beta: the sharp_1 values are n-vectors, so every pairing of
        sharp_1~ with an n-form is one contraction,
        iota_{sharp_1~(theta)} beta = (-1)^{a+1} iota_{X_beta} theta.  Each
        pairing is the dot product ``forms._full_contraction``; another
        degree raises DegreeError, as its dot product would be zero."""
        if not isinstance(beta, Form) or beta.degree != self.n or beta.chart != self.chart:
            raise DegreeError(f"pairing_field needs a {self.n}-form on {self.chart!r}")
        _, sharps, frame = self.s1_frame
        return MultiVector(self.chart, 1, _combination(
            (_full_contraction(v.data, beta.data).get((), 0), e.data)
            for v, e in zip(sharps, frame)), _normalized=True)

    @cached_property
    def pairing_fields(self):
        """``pairing_field`` of each S^n generator, computed on first use
        and kept."""
        return [self.pairing_field(gen.form) for gen in self.levels[self.n]]

    @cached_property
    def pairing_index(self):
        """``pairing_fields`` by coordinate, {i: [(g, X_g^i)]} in generator
        order, computed on first use and kept."""
        index = {}
        for g, x in enumerate(self.pairing_fields):
            for (i,), c in x.data.items():
                index.setdefault(i, []).append((g, c))
        return index

    def pairing_rhs(self, data):
        """iota_{sharp_1~(theta)} alpha_g = (-1)^{a+1} iota_{X_g} theta over the
        S^n generators alpha_g, keyed like ``pairing`` and the rows of
        ``PairingSystem``, for the coefficient dict of an a-form theta in
        (S^1)^{wedge a}: a term c dx^I adds (-1)^{a+1} (-1)^s X_g^{i_s} c at
        (g, I without i_s) for each position s and each (g, X_g^{i_s}) of
        ``pairing_index``."""
        index = self.pairing_index
        out = {}
        for idx, c in data.items():
            a = len(idx)
            for s, i in enumerate(idx):
                rest = idx[:s] + idx[s + 1:]
                sign = 1 if (a + s) % 2 else -1  # (-1)^{a+1} (-1)^s
                for g, x in index.get(i, ()):
                    scalars.accumulate(out, (g, rest), scalars.smul(x, c), sign)
        return out

    def pairing_system(self, a, j, vertical=False):
        """The ``PairingSystem`` of S^a[j], kept per (a - j, n + 1 - j, vertical)."""
        key = (a - j, self.n + 1 - j, vertical)
        if key not in self._pairing_systems:
            self._pairing_systems[key] = PairingSystem(self, *key)
        return self._pairing_systems[key]

    def term_index(self, p, q):
        """{v: [(g, I \\ v, its set, c times the sign of iota_v dx^I)]} over
        the terms c dx^I of the level-p generators g and the q-subsets v of
        I, in generator and key order; built on first use, kept per (p, q)."""
        if (p, q) not in self._term_indices:
            index = self._term_indices[p, q] = {}
            for g, gen in enumerate(self.levels[p]):
                for key, c in gen.form.data.items():
                    for v in combinations(key, q):
                        sign, rest = contract_index(key, v)
                        index.setdefault(v, []).append(
                            (g, rest, frozenset(rest), c if sign > 0 else scalars.sneg(c)))
        return self._term_indices[p, q]

    def column(self, p, u):
        """iota_{theta_f (x) v} alpha_g = theta_f ^ iota_v alpha_g for the
        unit u = (f, v) and the level-p generators alpha_g, keyed
        {(g, f + I \\ v): coefficient} in the order of ``term_index``; a
        multivector unit has f = ()."""
        f, v = u
        column = {}
        for g, rest, held, c in self.term_index(p, len(v)).get(v, ()):
            if held.isdisjoint(f):
                sign, key = merge(f, rest)
                column[g, key] = c if sign > 0 else scalars.sneg(c)
        return column

    def pairing(self, w, p):
        """iota_w alpha_g for the S^p generators alpha_g and a multivector
        or multivector valued form w on this chart, keyed
        {(g, multi-index): coefficient}: the sum of c times the ``column``
        of each term c of w, in no set key order (``dynamics._solve_constant``
        sorts, ``extensions._pairing_failure`` takes a set difference).  It
        is empty iff w is zero modulo K_p, which ``coset_is_zero`` decides."""
        if w.chart != self.chart:
            raise DegreeError("contraction across charts")
        valued = isinstance(w, MvForm)
        degree = w.vec_degree if valued else w.degree
        if degree > p:
            raise DegreeError(f"cannot contract degree {p} forms by {degree}-vector values")
        return _combination((c, self.column(p, key if valued else ((), key)))
                            for key, c in w.data.items())

    # -- cosets ------------------------------------------------------------

    def coset_is_zero(self, rep, p):
        """Does the representative, a multivector or a multivector valued
        form of vector degree p, lie in (Lambda (x)) K_p?  Tested by
        contraction against the S^p generators (``in_annihilator``)."""
        if rep.is_zero():
            return True
        if rep.chart != self.chart:
            raise DegreeError("contraction across charts")
        return self.in_annihilator(rep.data, p, isinstance(rep, MvForm))

    def in_annihilator(self, data, p, valued=False):
        """Does the coefficient dict of a p-vector (``valued``: of a
        multivector valued form of vector degree p) lie in
        (Lambda (x)) K_p, i.e. contract every S^p generator to zero?  The
        kernel of ``coset_is_zero``.  A p-vector contracts a p-form only
        at equal keys, so each contraction is the sparse dot product
        ``forms._full_contraction``, and the test stops at the first
        generator that does not contract to zero.  Another vector degree
        raises DegreeError: its dot product would be zero whatever the
        data."""
        if not data:
            return True
        degrees = {len(key[1] if valued else key) for key in data}
        if degrees != {p}:
            raise DegreeError(f"representative degree {max(degrees - {p})} != modulus {p}")
        return not any(_full_contraction(data, g.form.data, valued)
                       for g in self.levels[p])

    def annihilator_span(self, p):
        """Explicit K_p generators (kernel extraction; exponential in p)."""
        return annihilator(self.span(p), p)

    # -- sharps ------------------------------------------------------------

    def _check_decomposition_kernel(self):
        """All decompositions must induce the same sharp value mod K.  Only
        level n can have relations: ``_build_tower`` keeps only independent
        generators below it."""
        n = self.n
        for vec in self._spans[n].kernel():
            rel = self.sharp_from(n, vec).rep
            if not self.coset_is_zero(rel, 1):
                raise NonWellDefinedError(
                    f"sharp_{n} depends on the decomposition; offending relation "
                    + render(rel)
                )

    def derive_sharp(self, a, theta):
        """sharp_a(theta) as a CosetRep of degree n+1-a.

        Decomposes theta over the level-a tower generators (each of which
        is a contraction iota_U alpha of a top generator, so this realizes
        sharp_a(iota_U alpha) = sharp_n(alpha) ^ U) and returns the coset,
        which the construction checked to be independent of the choice.
        """
        if theta.degree != a:
            raise DegreeError(f"theta has degree {theta.degree}, expected {a}")
        coefficients = self.span(a).decompose(theta)
        if coefficients is None:
            raise MembershipError(f"{render(theta)} is not in S^{a}")
        return self.sharp_from(a, coefficients)

    def sharp_from(self, a, coefficients):
        """sharp_a of sum_i coefficients[i] * (level-a generator i), as a
        CosetRep: the same sum over the generators' sharp values."""
        p = self.n + 1 - a
        level = self.levels[a]
        return CosetRep(linear_combination(
            ((c, level[i].sharp) for i, c in coefficients.items()),
            MultiVector.zero(self.chart, p)), p, self)

    def contains(self, a, theta):
        if theta.degree != a:
            return False
        if theta.is_zero():
            return True
        if a > self.n:
            return False
        return self.span(a).contains(theta)

    def __repr__(self):
        return f"Structure(n={self.n}, chart={self.chart!r})"


# ---------------------------------------------------------------------------
# Hamiltonian forms and the graded Poisson bracket
# ---------------------------------------------------------------------------


def hamiltonian_sharp(alpha, structure, label=None):
    """(d alpha, sharp_{deg+1}(d alpha)) for a Hamiltonian form alpha, the
    sharp value a CosetRep kept in d alpha's record, computed on first use
    and shared by every later call: read it, do not change it.  Raises as
    ``require_hamiltonian`` does."""
    dalpha, record = _hamiltonian_record(alpha, structure, label)
    if record[2] is None:
        record[2] = structure.sharp_from(dalpha.degree, record[1])
    return dalpha, record[2]


def _hamiltonian_record(alpha, structure, label=None):
    """(d alpha, its record [structure, coefficients, sharp]): d alpha is
    decomposed over S^{deg+1} once per structure, and the record is kept
    on d alpha, so it expires when the kept d does
    (``calculus.exterior_derivative``).  ``sharp``, sharp_{deg+1}(d alpha),
    is None until ``hamiltonian_sharp`` first needs it.
    Raises as ``require_hamiltonian`` does, on every call."""
    n = structure.n
    if not 0 <= alpha.degree <= n - 1:
        raise DegreeError(
            f"Hamiltonian forms have degree 0..{n - 1}, got {alpha.degree}"
        )
    dalpha = exterior_derivative(alpha)
    record = getattr(dalpha, "_decomposition", None)
    if record is None or record[0] is not structure:
        record = [structure, structure.span(dalpha.degree).decompose(dalpha), None]
        dalpha._decomposition = record
    if record[1] is None:
        name = render(alpha) if label is None else label
        raise NotHamiltonianError(f"{name} is not Hamiltonian")
    return dalpha, record


def require_hamiltonian(alpha, structure, label=None):
    """d alpha for a Hamiltonian form alpha.

    Raises DegreeError unless 0 <= deg <= n-1, and NotHamiltonianError
    (naming ``label``, by default the rendered form) unless d alpha lies
    in S^{deg+1}."""
    return _hamiltonian_record(alpha, structure, label)[0]


def is_hamiltonian_form(alpha, structure):
    """True iff 0 <= deg <= n-1 and d(alpha) takes values in S^{deg+1}."""
    if not 0 <= alpha.degree <= structure.n - 1:
        return False
    try:
        require_hamiltonian(alpha, structure)
    except NotHamiltonianError:
        return False
    return True


def bracket(alpha, beta, structure):
    """The graded Poisson bracket
    {alpha, beta} = (-1)^{deg_H beta} iota_{sharp_{b+1}(d beta)} d alpha.

    sharp_{b+1}(d beta) is kept in d beta's record
    (``hamiltonian_sharp``), so each input is decomposed and mapped by
    sharp once per structure however many brackets it enters."""
    n = structure.n
    dalpha = require_hamiltonian(alpha, structure)
    if alpha.degree + beta.degree < n - 1:
        require_hamiltonian(beta, structure)
        return Form.zero(structure.chart, 0)
    _, sharp = hamiltonian_sharp(beta, structure)
    return bracket_formula(sharp.rep, dalpha, beta, n)


def bracket_formula(w, dalpha, beta, n):
    """(-1)^{deg_H beta} iota_w d alpha: the bracket {alpha, beta} once
    w, a value of a sharp map (or of an extension) on d beta, is known.
    ``dalpha`` is d alpha."""
    value = contract(w, dalpha)
    return -value if deg_h(beta, n) % 2 else value


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def verify_axioms(structure):
    """Skew-symmetry and integrability of the sharp family on all
    generator pairs; failures carry the witness pair.

    Generator coverage suffices: both defects are function-linear in each
    argument, so vanishing on a module generating set is vanishing on the
    whole span.  d of each generator is taken once here, not per pair.
    The chart and grading of every generator and sharp value are checked
    once here too, so that ``_check_pair`` works on coefficient dicts.

    A pair of closed generators whose sharp values have constant
    coefficients, and whose contractions iota_U beta and iota_V alpha are
    zero by key (no vector key of U is a sub-key of a key of beta, nor one
    of V of a key of alpha), passes both checks without ``_check_pair``:
    its contractions and defect are zero, and so is [U, V].  The level-b
    generators are indexed once per level pair (a, b) by the sub-keys of
    their forms and the keys of their sharp values, so the pairs of a
    level-a generator that can fail are found by lookups; the others get
    their two PASS rows from a name prefix and j, in pair order."""
    report = Report()
    rows = report.rows
    n, levels = structure.n, structure.levels
    _check_gradings(structure)
    d = {a: [exterior_derivative(g.form).data for g in levels[a]]
         for a in range(1, n + 1)}
    plain = {a: [not d[a][i] and all(c.is_rational for c in g.sharp.data.values())
                 for i, g in enumerate(levels[a])] for a in d}
    digits = {a: [str(j) for j in range(len(levels[a]))] for a in d}
    for a in range(1, n + 1):
        for b in range(max(a, n + 1 - a), n + 1):
            end = len(levels[b])
            by_sub, by_sharp = _key_index(levels[b], n + 1 - a)
            loose = [j for j, ok in enumerate(plain[b]) if not ok]
            for i, gen in enumerate(levels[a]):
                first = i if b == a else 0
                if plain[a][i]:
                    hits = set(loose)
                    for key in gen.sharp.data:
                        hits.update(by_sub.get(key, ()))
                    for key in _sub_keys(gen.form.data, n + 1 - b):
                        hits.update(by_sharp.get(key, ()))
                    failing = sorted(j for j in hits if j >= first)
                else:
                    failing = range(first, end)
                skew, integrable = f"skew a={a}.{i} b={b}.", f"integrable a={a}.{i} b={b}."
                for j in (*failing, end):
                    for s in digits[b][first:j]:
                        rows.append((skew + s, True, ""))
                        rows.append((integrable + s, True, ""))
                    if j < end:
                        _check_pair(structure, report, d, a, i, b, j)
                    first = j + 1
    return report


def _key_index(gens, p):
    """Two maps to the positions j of ``gens``: from each degree-p sub-key
    of a key of a generator's form, and from each key of its sharp value."""
    by_sub, by_sharp = {}, {}
    for j, g in enumerate(gens):
        for key in _sub_keys(g.form.data, p):
            by_sub.setdefault(key, []).append(j)
        for key in g.sharp.data:
            by_sharp.setdefault(key, []).append(j)
    return by_sub, by_sharp


def _sub_keys(data, p):
    """Every degree-p sub-key of the keys of a coefficient dict: the vector
    keys that can contract it to something nonzero."""
    return {s for key in data for s in combinations(key, p)}


def _check_gradings(structure):
    """Every level-a generator is an a-form and its sharp value an
    (n+1-a)-vector, all on the structure's chart."""
    chart, n = structure.chart, structure.n
    for a in range(1, n + 1):
        for gen in structure.levels[a]:
            form, sharp = gen.form, gen.sharp
            if not (type(form) is Form and form.degree == a and form.chart == chart
                    and type(sharp) is MultiVector and sharp.degree == n + 1 - a
                    and sharp.chart == chart):
                raise DegreeError(f"level {a} generator {form!r} or its sharp value "
                                  f"{sharp!r} is off the grading ({a}, {n + 1 - a}) "
                                  f"or the chart {chart!r}")


# the signs and the factor +-1/2 of the defect, as Scalars built once
_SIGN = {1: scalars.ONE, -1: scalars.as_scalar(-1)}
_HALF = {1: scalars.as_scalar(Fraction(1, 2)), -1: scalars.as_scalar(Fraction(-1, 2))}


def _text(cls, chart, degree, data):
    """The rendering of a coefficient dict, for the text of a failure."""
    return render(cls(chart, degree, data, _normalized=True))


def _check_pair(structure, report, d, a, i, b, j):
    """Both axioms on one generator pair, on coefficient dicts: contractions
    by ``forms._bilinear``, sums by ``scalars.accumulate`` and
    ``forms._combination``, the defect decomposed by the span's
    ``Echelon`` and its sharp compared with [U, V] by
    ``Structure.in_annihilator``.  Objects are built only for d and for the
    text of a failure."""
    n, chart = structure.n, structure.chart
    alpha, u = structure.levels[a][i].form, structure.levels[a][i].sharp
    beta, v = structure.levels[b][j].form, structure.levels[b][j].sharp
    p, q = n + 1 - a, n + 1 - b
    c = a + b - n
    s_pq = -1 if (p * q) % 2 else 1
    lhs = _bilinear(u.data, beta.data, _contract_by_pair)
    rhs = _bilinear(v.data, alpha.data, _contract_by_pair)
    skew_ok = lhs == (rhs if s_pq > 0 else {k: scalars.sneg(x) for k, x in rhs.items()})
    report.add(
        f"skew a={a}.{i} b={b}.{j}",
        skew_ok,
        "" if skew_ok else (f"iota_sharp({render(alpha)}) {render(beta)} = "
                            f"{_text(Form, chart, c - 1, lhs)} vs "
                            f"{_text(Form, chart, c - 1, rhs)}"),
    )
    # integrability defect, with s(k) = (-1)^k and
    # L_U gamma = d iota_U gamma - s(deg U) iota_U d gamma:
    #   theta = s((p-1)q) L_u beta + s(q) L_v alpha
    #           - s(q)/2 d(iota_v alpha + s(pq) iota_u beta)
    # In Cartan form, since s((p-1)q) = s(q) s(pq), it needs one d on the
    # contractions the skew check holds and the generators' own d:
    #   theta = s(q)/2 d(iota_v alpha + s(pq) iota_u beta)
    #           - s((p-1)q + p) iota_u d beta - iota_v d alpha
    inner = dict(rhs)
    for key, x in lhs.items():
        scalars.accumulate(inner, key, x, s_pq)
    s_u = -1 if ((p - 1) * q + p) % 2 else 1
    terms = [(_SIGN[-s_u], _bilinear(u.data, d[b][j], _contract_by_pair)),
             (_SIGN[-1], _bilinear(v.data, d[a][i], _contract_by_pair))]
    if inner:
        dinner = exterior_derivative(Form(chart, c - 1, inner, _normalized=True))
        terms.append((_HALF[-1 if q % 2 else 1], dinner.data))
    theta = _combination(terms)
    name = f"integrable a={a}.{i} b={b}.{j}"
    coefficients = structure.span(c).echelon.express(theta) if theta else {}
    if coefficients is None:
        report.add(name, False,
                   f"defect form {_text(Form, chart, c, theta)} is not in S^{c}")
        return
    # sharp_c(theta) - [U, V], zero modulo K_{n+1-c}
    lieb = schouten_data(chart, p, u.data, q, v.data)
    level = structure.levels[c]
    diff = _combination([*((f, level[g].sharp.data) for g, f in coefficients.items()),
                         (_SIGN[-1], lieb)])
    ok = structure.in_annihilator(diff, n + 1 - c)
    report.add(name, ok, "" if ok else (
        f"sharp of {_text(Form, chart, c, theta)} differs from "
        f"[U, V] = {_text(MultiVector, chart, n + 1 - c, lieb)}"))


def check_flatness_witnesses(structure, generation=None, symmetries=None):
    """Check user-supplied witnesses for the flatness hypotheses.

    ``generation`` maps a level a to witness groups for
    S^a = < sum_j d(f_j) ^ d(gamma_j) >: each group is a list of
    (scalar, Hamiltonian form) pairs whose summed product forms must span
    the level.  ``symmetries`` maps a level a to (gammas, xs): Hamiltonian
    forms with S^a = <d gamma_j>, vector fields with L_X gamma_j = 0, and
    (for a >= 2) S^{a-1} = <d iota_X gamma_j>.

    Witnesses are only verified, never searched for.
    """
    report = Report()
    n = structure.n
    for a, groups in (generation or {}).items():
        forms = []
        for g, group in enumerate(groups):
            terms = []
            for f, gamma in group:
                ok = is_hamiltonian_form(gamma, structure)
                report.add(
                    f"flat-i gamma a={a}.{g} {render(gamma)}", ok,
                    "" if ok else "witness form is not Hamiltonian",
                )
                df = exterior_derivative(Form.scalar_form(structure.chart, f))
                terms.append((1, wedge(df, exterior_derivative(gamma))))
            total = linear_combination(terms, Form.zero(structure.chart, a))
            forms.append(total)
            ok = structure.contains(a, total)
            report.add(
                f"flat-i member a={a}.{g}", ok,
                "" if ok else f"{render(total)} is not in S^{a}",
            )
        span = Span(structure.chart, a, [f for f in forms if not f.is_zero()])
        for i, gen in enumerate(structure.generators(a)):
            ok = span.contains(gen)
            report.add(
                f"flat-i span a={a}.{i}", ok,
                "" if ok else f"witnesses do not generate {render(gen)}",
            )
    for a, (gammas, xs) in (symmetries or {}).items():
        exacts = []
        for j, gamma in enumerate(gammas):
            ok = is_hamiltonian_form(gamma, structure)
            report.add(f"flat-ii gamma a={a}.{j}", ok)
            exacts.append(exterior_derivative(gamma))
            for i, x in enumerate(xs):
                ok = lie_derivative(x, gamma).is_zero()
                report.add(
                    f"flat-ii symmetry a={a}.{j} X={i}", ok,
                    "" if ok else f"L_X gamma = {render(lie_derivative(x, gamma))}",
                )
        span = Span(structure.chart, a, [e for e in exacts if not e.is_zero()])
        for i, gen in enumerate(structure.generators(a)):
            ok = span.contains(gen)
            report.add(f"flat-ii span a={a}.{i}", ok)
        for e in exacts:
            ok = structure.contains(a, e)
            report.add(f"flat-ii member a={a} {render(e)}", ok)
        if a >= 2 and xs:
            lowered = [
                exterior_derivative(contract(x, gamma))
                for gamma in gammas
                for x in xs
            ]
            span = Span(structure.chart, a - 1,
                        [e for e in lowered if not e.is_zero()])
            for i, gen in enumerate(structure.generators(a - 1)):
                ok = span.contains(gen)
                report.add(f"flat-ii lowered a={a}.{i}", ok)
    return report


def verify_fibered(structure):
    """Fibered conditions: S^a consists of (a-1)-horizontal forms, and
    every semi-basic coordinate a-form lies in S^a."""
    report = Report()
    n = structure.n
    chart = structure.chart
    for a in range(1, n + 1):
        for i, gen in enumerate(structure.levels[a]):
            ok = gen.form.is_horizontal(a - 1)
            report.add(
                f"horizontal a={a}.{i}",
                ok,
                "" if ok else f"{render(gen.form)} is not {a - 1}-horizontal",
            )
        span = structure.span(a)
        for idx in combinations(range(n), a):
            basic = Form(chart, a, {idx: scalars.ONE}, _normalized=True)
            ok = span.contains(basic)
            report.add(
                f"semibasic a={a} idx={list(i + 1 for i in idx)}",
                ok,
                "" if ok else f"{render(basic)} is not in S^{a}",
            )
    return report
