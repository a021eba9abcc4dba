"""Extensions of the sharp maps beyond the Hamiltonian range.

The first extension acts on wedge powers of S^1 by the anti-derivation
rule and is unique; the higher extensions exist only on the subbundles
S^a[j] cut out by the pairing

    iota_{sharp_j~(Theta)} alpha = iota_{sharp_1~(Theta)} alpha
    for every alpha in S^n,

which this module solves exactly, generator by generator.  Extension
tables keep one particular solution per admitted generator together with
the homogeneous freedom, so distinct admissible choices can be compared.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import comb
from typing import NamedTuple

from . import scalars
from .calculus import exterior_derivative, lie_derivative, lie_derivative_mvform
from .errors import DegreeError, GradiraError, MembershipError
from .forms import (Form, MvForm, _bilinear, contract, identity_tensor,
                    linear_combination, wedge)
from .linsolve import Echelon
from .multiindex import merge
from .render import render
from .report import Report
from .spans import Span, generator_echelon
from .structure import bracket, bracket_formula, deg_h, require_hamiltonian

__all__ = [
    "sharp1_tilde",
    "bracket_ext1",
    "bracket_ext1_signed",
    "build_span_tower",
    "TowerLevel",
    "ExtensionTable",
    "compat_lower",
    "bracket_extj",
    "sharp_lowered",
    "check_extension_properties",
    "s1_wedge_basis",
]


# ---------------------------------------------------------------------------
# wedge powers of S^1
# ---------------------------------------------------------------------------


def _s1_factors(structure):
    """The factors of the S^a[j] tower's candidates, as form data: the
    level-1 generators, or the coordinate differentials when S^1 = T*M and
    the generators are not m scaled coordinate differentials (a tower's
    rejected list depends on this choice)."""
    chart = structure.chart
    gens = [g.data for g in structure.generators(1)]
    scaled_coords = len(gens) == chart.m and all(len(g) == 1 for g in gens)
    if len(structure.s1_frame[2]) == chart.m and not scaled_coords:
        return [{(i,): scalars.ONE} for i in range(chart.m)]
    return gens


def _times_term(prefix, term):
    """``_bilinear(prefix, term, merge)`` for one-term coefficient dicts, {}
    on a repeated index: c dx^K ^ c' dx^k is c c' dx^{K + k}, signed by the
    parity of the indices of K above k."""
    [(key, c)], [((k,), ck)] = prefix.items(), term.items()
    pos = bisect(key, k)
    if pos and key[pos - 1] == k:
        return {}
    value = ck if c is scalars.ONE else c if ck is scalars.ONE else scalars.smul(c, ck)
    return {key[:pos] + (k,) + key[pos:]: scalars.sneg(value) if (len(key) - pos) & 1 else value}


def s1_wedge_basis(structure, a):
    """(combination, wedge monomial) pairs spanning (S^1)^{wedge a}, the
    candidates of the S^a[j] tower: monomials of ``_s1_factors``.
    Combinations come in ``itertools.combinations`` order; each product
    extends the one of its prefix by one factor, and zero products are
    left out.  When every factor has one term, so has every product, and
    ``_times_term`` forms it from the keys."""
    gens = _s1_factors(structure)
    times = _times_term if all(len(g) == 1 for g in gens) else partial(_bilinear, pair=merge)
    products = {(): {(): scalars.ONE}}
    for _ in range(a):
        products = {combo + (i,): data
                    for combo, prefix in products.items()
                    for i in range(combo[-1] + 1 if combo else 0, len(gens))
                    if (data := times(prefix, gens[i]))}
    return [(combo, Form(structure.chart, a, data, _normalized=True))
            for combo, data in products.items()]


def require_s1_power(theta, structure):
    """Check that theta lies in (S^1)^{wedge a}.  Every form does when S^1
    is all of T*M; otherwise membership holds iff
    sum_k g_k ^ iota_{E_k} theta = a theta over the generators g_k and the
    dual frame E_k of ``Structure.s1_frame``.  Raises MembershipError off
    (S^1)^{wedge a}, DegreeError below degree 1."""
    a = theta.degree
    if a < 1:
        raise DegreeError("sharp1_tilde needs a form of degree >= 1")
    gens, _, frame = structure.s1_frame
    if len(frame) < structure.chart.m and linear_combination(
            ((1, wedge(g, contract(e, theta))) for g, e in zip(gens, frame)),
            theta) != a * theta:
        raise MembershipError(f"{render(theta)} is not in (S^1)^{a}")


def sharp1_tilde(theta, structure):
    """The unique extension of sharp_1 to (S^1)^{wedge a}, by the
    anti-derivation rule on decomposables

        sharp_1~(t_1 ^ ... ^ t_a)
          = (-1)^{a+1} sum_j (-1)^{j+1} t_1 ^ ... ^{no j} ... ^ t_a (x) sharp_1(t_j).

    Over the dual frame E_k of the S^1 generators g_k this is one sum,

        sharp_1~(theta) = (-1)^{a+1} sum_k iota_{E_k} theta (x) sharp_1(g_k),

    since iota_{E_k} takes the factor g_k out of a wedge monomial with the
    sign of its place.  Raises MembershipError off (S^1)^{wedge a}.

    Returns a representative MvForm (coset modulo K_n in the vector slot).
    Only ``check_extension_properties`` builds it: the engine pairs it with
    n-forms beta as iota_{sharp_1~(theta)} beta = (-1)^{a+1} iota_{X_beta} theta,
    X_beta = ``Structure.pairing_field``(beta) (``Structure.pairing_rhs``,
    ``bracket_ext1_formula``)."""
    a = theta.degree
    require_s1_power(theta, structure)
    _, sharps, frame = structure.s1_frame
    sign = -1 if a % 2 == 0 else 1  # (-1)^{a+1}
    return linear_combination(
        ((sign, MvForm.tensor(contract(e, theta), v)) for e, v in zip(frame, sharps)
         if v),
        MvForm.zero(structure.chart, a - 1, structure.n))


def _pairing_failure(structure, lhs, rhs):
    """The first S^n generator on which two pairings keyed like
    ``Structure.pairing`` differ, or None."""
    bad = {g for (g, _), _ in lhs.items() ^ rhs.items()}
    return structure.levels[structure.n][min(bad)].form if bad else None


# ---------------------------------------------------------------------------
# the bracket through the first extension
# ---------------------------------------------------------------------------


def require_ext1_left(alpha, structure, label=None):
    """d alpha for a left argument the first-extension bracket is defined
    on: a Hamiltonian (n-1)-form (``label`` names it in the error)."""
    if alpha.degree != structure.n - 1:
        raise DegreeError("bracket_ext1 needs an (n-1)-form on the left")
    return require_hamiltonian(alpha, structure, label)


def bracket_ext1(alpha, theta, structure):
    """{alpha, Theta} = (-1)^{deg_H Theta} iota_{sharp_1~(d Theta)} d alpha
    for a Hamiltonian (n-1)-form alpha and Theta with
    d Theta in (S^1)^{wedge (deg+1)}."""
    dalpha = require_ext1_left(alpha, structure)
    dtheta = exterior_derivative(theta)
    if dtheta.is_zero():
        return Form.zero(structure.chart, theta.degree)
    require_s1_power(dtheta, structure)
    return bracket_ext1_formula(dalpha, dtheta, structure)


def bracket_ext1_formula(dalpha, dtheta, structure):
    """{alpha, Theta} through the first extension from d alpha and d Theta in
    (S^1)^{wedge a}: iota_{sharp_1~(d Theta)} d alpha = (-1)^{a+1} iota_X d Theta
    with X = ``Structure.pairing_field``(d alpha), and a = deg Theta + 1 makes
    the sign (-1)^{deg_H Theta} (-1)^{a+1} = (-1)^{n-1}."""
    value = contract(structure.pairing_field(dalpha), dtheta)
    return value if structure.n % 2 else -value


def bracket_ext1_signed(x, y, structure):
    """bracket_ext1 extended by graded skew-symmetry to either argument
    order; exactly one argument must be an (n-1)-form.  That argument has
    deg_H 0, so the skew-symmetry sign -(-1)^{deg_H x deg_H y} is -1."""
    n = structure.n
    if y.degree == n - 1 and x.degree != n - 1:
        return -bracket_ext1(y, x, structure)
    return bracket_ext1(x, y, structure)


# ---------------------------------------------------------------------------
# the S^a[j] tower
# ---------------------------------------------------------------------------


class TowerEntry(NamedTuple):
    form: Form
    value: MvForm  # particular solution of the defining pairing


@dataclass
class TowerLevel:
    """S^a[j]: admitted generators, their particular sharp_j~ values, the
    homogeneous freedom shared by every entry, and the candidates, with
    the rejected ones listed once in candidate order by ``build_span_tower``:
    a lone candidate outright, any other iff the span does not contain it."""

    a: int
    j: int
    entries: list
    freedom: list
    candidates: list
    structure: object
    span: Span  # of the admitted generators, keeping its elimination
    _rejected: list

    def admitted_span(self):
        return self.span

    def is_admitted(self, theta):
        return theta.is_zero() or self.span.contains(theta)

    def rejected(self):
        return list(self._rejected)

    def table(self):
        return ExtensionTable(self.structure, self.j, self.entries, freedom=self.freedom)


def solve_sharp_j(structure, theta, j, vertical=False):
    """Solve iota_W alpha = iota_{sharp_1~(theta)} alpha for all alpha in S^n,
    W in Lambda^{a-j} (x) V_{n+1-j}.  Returns (particular MvForm, freedom
    list) or None when theta is not admitted (with ``vertical``, not
    admitted by a vertical-valued solution).  Raises MembershipError when
    theta is not in (S^1)^{wedge a}."""
    _check_extension_level(structure, theta.degree, j)
    require_s1_power(theta, structure)
    system = structure.pairing_system(theta.degree, j, vertical)
    particular = system.solve(structure.pairing_rhs(theta.data))
    return None if particular is None else (particular, list(system.freedom))


def default_table(structure):
    """The default sharp_n~ table: that of the vertical S^{n+1}[n] tower."""
    return build_span_tower(structure, structure.n + 1, structure.n, vertical=True).table()


def _check_extension_level(structure, a, j):
    """Raise DegreeError unless 1 <= j <= n and j <= a <= m: sharp_j~
    exists only at the levels of the tower, on forms of degree at least j,
    and no form has a degree above the chart dimension m."""
    if not 1 <= j <= structure.n:
        raise DegreeError(f"extension level j={j} out of range (1..{structure.n})")
    if a < j:
        raise DegreeError(f"form degree a={a} below extension level j={j}")
    if a > structure.chart.m:
        raise DegreeError(f"form degree a={a} above chart dimension {structure.chart.m}")


def _live_columns(structure, candidates, system):
    """(lone, live W columns) of the S^a[j] system, with no scalar product.

    A candidate's support is {(g, I \\ i) : dx^I a term, i in I, (g, .) in
    pairing_index[i]}, the row keys its right-hand side can reach (or more,
    when terms cancel).  ``lone[t]``: candidate t has a support, and no
    other support and no row of the system holds a key of it.  The live W
    columns, {unknown: {row key: -coefficient}} in ``system.unknowns``
    order, are those of the ``system.components`` that a support touches.
    One-term candidates over every a-subset of some coordinates need no
    supports (``_lone_by_keys``)."""
    index = {key: t for t, theta in enumerate(candidates) if len(theta.data) == 1
             for key in theta.data}
    coords = set().union(*index)
    if index and len(index) == len(candidates) == comb(len(coords), len(next(iter(index)))):
        lone, touched = _lone_by_keys(structure, index, coords, system)
    else:
        gens_at = {i: [g for g, _ in pairs] for i, pairs in structure.pairing_index.items()}
        supports = [{(g, idx[:s] + idx[s + 1:]) for idx in theta.data
                     for s, i in enumerate(idx) for g in gens_at.get(i, ())}
                    for theta in candidates]
        touched = Counter(key for support in supports for key in support)
        lone = [bool(support) and all(touched[key] == 1 and key not in system.rows
                                      for key in support) for support in supports]
    w_columns = {}
    for r, coeffs in system.components.rows_of(touched).items():
        for wk, c in coeffs.items():
            w_columns.setdefault(wk, {})[r] = scalars.sneg(c)
    return lone, {wk: w_columns[wk] for wk in system.unknowns if wk in w_columns}


def _lone_by_keys(structure, index, coords, system):
    """(lone, touched row keys) of the one-term candidates dx^I, {I: t} in
    ``index``, I every a-subset of ``coords``.  With coords(g) the i in
    ``coords`` carrying g in ``pairing_index``, (g, K) is held by the
    |coords(g) \\ K| candidates K + i: I is lone iff it meets a coordinate
    carrying a generator, coords(g) lies in I for every g at I, and no row
    (g, I \\ i) exists, which one pass over the rows finds."""
    coords_of = {}  # g -> coords(g)
    for i, pairs in structure.pairing_index.items():
        if i in coords:
            for g, _ in pairs:
                coords_of.setdefault(g, []).append(i)
    reach = [0] * structure.chart.m  # at i, the union of coords(g) over the g at i, as bits
    for held in coords_of.values():
        mask = sum(1 << k for k in held)
        for i in held:
            reach[i] |= mask
    lone = []
    for key in index:
        mask = union = 0
        for i in key:
            mask |= 1 << i
            union |= reach[i]
        lone.append(union != 0 and union | mask == mask)
    touched = []
    for g, rest in system.rows:
        for i in coords_of.get(g, ()):
            if i not in rest and (t := index.get(tuple(sorted(rest + (i,))))) is not None:
                lone[t] = False
                touched.append((g, rest))
    return lone, touched


# The most candidates a tower may take, C(#``_s1_factors``, a).  On
# ``reduced_canonical(2, k)`` files a tower costs about 17 us and 0.75 kB a
# candidate (295,240 took 4.7-5.3 s and 220 MB), and the largest built-in
# one, Yang-Mills S^4[3], takes 5,985.
MAX_TOWER_CANDIDATES = 300_000


def build_span_tower(structure, a, j, vertical=False):
    """Compute S^a[j] over a spanning set of (S^1)^{wedge a}.

    The joint homogeneous system sum_t c_t iota_{sharp_1~(theta_t)} alpha
    = iota_W alpha in (candidate coefficients, W components) is solved
    exactly; its projection onto the candidate coefficients is the
    admitted subbundle.  The kernel comes from one elimination with the
    candidate columns, then the W columns of ``Structure.pairing_system``,
    as rows: each column that reduces to zero gives the relation tying it
    to the columns before it.  The entries' values and the freedom come
    from the pairing system, which eliminates its own components.

    Only the live columns (``_live_columns``) are eliminated.  A row is
    reduced only by pivots whose columns it holds, so elimination never
    crosses a set of columns that shares no row key with the rest, and a
    subset of the sorted row keys keeps their order: every pivot, relation
    and the order of the relations stay those of the joint elimination.
    Two kinds of column are dropped, exactly:
    - a lone candidate, whose support keys no other candidate and no row of
      the system hold, is a pivot, in no relation and rejected when its
      right-hand side is nonzero.  A one-term candidate's support is its
      right-hand side's keys (each key (g, I \\ i) fixes i), so only one
      with several terms needs ``Structure.pairing_rhs`` to confirm it;
    - a component of ``PairingSystem.components`` whose rows no support
      touches gives relations with no candidate part.
    A candidate with an empty right-hand side is never lone: it reduces to
    zero at once and is admitted.

    With ``vertical=True`` the solve is restricted to vertical-valued
    extensions.  On the canonical charts the unrestricted tower admits
    extra generators whose only solutions carry traceless base-to-base
    blocks; the vertical restriction removes them and leaves the classical
    generator families.

    A tower of more than ``MAX_TOWER_CANDIDATES`` candidates raises
    GradiraError before any candidate is built.
    """
    _check_extension_level(structure, a, j)
    count = comb(len(_s1_factors(structure)), a)
    if count > MAX_TOWER_CANDIDATES:
        raise GradiraError(f"the S^{a}[{j}] tower has {count:,} candidates, more than "
                           f"{MAX_TOWER_CANDIDATES:,}")
    chart = structure.chart
    candidates = [f for _, f in s1_wedge_basis(structure, a)]
    system = structure.pairing_system(a, j, vertical)
    lone, w_columns = _live_columns(structure, candidates, system)
    columns = {}
    for t, theta in enumerate(candidates):
        if lone[t] and len(theta.data) == 1:
            continue  # one term: its support is its right-hand side's keys
        rhs = structure.pairing_rhs(theta.data)
        if lone[t] and rhs:
            continue
        lone[t] = False
        columns[("c", t)] = rhs
    columns.update((("w", wk), col) for wk, col in w_columns.items())
    raw = []
    for relation in Echelon(columns, sorted(set().union(*columns.values()))).dependent.values():
        form = linear_combination(((c, candidates[t]) for (kind, t), c in relation.items()
                                   if kind == "c"), Form.zero(chart, a))
        if not form.is_zero():
            raw.append(form)
    span = Span(chart, a, raw).reduced()[0]
    entries = [TowerEntry(form, system.solve(structure.pairing_rhs(form.data)))
               for form in span.generators]
    rejected = [theta for t, theta in enumerate(candidates)
                if lone[t] or not span.contains(theta)]
    return TowerLevel(a, j, entries, list(system.freedom), candidates, structure, span,
                      rejected)


# ---------------------------------------------------------------------------
# extension tables
# ---------------------------------------------------------------------------


class ExtensionTable:
    """A chosen sharp_j~ assignment on generators: ``TowerEntry``s (Theta, value)
    with value in Lambda^{deg-j} (x) V_{n+1-j}, verified at construction
    against the defining pairing, as pairings with S^n against one
    ``Structure.pairing_rhs`` per entry.  The compatibility sharp_1~ = sharp_j~ ^
    1_{j-1} modulo K_n needs no check of its own: W ^ 1_{j-1} and W pair
    alike with every n-form."""

    def __init__(self, structure, j, entries, freedom=None, verify=True):
        self.structure = structure
        self.j = j
        self.entries = [TowerEntry(*entry) for entry in entries]
        self.freedom = list(freedom or [])
        if verify:
            self.verify()

    def verify(self):
        """Check each entry's grading, (deg theta - j, n + 1 - j) with
        1 <= j <= n (a DegreeError), then its defining pairing."""
        structure, n, j = self.structure, self.structure.n, self.j
        for k, (theta, value) in enumerate(self.entries, 1):
            grading, level = (value.form_degree, value.vec_degree), n + 1 - value.vec_degree
            expected = (theta.degree - j, n + 1 - j)
            if not 1 <= level <= n or grading != expected:
                why = (f"is at level j={level}, outside 1..{n}" if not 1 <= level <= n
                       else f"is not {expected}, that of level j={j}")
                raise DegreeError(f"table entry {k} for {render(theta)}: "
                                  f"value grading {grading} {why}")
            require_s1_power(theta, structure)
            bad = _pairing_failure(structure, structure.pairing(value, n),
                                   structure.pairing_rhs(theta.data))
            if bad is not None:
                raise MembershipError(
                    f"table entry for {render(theta)} fails the defining pairing "
                    f"against {render(bad)}"
                )

    @cached_property
    def _echelon(self):
        return generator_echelon([entry.form for entry in self.entries])

    def apply(self, theta):
        """sharp_j~ of a form in the span of the table generators."""
        if theta.is_zero():
            fdeg = max(theta.degree - self.j, 0)
            return MvForm.zero(self.structure.chart, fdeg,
                               self.structure.n + 1 - self.j)
        coefficients = self._echelon.express(theta.data)
        if coefficients is None:
            raise MembershipError(
                f"{render(theta)} is not in the span of the extension table"
            )
        return linear_combination(
            ((c, self.entries[i].value) for i, c in coefficients.items()),
            MvForm.zero(self.structure.chart, theta.degree - self.j,
                        self.structure.n + 1 - self.j))

    def perturbed(self, weights=None):
        """A different admissible table: add homogeneous freedom to every
        entry (weights indexed by freedom element, default alternating)."""
        if not self.freedom:
            return self
        if weights is None:
            weights = [1]
        new_entries = []
        for k, (theta, value) in enumerate(self.entries):
            shift = self.freedom[k % len(self.freedom)]
            w = weights[k % len(weights)]
            new_entries.append((theta, value + w * shift))
        return ExtensionTable(self.structure, self.j, new_entries,
                              freedom=self.freedom)


def sharp_lowered(structure, b, a, beta):
    """Extension of sharp_a to the higher span S^b (b >= a):
    sharp_a(beta) = sharp_b(beta) ^ 1_{b-a}, as an MvForm representative."""
    if not 1 <= a <= b <= structure.n:
        raise DegreeError("need 1 <= a <= b <= n")
    rep = structure.derive_sharp(b, beta).rep
    one = identity_tensor(structure.chart, b - a)
    return wedge(MvForm.tensor(Form.scalar_form(structure.chart, scalars.ONE), rep), one)


def compat_lower(table, i):
    """The unique compatible extension at level i < j:
    sharp_i~ = C(j-1, j-i)^{-1} sharp_j~ ^ 1_{j-i}."""
    j = table.j
    if not 1 <= i <= j:
        raise DegreeError("need 1 <= i <= j")
    if i == j:
        return table
    scale = Fraction(1, comb(j - 1, j - i))
    one = identity_tensor(table.structure.chart, j - i)
    entries = [(theta, scale * wedge(value, one)) for theta, value in table.entries]
    return ExtensionTable(table.structure, i, entries)


def require_extj_left(alpha, structure, j):
    """d alpha for a left argument the level-j bracket is defined on: a
    Hamiltonian form of degree in [n-j, n-1]."""
    n = structure.n
    a = alpha.degree
    if a > n - 1 or a < n - j:
        raise DegreeError(
            f"left argument degree {a} outside [{n - j}, {n - 1}]"
        )
    return require_hamiltonian(alpha, structure)


def bracket_extj(alpha, theta, table, structure=None):
    """{alpha, Theta}_{sharp_j~} = (-1)^{deg_H Theta} iota_{sharp_j~(d Theta)} d alpha.

    No binomial prefactor: this normalization agrees with the first
    extension whenever deg alpha = n-1 (through the defining pairing) and
    satisfies the evolution identity h^*(d alpha) = d alpha + {alpha, H}.
    """
    structure = structure or table.structure
    n = structure.n
    dalpha = require_extj_left(alpha, structure, table.j)
    dtheta = exterior_derivative(theta)
    if dtheta.is_zero():
        return Form.zero(structure.chart, alpha.degree + theta.degree - (n - 1))
    return bracket_formula(table.apply(dtheta), dalpha, theta, n)


# ---------------------------------------------------------------------------
# property checks (the identities the first extension satisfies)
# ---------------------------------------------------------------------------


def check_extension_properties(structure, table, samples):
    """Symbolic verification of the first-extension bracket properties on
    sampled data.

    ``samples`` maps:
      'pairs':      (alpha, beta) with alpha, beta Hamiltonian (n-1)-forms
      'alphas':     (label, alpha) with alpha a Hamiltonian (n-1)-form,
                    bracketed with each symmetry and each theta
      'thetas':     Theta with d Theta in the wedge powers of S^1
      'symmetries': (X, Theta) with L_X Theta = 0
      'leibniz':    (alpha, Theta1, Theta2)
      'jacobi':     (alpha, beta, Theta)
    """
    report = Report()
    n = structure.n
    for k, (alpha, beta) in enumerate(samples.get("pairs", [])):
        lhs = bracket_ext1(alpha, beta, structure)
        rhs = bracket_ext1(beta, alpha, structure)
        sign = (deg_h(alpha, n) * deg_h(beta, n)) % 2
        ok = lhs == (rhs if sign else -rhs)
        report.add(f"ext-skew {k}", ok,
                   "" if ok else f"{render(lhs)} vs {render(rhs)}")
    for k, (x, theta) in enumerate(samples.get("symmetries", [])):
        if lie_derivative(x, theta):
            report.add(f"ext-invariance {k}", False, "sample is not a symmetry")
            continue
        for alpha_label, alpha in samples.get("alphas", []):
            # {alpha, iota_X Theta} = iota_X {alpha, Theta}: the sign is
            # +1 for the anti-derivation extension, because
            # sharp_1~(iota_X -) = + iota_X sharp_1~(-) on wedge powers of
            # S^1 (expand both sides on decomposables).
            lhs = bracket_ext1(alpha, contract(x, theta), structure)
            rhs = contract(x, bracket_ext1(alpha, theta, structure))
            ok = lhs == rhs
            report.add(
                f"ext-invariance {k} vs {alpha_label}", ok,
                "" if ok else f"{render(lhs)} != {render(rhs)}",
            )
    for k, (alpha, theta1, theta2) in enumerate(samples.get("leibniz", [])):
        target = wedge(theta1, exterior_derivative(theta2))
        lhs = bracket_ext1(alpha, target, structure)
        rhs = wedge(bracket_ext1(alpha, theta1, structure),
                    exterior_derivative(theta2))
        second = wedge(exterior_derivative(theta1),
                       bracket_ext1(alpha, theta2, structure))
        if (theta1.degree + 1) % 2:
            rhs = rhs - second
        else:
            rhs = rhs + second
        ok = lhs == rhs
        report.add(f"ext-leibniz {k}", ok,
                   "" if ok else f"{render(lhs)} != {render(rhs)}")
    for k, (alpha, beta, theta) in enumerate(samples.get("jacobi", [])):
        inner = bracket_ext1(beta, theta, structure)
        t1 = bracket_ext1(alpha, inner, structure)
        t2 = bracket_ext1_signed(theta, bracket(alpha, beta, structure), structure)
        t3 = bracket_ext1(beta, bracket_ext1_signed(theta, alpha, structure),
                          structure)
        jac = t1 + t2 + t3
        djac = exterior_derivative(jac)
        ok = djac.is_zero()
        report.add(f"ext-jacobi-closed {k}", ok,
                   "" if ok else f"d(Jacobiator) = {render(djac)}")
    for k, theta in enumerate(samples.get("thetas", [])):
        for alpha_label, alpha in samples.get("alphas", []):
            lhs = sharp1_tilde(
                exterior_derivative(bracket_ext1(alpha, theta, structure)),
                structure,
            )
            dalpha_sharp = structure.derive_sharp(n, exterior_derivative(alpha))
            rhs = -lie_derivative_mvform(
                dalpha_sharp.rep,
                sharp1_tilde(exterior_derivative(theta), structure),
            )
            ok = structure.coset_is_zero(lhs - rhs, n)
            report.add(
                f"ext-sharp-of-bracket {k} vs {alpha_label}", ok,
                "" if ok else "Lie derivative identity fails",
            )
    if table is not None:
        for k, theta in enumerate(samples.get("thetas", [])):
            dtheta = exterior_derivative(theta)
            if dtheta:
                w = table.apply(dtheta)
                report.add(f"table-vertical {k}", w.vec_slot_vertical())
            for alpha_label, alpha in samples.get("alphas", []):
                if alpha.degree != n - 1:
                    continue
                lhs = bracket_extj(alpha, theta, table, structure)
                rhs = bracket_ext1(alpha, theta, structure)
                ok = lhs == rhs
                report.add(
                    f"table-consistency {k} vs {alpha_label}", ok,
                    "" if ok else f"{render(lhs)} != {render(rhs)}",
                )
    return report
