"""Independent brute-force oracles used by the tests.

Most oracles here work on dense antisymmetric coefficient maps indexed
by arbitrary (not necessarily sorted) tuples, expanded over permutations,
so no code is shared with the package's sparse merge-sign engine.  The
sharp_1~ oracles run on the package's kernels, but by another expansion:
``naive_sharp1_tilde`` by the per-combination anti-derivation rule,
checking the dual-frame formula of ``sharp1_tilde``; ``naive_pairing_rhs``,
``naive_bracket_ext1``, ``naive_is_hamiltonian`` and ``naive_gamma_H``
through the sharp_1~ (or sharp_n~) value itself as an MvForm, checking the
pairing fields X_beta that the package contracts instead.  The S^a[j]
tower oracles build with ``Form`` objects what the package builds on
coefficient dicts: ``wedge_loop_s1_basis`` the candidates one ``wedge`` at a
time, ``contract_pairing_rhs`` each pairing right-hand side one
``contract`` per S^n generator, ``pairing_defect`` the defining pairing
from the sharp_n values, and ``naive_solve_pairing`` the W side of the
S^a[j] pairing afresh for every form it solves.  ``naive_verify_axioms``
checks the axioms with ``Form`` operators, ``contract``, ``schouten``,
``Span.decompose`` and ``CosetRep.equiv``, where the package keeps
coefficient dicts; ``naive_lower_tower`` rebuilds the levels below n with
``contract``, ``wedge``, ``Span.reduced`` and a pairwise ratio test, where
the package groups coefficient dicts by ray key;
``naive_build_span_tower`` eliminates every S^a[j] candidate jointly,
where the package eliminates only the live columns, and
``naive_support_graph`` finds those by linking every candidate and W
column to the row keys it can reach and following the links from every
candidate that shares a key, where the package counts the candidates'
keys and takes the pairing-system components that their keys touch;
``naive_generator_echelon`` eliminates a span in column form, one row per
component key and one unknown per generator, where the package takes the
generators as rows; ``naive_render`` prints every coefficient through
sympy's printer (``naive_render_scalar``, ``naive_term``) and finds each
``dX[...]`` sign by contracting the volume (``naive_render_form_indices``),
where the package writes constants and polynomials itself and counts the
sign; ``naive_field``, ``naive_scalar``, ``naive_field_gradient`` and
``naive_field_substitute`` keep the scalar field as sympy's fraction field
over QQ computes it, where the package holds its own polynomials; ``decompose_s1_power``,
``is_null`` and ``fiber_indices`` are helpers that only the tests use.
``naive_parse_expression`` is the expression parser as it was before its
name atoms shared one comma-list reader and one coordinate check, and
before scalars went through their own operators (``_Token``,
``_tokenize`` and ``_Parser`` kept as they were; only the size bounds are
imported); the differential fuzz of ``tests/test_parser.py`` holds the
package parser to its values and its exceptions, text included.
``naive_pairing_rows`` and ``naive_annihilator`` keep the explicit
accumulate loops for the rows of the S^a[j] pairing system and of the
annihilator, which the package builds from a term index and through
``forms._pairing_rows``; ``naive_pairing`` contracts w into each
generator with ``contract``, where ``Structure.pairing`` sums the columns
of the structure's term index.
``naive_check_lie_algebra`` keeps the dense loop over every index tuple
that checked the Yang-Mills structure constants.
``naive_in_annihilator`` keeps the coset test as an all-pairs
``forms._bilinear`` per S^p generator, where the package takes a sparse
dot product over equal keys.  ``naive_poincare_primitive`` integrates the
radial homotopy in t with sympy and contracts by the Euler field through
``naive_contract_by_vector``, where the package rescales each monomial
and contracts in one pass over the keys.
``NaiveReport`` and ``NaiveCheck`` keep the report as a list of
dataclasses sorted by a lambda key, where the package keeps
``(name, passed, detail)`` tuples and builds ``Check`` views on demand.
"""

from dataclasses import dataclass, field
from itertools import combinations, permutations

import sympy
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyRing
from sympy.printing.str import StrPrinter

from gradira import scalars
from gradira.chart import _PARTIAL_SEP
from gradira.errors import ParseError, UndefinedScalarError
from gradira.forms import Form, MultiVector, MvForm, volume_contraction, wedge
from gradira.parser import (MAX_BITS, MAX_DIGITS, MAX_EXPONENT, MAX_TERMS, _TOKEN_RE,
                            _add_size, _max_size, _mul_size, _power_size, _size,
                            _sum_size)
from gradira.scalars import as_scalar


def perm_parity(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def dense_component(data, idx):
    """Coefficient of a sparse increasing-index map on an arbitrary tuple."""
    key = tuple(sorted(idx))
    sign = perm_parity(idx)
    if sign == 0:
        return sympy.Integer(0)
    return sign * data.get(key, sympy.Integer(0))


def naive_contract_by_vector(data, degree, j):
    """(iota_{d/dx^j} omega)_I = omega_{(j,) + I}."""
    out = {}
    m_indices = set()
    for key in data:
        m_indices |= set(key)
    for key in data:
        if j not in key:
            continue
        for rest in combinations([i for i in key if i != j], degree - 1):
            val = dense_component(data, (j,) + rest)
            if val != 0:
                out[rest] = out.get(rest, sympy.Integer(0)) + val
    return {k: sympy.cancel(v) for k, v in out.items() if sympy.cancel(v) != 0}


def naive_contract(data, degree, vector_idx):
    """iota_{u_1 ^ ... ^ u_p} = iota_{u_p} o ... o iota_{u_1}."""
    out = data
    deg = degree
    for j in vector_idx:
        out = naive_contract_by_vector(out, deg, j)
        deg -= 1
    return out


def naive_wedge(a_data, a_deg, b_data, b_deg):
    """Full shuffle-expansion wedge on sparse increasing maps."""
    out = {}
    for ia, ca in a_data.items():
        for ib, cb in b_data.items():
            if set(ia) & set(ib):
                continue
            merged = tuple(sorted(ia + ib))
            sign = perm_parity(ia + ib)
            out[merged] = out.get(merged, sympy.Integer(0)) + sign * ca * cb
    return {k: sympy.cancel(v) for k, v in out.items() if sympy.cancel(v) != 0}


def naive_mvform_contract(w_data, alpha_data, alpha_degree):
    """iota_{theta (x) v} alpha = theta ^ iota_v alpha, term by term over
    the (form index, vector index) keys of ``w_data``."""
    out = {}
    for (fidx, vidx), c in w_data.items():
        inner = naive_contract(alpha_data, alpha_degree, vidx)
        piece = naive_wedge({fidx: c}, len(fidx), inner, alpha_degree - len(vidx))
        for key, val in piece.items():
            out[key] = out.get(key, sympy.Integer(0)) + val
    return {k: sympy.cancel(v) for k, v in out.items() if sympy.cancel(v) != 0}


def naive_mvform_wedge(a_data, b_data):
    """Slotwise (theta (x) v) ^ (omega (x) u) = (theta ^ omega) (x) (v ^ u),
    term by term over (form index, vector index) keys."""
    out = {}
    one = sympy.Integer(1)
    for (fa, va), ca in a_data.items():
        for (fb, vb), cb in b_data.items():
            forms = naive_wedge({fa: ca}, len(fa), {fb: cb}, len(fb))
            vectors = naive_wedge({va: one}, len(va), {vb: one}, len(vb))
            for fkey, fval in forms.items():
                for vkey, vval in vectors.items():
                    key = (fkey, vkey)
                    out[key] = out.get(key, sympy.Integer(0)) + fval * vval
    return {k: sympy.cancel(v) for k, v in out.items() if sympy.cancel(v) != 0}


def naive_identity_contraction(data, degree, m, a):
    """iota_{1_a} beta = sum_J dx^J ^ iota_{d/dx^J} beta, expanded naively."""
    out = {}
    for vid in combinations(range(m), a):
        inner = naive_contract(data, degree, vid)
        theta = {vid: sympy.Integer(1)}
        piece = naive_wedge(theta, a, inner, degree - a)
        for key, val in piece.items():
            out[key] = out.get(key, sympy.Integer(0)) + val
    return {k: sympy.cancel(v) for k, v in out.items() if sympy.cancel(v) != 0}


def naive_schouten(u_data, p, v_data, q, syms):
    """The recursive Leibniz/skew expansion of the Schouten bracket on
    coordinate decomposables; an implementation independent of the
    odd-variable formula."""

    def lie_vectors(fi, i, gj, j):
        # [f d_i, g d_j] = f (d_i g) d_j - g (d_j f) d_i
        out = {}
        dgi = sympy.diff(gj, syms[i])
        if dgi != 0:
            out[(j,)] = out.get((j,), sympy.Integer(0)) + fi * dgi
        dfj = sympy.diff(fi, syms[j])
        if dfj != 0:
            out[(i,)] = out.get((i,), sympy.Integer(0)) - gj * dfj
        return out

    def bracket_terms(idx_a, ca, idx_b, cb):
        pa, qb = len(idx_a), len(idx_b)
        if qb >= 2:
            # [P, (c_b d_{j1}) ^ rest] = [P, c_b d_j1] ^ rest
            #   + (-1)^{p-1} (c_b d_j1) ^ [P, rest]
            j1, rest = idx_b[0], idx_b[1:]
            first = bracket_terms(idx_a, ca, (j1,), cb)
            out = naive_wedge(first, pa, {rest: sympy.Integer(1)}, len(rest))
            second = bracket_terms(idx_a, ca, rest, sympy.Integer(1))
            tail = naive_wedge({(j1,): cb}, 1, second, pa + len(rest) - 1)
            sign = (-1) ** (pa - 1)
            for key, val in tail.items():
                out[key] = out.get(key, sympy.Integer(0)) + sign * val
            return out
        if pa >= 2:
            # skew with q = 1: [P, gY] = -[gY, P]
            flipped = bracket_terms(idx_b, cb, idx_a, ca)
            return {k: -v for k, v in flipped.items()}
        return lie_vectors(ca, idx_a[0], cb, idx_b[0])

    out = {}
    for idx_a, ca in u_data.items():
        for idx_b, cb in v_data.items():
            for key, val in bracket_terms(idx_a, ca, idx_b, cb).items():
                skey = tuple(sorted(key))
                sgn = perm_parity(key)
                if sgn == 0:
                    continue
                out[skey] = out.get(skey, sympy.Integer(0)) + sgn * val
    return {k: sympy.cancel(v) for k, v in out.items() if sympy.cancel(v) != 0}


def naive_poincare_primitive(data, degree, names):
    """The radial homotopy of an a-form with polynomial coefficients on the
    coordinates ``names``: iota_E of sum_I (int_0^1 t^{a-1} alpha_I(t x) dt)
    dx^I for the Euler field E = x^j d/dx^j."""
    syms = [sympy.Symbol(name) for name in names]
    t = sympy.Dummy("t")
    radial = {}
    for idx, c in data.items():
        scaled = sympy.sympify(c).subs({x: t * x for x in syms}, simultaneous=True)
        radial[idx] = sympy.integrate(t ** (degree - 1) * scaled, (t, 0, 1))
    out = {}
    for j, x in enumerate(syms):
        for key, val in naive_contract_by_vector(radial, degree, j).items():
            out[key] = out.get(key, sympy.Integer(0)) + x * val
    return {k: sympy.cancel(v) for k, v in out.items() if sympy.cancel(v) != 0}


def naive_rank(rows):
    """Rank of a dense matrix of rational functions (a list of rows), by
    sympy's own elimination over the fraction field of its symbols."""
    if not rows or not rows[0]:
        return 0
    return DomainMatrix.from_Matrix(sympy.Matrix(rows)).to_field().rank()


def naive_generator_echelon(generators):
    """An elimination of a span in column form: one row per component key
    (sorted), one unknown per generator position.  ``solve`` of a target's
    ``data`` is None iff the target is not in the span; on independent
    generators its particular solution is the unique decomposition, and
    its kernel has one vector per relation."""
    from gradira.linsolve import Echelon

    keys = sorted(set().union(*(g.data for g in generators)))
    rows = {key: {i: g.data[key] for i, g in enumerate(generators) if key in g.data}
            for key in keys}
    return Echelon(rows, range(len(generators)))


def naive_gradient(expr, coords, functions):
    """{coordinate index: total derivative, not simplified} of a scalar,
    one coordinate at a time: the coordinate's own derivative plus, for every free symbol
    naming a declared function (``functions`` maps name -> arguments) or a
    formal partial ``f__a__b``, d(expr)/d(symbol) times the partial along
    that coordinate when the coordinate is an argument."""
    out = {}
    for i, c in enumerate(coords):
        total = sympy.diff(expr, sympy.Symbol(c))
        for sym in expr.free_symbols:
            base, *diffs = sym.name.split("__")
            if base not in functions or c not in functions[base]:
                continue
            name = "__".join([base] + sorted(diffs + [c]))
            total += sympy.diff(expr, sym) * sympy.Symbol(name)
        if not is_zero_expr(total):
            out[i] = total
    return out


def is_zero_expr(expr):
    """Exact zero test of a rational expression with no polynomial gcd:
    over a common denominator, the numerator expands to the zero
    polynomial."""
    numer = expr.as_numer_denom()[0]
    if not numer.free_symbols:
        return numer == 0
    return not PolyRing(sorted(numer.free_symbols, key=str), QQ).from_expr(numer)


def naive_field(names):
    """The sympy fraction field over QQ of the generators ``names``: the
    scalar field as the package computed it before it held its own
    polynomials.  sympy's arithmetic there is canonical, so a difference
    is zero exactly when two values are equal."""
    return FracField([sympy.Symbol(n) for n in names], QQ)


def naive_scalar(field, value):
    """A Scalar, number or expression as an element of ``field``, read
    through its sympy expression."""
    el = field.from_expr(sympy.sympify(value))
    return field.new(el.numer, el.denom)


def naive_field_gradient(el, coords, functions):
    """{coordinate index: nonzero total derivative} of a field element by
    sympy's quotient rule, with the chain rule of the declared functions
    and their partials ``f__a__b`` (``functions`` maps name -> arguments);
    the field must hold every partial that appears."""
    used = {k for m in [*el.numer, *el.denom] for k, e in enumerate(m) if e}
    gens = {s.name: g for k, (s, g) in enumerate(zip(el.field.symbols, el.field.gens))
            if k in used}
    every = {s.name: g for s, g in zip(el.field.symbols, el.field.gens)}
    out = {}
    for i, c in enumerate(coords):
        total = el.diff(gens[c]) if c in gens else el.field.zero
        for name, g in gens.items():
            base, *diffs = name.split("__")
            if base in functions and c in functions[base]:
                total += el.diff(g) * every["__".join([base] + sorted(diffs + [c]))]
        if total:
            out[i] = total
    return out


def naive_field_substitute(el, images):
    """``el`` with the generator of every name in ``images`` replaced by
    its image, an element of the same field."""
    expr = el.as_expr().xreplace({sympy.Symbol(n): image.as_expr()
                                  for n, image in images.items()})
    return naive_scalar(el.field, expr)


def fiber_indices(chart):
    """The chart indices of the fiber coordinates."""
    return range(chart.n, chart.m)


def is_null(rep):
    """Is a ``CosetRep`` the zero coset?"""
    return rep.structure.coset_is_zero(rep.rep, rep.modulus_degree)


def decompose_s1_power(structure, theta):
    """theta = sum f_C theta_{c1} ^ ... ^ theta_{ca} over the combinations
    C of ``s1_wedge_basis``; None when theta is not in (S^1)^{wedge a}."""
    from gradira.extensions import s1_wedge_basis
    from gradira.spans import decompose_over

    basis = s1_wedge_basis(structure, theta.degree)
    coefficients = decompose_over([f for _, f in basis], theta)
    if coefficients is None:
        return None
    return {basis[i][0]: c for i, c in coefficients.items()}


def naive_sharp1_tilde(theta, structure):
    """sharp_1~(theta) one generator combination at a time: theta =
    sum_C f_C t_{c1} ^ ... ^ t_{ca} by ``decompose_s1_power``, and each
    factor t_j is taken out in turn with the sign (-1)^{a+1} (-1)^{j+1},
    the others wedged again and tensored with derive_sharp(1, t_j).
    Raises MembershipError when theta is not in (S^1)^{wedge a}."""
    from gradira.errors import MembershipError
    from gradira.extensions import s1_wedge_basis
    from gradira.forms import Form, MvForm, wedge

    chart, a = structure.chart, theta.degree
    decomposition = decompose_s1_power(structure, theta)
    if decomposition is None:
        raise MembershipError(f"{theta!r} is not in (S^1)^{a}")
    factors = {combo[0]: form for combo, form in s1_wedge_basis(structure, 1)}
    out = MvForm.zero(chart, a - 1, structure.n)
    for combo, coeff in decomposition.items():
        for j, k in enumerate(combo):
            rest = Form.scalar_form(chart, coeff)
            for t, i in enumerate(combo):
                if t != j:
                    rest = wedge(rest, factors[i])
            value = structure.derive_sharp(1, factors[k]).rep
            out = out + (-1) ** (a + 1 + j) * MvForm.tensor(rest, value)
    return out


def naive_pairing_rhs(theta, structure):
    """iota_{sharp_1~(theta)} alpha_g over the S^n generators alpha_g, keyed
    {(g, multi-index): coefficient}: the sharp_1~ value is built as an
    MvForm and contracted with each generator, the path the pairing fields
    of ``Structure.pairing_fields`` replace.  Raises MembershipError when
    theta is not in (S^1)^{wedge a}."""
    from gradira.extensions import sharp1_tilde
    from gradira.forms import contract

    value = sharp1_tilde(theta, structure)
    return {(g, key): c
            for g, gen in enumerate(structure.levels[structure.n])
            for key, c in contract(value, gen.form).data.items()}


def wedge_loop_s1_basis(structure, a):
    """``s1_wedge_basis`` as (combination, Form) pairs, each wedge monomial
    built from its first factor by a - 1 ``wedge`` calls."""
    from gradira import scalars
    from gradira.forms import Form, wedge

    chart = structure.chart
    gens = structure.generators(1)
    scaled_coords = len(gens) == chart.m and all(len(g.data) == 1 for g in gens)
    if len(structure.s1_frame[2]) == chart.m and not scaled_coords:
        gens = [Form(chart, 1, {(i,): 1}) for i in range(chart.m)]
    basis = []
    for combo in combinations(range(len(gens)), a):
        form = gens[combo[0]] if combo else Form.scalar_form(chart, scalars.ONE)
        for i in combo[1:]:
            form = wedge(form, gens[i])
        if not form.is_zero():
            basis.append((combo, form))
    return basis


def contract_pairing_rhs(theta, structure):
    """(-1)^{a+1} iota_{X_g} theta over the pairing fields X_g of
    ``Structure.pairing_fields``, keyed {(g, multi-index): coefficient}:
    one ``contract`` per S^n generator, for any form theta."""
    from gradira.forms import contract

    signed = theta if theta.degree % 2 else -theta  # (-1)^{a+1} theta
    return {(g, key): c for g, x in enumerate(structure.pairing_fields)
            for key, c in contract(x, signed).data.items()}


def pairing_defect(structure, theta, w=None):
    """Check iota_{sharp_n(alpha)} theta = (-1)^{n+1-a} iota_{sharp_1~(theta)} alpha
    (or, given w, iota_w alpha = iota_{sharp_1~(theta)} alpha) on all S^n
    generators, the right side by the package's ``Structure.pairing_rhs``;
    returns the first failing generator or None."""
    from gradira.extensions import _pairing_failure, require_s1_power
    from gradira.forms import contract

    require_s1_power(theta, structure)
    n = structure.n
    if w is not None:
        lhs = structure.pairing(w, n)
    else:
        sign = -1 if (n + 1 - theta.degree) % 2 else 1
        lhs = {(g, key): c for g, gen in enumerate(structure.levels[n])
               for key, c in (sign * contract(gen.sharp, theta)).data.items()}
    return _pairing_failure(structure, lhs, structure.pairing_rhs(theta.data))


def naive_solve_pairing(structure, theta, j, vertical=False):
    """Solve iota_W alpha = iota_{sharp_1~(theta)} alpha for all alpha in S^n,
    W in Lambda^{a-j} (x) V_{n+1-j}, with fresh unknowns, rows and
    ``Echelon`` on every call, the right side by ``contract_pairing_rhs``.
    Returns (particular MvForm, freedom list) or None when the system is
    inconsistent; theta = 0 gives the homogeneous freedom."""
    from gradira import scalars
    from gradira.forms import MvForm, mvform_contract_pair
    from gradira.linsolve import Echelon

    chart = structure.chart
    fdeg, vdeg = theta.degree - j, structure.n + 1 - j
    vkeys = [v for v in combinations(range(chart.m), vdeg)
             if not vertical or any(i >= chart.n for i in v)]
    unknowns = [(f, v) for f in combinations(range(chart.m), fdeg) for v in vkeys]
    rows = {}
    for g, gen in enumerate(structure.generators(structure.n)):
        lhs = {}
        for wkey in unknowns:
            for aidx, c in gen.data.items():
                sign, res = mvform_contract_pair(wkey, aidx)
                if sign:
                    scalars.accumulate(lhs.setdefault(res, {}), wkey, c, sign)
        rows.update(((g, key), lhs[key]) for key in sorted(lhs))
    echelon = Echelon(rows, unknowns)
    particular = echelon.solve(contract_pairing_rhs(theta, structure))
    if particular is None:
        return None
    return (MvForm(chart, fdeg, vdeg, particular),
            [MvForm(chart, fdeg, vdeg, dict(vec)) for vec in echelon.kernel])


def naive_bracket_ext1(alpha, theta, structure):
    """{alpha, Theta} = (-1)^{deg_H Theta} iota_{sharp_1~(d Theta)} d alpha
    with the sharp_1~ value built as an MvForm and contracted into d alpha."""
    from gradira.calculus import exterior_derivative
    from gradira.extensions import require_ext1_left, sharp1_tilde
    from gradira.forms import Form
    from gradira.structure import bracket_formula

    dalpha = require_ext1_left(alpha, structure)
    dtheta = exterior_derivative(theta)
    if dtheta.is_zero():
        return Form.zero(structure.chart, theta.degree)
    return bracket_formula(sharp1_tilde(dtheta, structure), dalpha, theta,
                           structure.n)


def _naive_not_semibasic_along(structure, value, k):
    """The first vertical coordinate vector v, in chart order, with
    iota_v (1_k - value) in the form slot not zero modulo K_k, or None."""
    from gradira.forms import MultiVector, contract_form_slot, identity_tensor

    chart = structure.chart
    defect = identity_tensor(chart, k) - value
    for i in fiber_indices(chart):
        v = MultiVector(chart, 1, {(i,): 1})
        if not structure.coset_is_zero(contract_form_slot(v, defect), k):
            return v
    return None


def naive_is_hamiltonian(form, structure):
    """``is_hamiltonian`` with its checks in order on the sharp_1~(dH)
    MvForm: membership through ``sharp1_tilde``, admission to S^{n+1}[n],
    the K_n-cosets of iota_v (1_n - sharp_1~(dH)) for each vertical
    coordinate vector v, and contract(sharp_1~(dH), d^n x)."""
    from gradira.calculus import exterior_derivative
    from gradira.errors import MembershipError
    from gradira.extensions import sharp1_tilde
    from gradira.forms import Form, contract
    from gradira.render import render

    n, chart = structure.n, structure.chart
    if form.degree != n:
        return False, [f"degree {form.degree} != n"]
    dh = exterior_derivative(form)
    try:
        s1t = sharp1_tilde(dh, structure)
    except MembershipError:
        return False, ["dH is not in the wedge power (S^1)^(n+1)"]
    if not dh.is_zero() and naive_solve_pairing(structure, dh, n) is None:
        return False, ["dH is not in S^{n+1}[n]"]
    v = _naive_not_semibasic_along(structure, s1t, n)
    if v is not None:
        return False, [f"1_n - sharp_1~(dH) is not semi-basic: fails along {render(v)}"]
    if contract(s1t, Form(chart, n, {tuple(range(n)): 1})):
        return False, ["sharp_1~(dH) does not annihilate semi-basic n-forms"]
    return True, ["ok"]


def naive_gamma_H(ham, table):
    """``gamma_H`` with the semi-basic test of 1_1 - sharp_n~(dH) taken as
    K_1-cosets in the form slot, one vertical coordinate vector at a time."""
    from gradira.dynamics import Connection
    from gradira.errors import MembershipError
    from gradira.forms import Form, contract
    from gradira.render import render

    structure = ham.structure
    chart, n = structure.chart, structure.n
    t = table.apply(ham.dform)
    if not t.vec_slot_vertical():
        raise MembershipError("sharp_n~(dH) is not vertical valued")
    if _naive_not_semibasic_along(structure, t, 1) is not None:
        raise MembershipError(
            "1_1 - sharp_n~(dH) is not semi-basic; the table does not "
            "induce a connection"
        )
    gammas = {}
    for u in chart.fiber_coords:
        du = Form.d_coord(chart, u)
        b = du - contract(t, du)
        if not b.is_semibasic():
            raise MembershipError(
                f"horizontal part of d({u}) is not semi-basic: {render(b)}"
            )
        gammas[u] = {mu: b.data[(mu - 1,)] for mu in range(1, n + 1)
                     if (mu - 1,) in b.data}
    return Connection(chart, gammas)


@dataclass
class NaiveCheck:
    name: str
    passed: bool
    detail: str = ""

    def render(self):
        status = "PASS" if self.passed else "FAIL"
        if self.detail:
            return f"{status} {self.name}: {self.detail}"
        return f"{status} {self.name}"


@dataclass
class NaiveReport:
    checks: list = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.checks.append(NaiveCheck(name, passed, detail))

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def render(self):
        return "\n".join(c.render() for c in sorted(self.checks, key=lambda c: c.name))

    def __str__(self):
        return self.render()


def naive_verify_axioms(structure):
    """``verify_axioms`` on ``Form`` objects: every product, sum, d and
    Schouten bracket builds its wrapper, the defect is decomposed by
    ``Span.decompose`` and compared with [U, V] by ``CosetRep.equiv``.
    Same checks, names and failure texts."""
    from gradira.calculus import exterior_derivative

    report = NaiveReport()
    n = structure.n
    d = {a: [exterior_derivative(g.form) for g in structure.levels[a]]
         for a in range(1, n + 1)}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if a + b < n + 1:
                continue
            for i in range(len(structure.levels[a])):
                for j in range(i if b == a else 0, len(structure.levels[b])):
                    _naive_check_pair(structure, report, d, a, i, b, j)
    return report


def _naive_check_pair(structure, report, d, a, i, b, j):
    from fractions import Fraction

    from gradira.calculus import exterior_derivative, schouten
    from gradira.forms import contract
    from gradira.render import render

    n = structure.n
    alpha, u = structure.levels[a][i].form, structure.levels[a][i].sharp
    beta, v = structure.levels[b][j].form, structure.levels[b][j].sharp
    p, q = n + 1 - a, n + 1 - b
    lhs = contract(u, beta)
    rhs = contract(v, alpha)
    skew_ok = lhs == (-rhs if (p * q) % 2 else rhs)
    report.add(
        f"skew a={a}.{i} b={b}.{j}",
        skew_ok,
        "" if skew_ok else f"iota_sharp({render(alpha)}) {render(beta)} = {render(lhs)} vs {render(rhs)}",
    )
    # theta = s(q)/2 d(iota_v alpha + s(pq) iota_u beta)
    #         - s((p-1)q + p) iota_u d beta - iota_v d alpha
    inner = rhs - lhs if (p * q) % 2 else rhs + lhs
    s_u = -1 if ((p - 1) * q + p) % 2 else 1
    theta = (Fraction(-1 if q % 2 else 1, 2) * exterior_derivative(inner)
             - s_u * contract(u, d[b][j]) - contract(v, d[a][i]))
    c = a + b - n
    coefficients = structure.span(c).decompose(theta)
    if coefficients is None:
        report.add(
            f"integrable a={a}.{i} b={b}.{j}",
            False,
            f"defect form {render(theta)} is not in S^{c}",
        )
        return
    lieb = schouten(u, v)
    ok = structure.sharp_from(c, coefficients).equiv(lieb)
    report.add(
        f"integrable a={a}.{i} b={b}.{j}",
        ok,
        "" if ok else f"sharp of {render(theta)} differs from [U, V] = {render(lieb)}",
    )


def naive_pairing_rows(chart, generators, fdeg, vdeg, vertical=False):
    """(unknowns, rows) of the S^a[j] pairing system for W in
    Lambda^fdeg (x) V_vdeg, by the explicit accumulate loop over
    (generator, unknown, generator term): one row per (generator index,
    result multi-index), keys sorted per generator, each row's unknowns in
    canonical order.  The oracle for ``structure.PairingSystem.rows``."""
    from gradira import scalars
    from gradira.forms import mvform_contract_pair

    vkeys = [v for v in combinations(range(chart.m), vdeg)
             if not vertical or any(i >= chart.n for i in v)]
    unknowns = [(f, v) for f in combinations(range(chart.m), fdeg) for v in vkeys]
    rows = {}
    for g, gen in enumerate(generators):
        lhs = {}
        for wkey in unknowns:
            for aidx, c in gen.data.items():
                sign, res = mvform_contract_pair(wkey, aidx)
                if sign:
                    scalars.accumulate(lhs.setdefault(res, {}), wkey, c, sign)
        rows.update(((g, key), lhs[key]) for key in sorted(lhs))
    return unknowns, rows


def naive_pairing(structure, w, p):
    """iota_w alpha_g for a multivector or multivector valued form w and
    the level-p generators alpha_g, keyed {(g, multi-index): coefficient}:
    one ``forms.contract`` per generator.  The oracle for
    ``Structure.pairing``, which sums the columns of its term index; the
    two are compared as dicts, since key order is not part of the
    result."""
    from gradira.forms import contract

    return {(g, key): c for g, gen in enumerate(structure.levels[p])
            for key, c in contract(w, gen.form).data.items()}


def naive_annihilator(span, p):
    """The coefficient dicts of the order-p annihilator generators of a
    span of forms, by the explicit loop over (generator, term, p-subset of
    the term's slots) and one ``nullspace``: the oracle for
    ``spans.annihilator``."""
    from gradira import scalars
    from gradira.linsolve import nullspace
    from gradira.multiindex import contract_index

    unknowns = list(combinations(range(span.chart.m), p))
    rows = []
    for g in span.generators:
        eqs = {}
        for fidx, c in g.data.items():
            for vidx in combinations(fidx, p):
                sign, rest = contract_index(fidx, vidx)
                scalars.accumulate(eqs.setdefault(rest, {}), vidx, c, sign)
        rows.extend(coeffs for coeffs in eqs.values() if coeffs)
    return [{k: v for k, v in vec.items() if v} for vec in nullspace(rows, unknowns)]


def naive_in_annihilator(structure, data, p, pair):
    """Does the coefficient dict of a multivector (``pair`` is
    ``forms._contract_by_pair``) or of a multivector valued form
    (``forms.mvform_contract_pair``) contract every S^p generator to
    zero?  One all-pairs ``forms._bilinear`` per generator, every term
    against every term: the oracle for ``Structure.in_annihilator``,
    which pairs only equal keys."""
    from gradira.forms import _bilinear

    return not any(_bilinear(data, g.form.data, pair) for g in structure.levels[p])


def naive_check_lie_algebra(c, dim):
    """None, "antisymmetry" or "Jacobi": the first property the structure
    constants c(k, i, j) = c^k_{ij} on 1..dim violate, by the dense loop
    over every index tuple: the oracle for ``scenarios._check_lie_algebra``,
    which runs over the nonzero constants only."""
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                if c(k, i, j) + c(k, j, i) != 0:
                    return "antisymmetry"
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                for m in range(1, dim + 1):
                    acc = 0
                    for l in range(1, dim + 1):
                        acc += c(m, i, l) * c(l, j, k)
                        acc += c(m, j, l) * c(l, k, i)
                        acc += c(m, k, l) * c(l, i, j)
                    if acc != 0:
                        return "Jacobi"
    return None


def _naive_scalar_ratio(candidate, reference):
    """lam with candidate = lam * reference for a nonzero scalar lam, else
    None: one division per common key, all of them equal."""
    from gradira import scalars

    if set(candidate.data) != set(reference.data):
        return None
    ratio = None
    for key, c in reference.data.items():
        r = scalars.sdiv(candidate.data[key], c)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio


def naive_lower_tower(structure):
    """The levels n-1..1 of ``structure`` rebuilt from its level n with
    ``Form`` objects, as {a: [TowerGen]}: each level-(a+1) generator
    contracted by every unit coordinate vector (``contract``, sharp value
    by ``wedge``), the nonzero candidates reduced by ``Span.reduced``, and
    each kept generator's sharp value the mean of (1/lam) sharp over every
    candidate lam times it, lam found by a pairwise ratio test.  Sharp
    values that are zero modulo K are then replaced by the zero
    multivector with ``structure.coset_is_zero``."""
    from fractions import Fraction

    from gradira import scalars
    from gradira.forms import MultiVector, contract, linear_combination, wedge
    from gradira.spans import Span
    from gradira.structure import TowerGen

    chart, n = structure.chart, structure.n
    levels = {n: structure.levels[n]}
    for a in range(n - 1, 0, -1):
        candidates = []
        for gen in levels[a + 1]:
            for i in range(chart.m):
                v = MultiVector(chart, 1, {(i,): 1})
                form = contract(v, gen.form)
                if not form.is_zero():
                    candidates.append(TowerGen(form, wedge(gen.sharp, v)))
        _, kept = Span(chart, a, [c.form for c in candidates]).reduced()
        levels[a] = []
        for k in kept:
            chosen = candidates[k]
            terms = []
            for cand in candidates:
                lam = _naive_scalar_ratio(cand.form, chosen.form)
                if lam is not None:
                    terms.append((scalars.sdiv(scalars.ONE, lam), cand.sharp))
            total = linear_combination(terms, like=chosen.sharp)
            levels[a].append(TowerGen(chosen.form, Fraction(1, len(terms)) * total))
    for a in range(1, n):
        for gen in levels[a]:
            if gen.sharp and structure.coset_is_zero(gen.sharp, n + 1 - a):
                gen.sharp = MultiVector.zero(chart, n + 1 - a)
    return {a: levels[a] for a in range(n - 1, 0, -1)}


def naive_build_span_tower(structure, a, j, vertical=False):
    """S^a[j] by one joint elimination over every candidate: a scalar
    column ``Structure.pairing_rhs`` for each candidate of
    ``s1_wedge_basis``, then the negated W columns of the pairing system,
    eliminated together over the sorted union of their keys; each column
    that reduces to zero gives a relation, its candidate part a raw
    generator, and ``Span.reduced`` keeps the independent ones.  Returns
    {"entries": [(form, particular value)], "freedom", "rejected": the
    candidates outside the span, by ``Span.contains`` on each, "span":
    the kept generators}: the oracle for ``build_span_tower``, which
    eliminates only the live columns that ``naive_support_graph`` checks."""
    from gradira import scalars
    from gradira.extensions import _check_extension_level, s1_wedge_basis
    from gradira.forms import Form, linear_combination
    from gradira.linsolve import Echelon
    from gradira.spans import Span

    _check_extension_level(structure, a, j)
    chart = structure.chart
    candidates = [f for _, f in s1_wedge_basis(structure, a)]
    system = structure.pairing_system(a, j, vertical)
    columns = {("c", t): structure.pairing_rhs(theta.data)
               for t, theta in enumerate(candidates)}
    row_keys = sorted(set(system.rows).union(*columns.values()))
    columns.update({("w", wk): {} for wk in system.unknowns})
    for r, coeffs in system.rows.items():
        for wk, c in coeffs.items():
            columns[("w", wk)][r] = scalars.sneg(c)
    raw = []
    for relation in Echelon(columns, row_keys).dependent.values():
        form = linear_combination(((c, candidates[t]) for (kind, t), c in relation.items()
                                   if kind == "c"), Form.zero(chart, a))
        if not form.is_zero():
            raw.append(form)
    span = Span(chart, a, raw).reduced()[0]
    return {
        "entries": [(form, system.solve(structure.pairing_rhs(form.data)))
                    for form in span.generators],
        "freedom": list(system.freedom),
        "rejected": [c for c in candidates if not span.contains(c)],
        "span": list(span.generators),
    }


def naive_support_graph(structure, candidates, system):
    """(lone, live W unknowns) of the S^a[j] system, by following shared
    row keys from column to column.

    A candidate's support is {(g, I \\ i) : dx^I a term, i in I, (g, .) in
    pairing_index[i]}, the keys its right-hand side can reach; a W
    column's support is the row keys that hold it.  ``lone[t]`` says that
    candidate t has a support and shares no key of it with any other
    column.  The live W unknowns, in ``system.unknowns`` order, are those
    linked through shared keys to a candidate that is not lone: the oracle
    for ``extensions._live_columns``."""
    gens_at = {i: [g for g, _ in pairs] for i, pairs in structure.pairing_index.items()}
    supports = [{(g, idx[:s] + idx[s + 1:]) for idx in theta.data
                 for s, i in enumerate(idx) for g in gens_at.get(i, ())}
                for theta in candidates]
    holders = {}  # row key -> the columns whose support holds it
    for t, support in enumerate(supports):
        for key in support:
            holders.setdefault(key, []).append(("c", t))
    w_keys = {}
    for r, coeffs in system.rows.items():
        for wk in coeffs:
            w_keys.setdefault(wk, []).append(r)
            holders.setdefault(r, []).append(("w", wk))
    lone = [bool(support) and all(len(holders[key]) == 1 for key in support)
            for support in supports]
    stack = [("c", t) for t, is_lone in enumerate(lone) if not is_lone]
    reached = set(stack)
    while stack:
        kind, col = stack.pop()
        for key in supports[col] if kind == "c" else w_keys[col]:
            for other in holders[key]:
                if other not in reached:
                    reached.add(other)
                    stack.append(other)
    return lone, [wk for wk in system.unknowns if ("w", wk) in reached]


class _ScalarPrinter(StrPrinter):
    """sympy's printer in lex order, a formal partial ``H__x1__y1`` written
    as ``D(H,x1,y1)``."""

    def _print_Symbol(self, expr):
        name = expr.name
        if _PARTIAL_SEP in name:
            parts = name.split(_PARTIAL_SEP)
            return f"D({parts[0]},{','.join(parts[1:])})"
        return name


def naive_render_scalar(value):
    """A scalar's text, printed by sympy."""
    return _ScalarPrinter({"order": "lex"}).doprint(sympy.sympify(value))


def naive_term(coeff, body):
    """One rendered product term, the coefficient printed by sympy:
    ``body``, ``-body`` or ``c * body``, a sum coefficient parenthesised."""
    expr = sympy.sympify(coeff)
    if expr == 1:
        return body
    if expr == -1:
        return f"-{body}"
    text = naive_render_scalar(expr)
    if expr.is_Add:
        text = f"({text})"
    return f"{text} * {body}"


def naive_render_form_indices(chart, idx):
    """(sign, [factors]) of dx^I: d(c) atoms for the fiber slots and a
    dX[...] block for the base slots, its sign found by contracting the
    volume by the lowered slots one at a time."""
    from gradira.multiindex import contract_index

    n = chart.n
    base_part = tuple(i for i in idx if i < n)
    fiber_part = tuple(i for i in idx if i >= n)
    factors = [f"d({chart.coords[i]})" for i in fiber_part]
    sign = 1
    if base_part:
        lowered = tuple(i for i in range(n) if i not in base_part)
        csign, rest = contract_index(tuple(range(n)), lowered)
        assert rest == base_part
        # dx^I = dx^B ^ dx^F = (-1)^{|B||F|} dx^F ^ dx^B and dX[mu] = csign * dx^B
        sign = csign * ((-1) ** (len(base_part) * len(fiber_part)))
        factors.append("dX[" + ",".join(str(i + 1) for i in lowered) + "]")
    return sign, factors


def naive_render(obj):
    """The text of a Form, MultiVector or MvForm, each term through
    ``naive_term`` with its coefficient times the ``dX`` sign."""
    from gradira.forms import Form, MultiVector

    chart = obj.chart
    if isinstance(obj, Form):
        if obj.degree == 0:
            return naive_render_scalar(obj.scalar())
        terms = []
        for idx in sorted(obj.data):
            sign, factors = naive_render_form_indices(chart, idx)
            terms.append(naive_term(obj.data[idx] * sign, " ^ ".join(factors)))
    elif isinstance(obj, MultiVector):
        if obj.degree == 0:
            return naive_render_scalar(obj.data.get((), 0))
        terms = [naive_term(obj.data[idx], " ^ ".join(f"@/{chart.coords[i]}" for i in idx))
                 for idx in sorted(obj.data)]
    else:
        terms = []
        for fidx, vidx in sorted(obj.data):
            sign, factors = (1, ["1"]) if obj.form_degree == 0 else \
                naive_render_form_indices(chart, fidx)
            vbody = " ^ ".join(f"@/{chart.coords[i]}" for i in vidx) if vidx else "1"
            terms.append(naive_term(obj.data[fidx, vidx] * sign,
                                    f"{' ^ '.join(factors)} @ {vbody}"))
    if not terms:
        return "0"
    return terms[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}"
                              for t in terms[1:])


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text, line=1, col=1):
    """Tokens of ``text``, located as if it started at (line, col)."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "int" and len(tok) > MAX_DIGITS:
            raise ParseError(
                f"integer literal of {len(tok)} digits exceeds {MAX_DIGITS}", line, col)
        if kind != "ws":
            tokens.append(_Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text, chart, start=(1, 1)):
        self.tokens = _tokenize(text, *start)
        self.pos = 0
        self.chart = chart

    # -- token plumbing ----------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- grammar -----------------------------------------------------------

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"trailing input {tok.text!r}")
        return value

    def expr(self):
        value = self.product()
        while self.peek().text in ("+", "-"):
            op = self.next()
            rhs = self.product()
            value = self._add(value, rhs if op.text == "+" else self._neg(rhs), op)
        return value

    def product(self):
        value = self.wedges()
        if self.peek().text == "@":
            op = self.next()
            rhs = self.wedges()
            value = self._tensor(value, rhs, op)
        return value

    def wedges(self):
        value = self.scaled()
        while self.peek().text == "^":
            op = self.next()
            rhs = self.scaled()
            value = self._wedge(value, rhs, op)
        return value

    def scaled(self):
        value = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.next()
            rhs = self.unary()
            if op.text == "*":
                value = self._mul(value, rhs, op)
            else:
                if isinstance(rhs, (Form, MultiVector, MvForm)):
                    self.error("division by a non-scalar", op)
                if not rhs:
                    raise UndefinedScalarError(f"{op.line}:{op.col}: division by zero")
                value = self._mul(value, scalars.sdiv(scalars.ONE, rhs), op)
        return value

    def unary(self):
        if self.peek().text == "-":
            tok = self.next()
            return self._neg(self.unary())
        return self.power()

    def power(self):
        value = self.atom()
        if self.peek().kind == "pow":
            op = self.next()
            exp = self.next()
            if exp.kind != "int":
                self.error("exponent must be an integer", exp)
            if isinstance(value, (Form, MultiVector, MvForm)):
                self.error("power of a non-scalar", op)
            e = int(exp.text)
            if e > MAX_EXPONENT:
                self.error(f"exponent {e} exceeds {MAX_EXPONENT}", exp)
            self._bounded(_power_size(value, e), exp, "power too large to expand")
            return value ** e
        return value

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            return as_scalar(int(tok.text))
        if tok.kind == "atvec":
            name = self.next()
            if name.kind != "name":
                self.error("expected a coordinate after @/", name)
            self._coord(name)
            return MultiVector.coord_vector(self.chart, name.text)
        if tok.text == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok.kind == "name":
            return self._name_atom(tok)
        self.error(f"unexpected token {tok.text!r}", tok)

    def _name_atom(self, tok):
        name = tok.text
        nxt = self.peek()
        if name == "d" and nxt.text == "(":
            self.next()
            coord = self.next()
            if coord.kind != "name":
                self.error("expected a coordinate in d(...)", coord)
            self._coord(coord)
            self.expect(")")
            return Form.d_coord(self.chart, coord.text)
        if name == "dX" and nxt.text == "[":
            self.next()
            lowered = []
            if self.peek().text != "]":
                while True:
                    num = self.next()
                    if num.kind != "int":
                        self.error("expected a base index in dX[...]", num)
                    mu = int(num.text)
                    if not 1 <= mu <= self.chart.n:
                        self.error(f"base index {mu} out of range 1..{self.chart.n}", num)
                    lowered.append(mu - 1)
                    if self.peek().text == ",":
                        self.next()
                        continue
                    break
            self.expect("]")
            if len(set(lowered)) != len(lowered):
                self.error("repeated index in dX[...]", tok)
            return volume_contraction(self.chart, lowered)
        if name == "D" and nxt.text == "(":
            self.next()
            fname = self.next()
            if fname.kind != "name" or fname.text not in self.chart.functions:
                self.error("D(...) needs a declared function", fname)
            coords = []
            while self.peek().text == ",":
                self.next()
                c = self.next()
                if c.kind != "name":
                    self.error("expected a coordinate in D(...)", c)
                self._coord(c)
                coords.append(c.text)
            self.expect(")")
            if not coords:
                self.error("D(...) needs at least one coordinate", tok)
            sym = fname.text
            for c in coords:
                nxt_sym = self.chart.partial_symbol(sym, c)
                if nxt_sym is None:
                    self.error(f"{sym} does not depend on {c}", tok)
                sym = self.chart.partial_name(sym, c)
            return as_scalar(nxt_sym)
        if nxt.text == "(" and name in self.chart.functions:
            self.next()
            args = []
            if self.peek().text != ")":
                while True:
                    c = self.next()
                    if c.kind != "name":
                        self.error("expected a coordinate argument", c)
                    self._coord(c)
                    args.append(c.text)
                    if self.peek().text == ",":
                        self.next()
                        continue
                    break
            self.expect(")")
            if tuple(args) != self.chart.functions[name]:
                self.error(
                    f"arguments {args} do not match declaration of {name}", tok
                )
            return as_scalar(sympy.Symbol(name))
        if name in self.chart.functions:
            return as_scalar(sympy.Symbol(name))
        if _PARTIAL_SEP in name:
            self.error(f"unknown partial symbol {name!r}", tok)
        try:
            self.chart.index(name)
        except Exception:
            self.error(f"unknown coordinate {name!r}", tok)
        return as_scalar(self.chart.sym(name))

    def _coord(self, tok):
        try:
            self.chart.index(tok.text)
        except Exception:
            self.error(f"unknown coordinate {tok.text!r}", tok)

    # -- typed operations ----------------------------------------------------

    def _bounded(self, size, tok, what=None):
        """Raise at ``tok`` when the size bound of a result exceeds a cap."""
        degree, terms, bits = _max_size(*filter(None, size))
        if degree > MAX_EXPONENT or terms > MAX_TERMS or bits > MAX_BITS:
            what = what or f"{tok.text!r} result too large"
            self.error(f"{what}: degree {degree}, {terms} terms, "
                       f"{bits}-bit integers", tok)

    @staticmethod
    def _graded(value):
        return isinstance(value, (Form, MultiVector, MvForm))

    def _coerce_pair(self, a, b):
        """Lift scalars to 0-forms when combined with forms."""
        if isinstance(a, Form) and not self._graded(b):
            return a, Form.scalar_form(a.chart, b)
        if isinstance(b, Form) and not self._graded(a):
            return Form.scalar_form(b.chart, a), b
        return a, b

    def _add(self, a, b, tok):
        a, b = self._coerce_pair(a, b)
        if self._graded(a) != self._graded(b):
            self.error("cannot add a scalar and a graded object", tok)
        self._bounded(_add_size(_size(a), _size(b)), tok)
        if not self._graded(a):
            return scalars.sadd(a, b)
        try:
            return a + b
        except Exception as exc:
            self.error(str(exc), tok)

    def _neg(self, a):
        if self._graded(a):
            return -a
        return scalars.sneg(a)

    def _mul(self, a, b, tok):
        if self._graded(a) and self._graded(b):
            self.error("'*' multiplies by scalars; use '^' to wedge", tok)
        self._bounded(_mul_size(_size(a), _size(b)), tok)
        if not self._graded(a) and not self._graded(b):
            return scalars.smul(a, b)
        if self._graded(a):
            return a * b
        return b * a

    def _wedge(self, a, b, tok):
        # each coefficient of a wedge sums at most min(len a, len b) products
        pairs = min(len(a.data) if self._graded(a) else 1,
                    len(b.data) if self._graded(b) else 1)
        self._bounded(_sum_size(_mul_size(_size(a), _size(b)), pairs), tok)
        try:
            return wedge(a, b)
        except Exception as exc:
            self.error(str(exc), tok)

    def _tensor(self, a, b, tok):
        if not self._graded(a):
            a = Form.scalar_form(self.chart, a)
        if not self._graded(b):
            b = MultiVector(self.chart, 0, {(): as_scalar(b)})
        if not isinstance(a, Form) or not isinstance(b, MultiVector):
            self.error("'@' expects form @ multivector", tok)
        self._bounded(_mul_size(_size(a), _size(b)), tok)
        return MvForm.tensor(a, b)


def naive_parse_expression(text, chart, start=(1, 1)):
    return _Parser(text, chart, start).parse()
