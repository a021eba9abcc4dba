"""Independent brute-force oracles used by the tests.

Everything here but ``naive_sharp1_tilde`` and ``naive_pairing_rhs``
works on dense antisymmetric coefficient maps indexed by arbitrary (not
necessarily sorted) tuples, expanded over permutations, so no code is
shared with the package's sparse merge-sign engine.  Those two run on the
package's kernels, but by another expansion: ``naive_sharp1_tilde`` by the
per-combination anti-derivation rule, checking the dual-frame formula of
``sharp1_tilde``; ``naive_pairing_rhs`` through the sharp_1~ value itself,
checking the pairing fields of the extension layer.
"""

from itertools import combinations, permutations

import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyRing


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


def naive_rank(rows):
    """Rank of a dense matrix of rational functions (a list of rows), by
    sympy's own elimination over the fraction field of its symbols."""
    if not rows or not rows[0]:
        return 0
    return DomainMatrix.from_Matrix(sympy.Matrix(rows)).to_field().rank()


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


def naive_sharp1_tilde(theta, structure):
    """sharp_1~(theta) one generator combination at a time: theta =
    sum_C f_C t_{c1} ^ ... ^ t_{ca} by ``decompose_s1_power``, and each
    factor t_j is taken out in turn with the sign (-1)^{a+1} (-1)^{j+1},
    the others wedged again and tensored with derive_sharp(1, t_j).
    Raises MembershipError when theta is not in (S^1)^{wedge a}."""
    from gradira.errors import MembershipError
    from gradira.extensions import decompose_s1_power, s1_wedge_basis
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
