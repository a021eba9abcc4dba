import random
from itertools import combinations

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as hst

from gradira import (
    Chart,
    Form,
    MultiVector,
    contract,
    exterior_derivative,
    lie_derivative,
    poincare_primitive,
    schouten,
    volume_contraction,
    wedge,
)
from gradira import scalars
from gradira.calculus import _exterior_derivative
from gradira.errors import NonPolynomialError, NotClosedError
from gradira.multiindex import merge
from gradira.parser import parse_expression
from gradira.render import render

from naive import naive_contract, naive_gradient, naive_poincare_primitive, naive_schouten


def d(form):
    return exterior_derivative(form)


def test_d_of_liouville_terms(ext2):
    # d(p d^n x) = dp ^ d^n x, and d of the full potential term by term
    ch = ext2.chart
    vol = volume_contraction(ch, [])
    f = Form.scalar_form(ch, ch.sym("p")) * vol
    assert d(f) == wedge(Form.d_coord(ch, "p"), vol)
    theta = Form.scalar_form(ch, ch.sym("p")) * vol
    for mu in (1, 2):
        theta = theta + Form.scalar_form(ch, ch.sym(f"p{mu}_1")) * wedge(
            Form.d_coord(ch, "y1"), volume_contraction(ch, [mu - 1])
        )
    dtheta = d(theta)
    expected = wedge(Form.d_coord(ch, "p"), vol)
    for mu in (1, 2):
        expected = expected + wedge(
            Form.d_coord(ch, f"p{mu}_1"),
            wedge(Form.d_coord(ch, "y1"), volume_contraction(ch, [mu - 1])),
        )
    assert dtheta == expected


def test_d_squared_zero_random(chart5):
    rng = random.Random(5)
    for _ in range(10):
        data = {
            idx: rng.randint(-3, 3) * chart5.syms[rng.randrange(5)] ** rng.randint(0, 2)
            for idx in rng.sample(list(combinations(range(5), 2)), 3)
        }
        alpha = Form(chart5, 2, data)
        assert d(d(alpha)).is_zero()


def test_d_top_degree_returns_zero(chart5):
    top = Form(chart5, 5, {tuple(range(5)): chart5.sym("y1")})
    assert d(top).is_zero()
    assert d(top).degree == 5


def own_chart5():
    """A chart like ``chart5`` for a test that declares functions on it."""
    return Chart(base=["x1", "x2"], fiber=["y1", "p1_1", "p2_1"])


def test_d_formal_function():
    ch = own_chart5()
    ch.declare_function("F")
    f = Form.scalar_form(ch, sympy.Symbol("F"))
    df = d(f)
    assert df.data[(0,)] == sympy.Symbol("F__x1")
    assert df.data[(2,)] == sympy.Symbol("F__y1")


def test_kept_d_is_recomputed_after_a_declaration():
    # d of G*y1 dX[1] with G undeclared treats G as a constant; once G is
    # declared, d must carry its formal partials, not the kept d
    ch = own_chart5()
    alpha = Form.scalar_form(ch, sympy.Symbol("G") * ch.sym("y1")) * volume_contraction(ch, [0])
    before = d(alpha)
    assert render(before) == "G * d(y1) ^ dX[1]"
    assert d(alpha) is before
    ch.declare_function("G", ["x1", "y1"])
    after = d(alpha)
    assert after == _exterior_derivative(Form(ch, 1, dict(alpha.data)))
    assert after != before
    assert "D(G,x1)" in render(after) and "D(G,y1)" in render(after)
    assert d(alpha) is after


def _d_chart():
    ch = Chart(base=["x1", "x2"], fiber=["y1", "p1_1"])
    ch.declare_function("H", ["x1", "y1", "p1_1"])
    return ch


_D_CHART = _d_chart()
_COORDS = sympy.symbols("x1 x2 y1 p1_1")
# summands that are not polynomials in the coordinates: a declared
# function, a formal partial, an undeclared symbol and a quotient
_NON_POLYNOMIAL = {"H": sympy.Symbol("H"), "H__y1": sympy.Symbol("H__y1"),
                   "K": sympy.Symbol("K"), "frac": 1 / (1 + _COORDS[2])}

_poly_terms = hst.lists(
    hst.tuples(hst.integers(-3, 3), hst.sampled_from([1, 2, 3, 4, 6]),
               hst.lists(hst.tuples(hst.sampled_from(_COORDS), hst.integers(1, 2)),
                         max_size=3)),
    min_size=1, max_size=3)


def _poly_expr(terms):
    return sum((sympy.Rational(c, q) * sympy.Mul(*(a**e for a, e in factors))
                for c, q, factors in terms), sympy.Integer(0))


def _coefficients(degree):
    keys = list(combinations(range(4), degree))
    return hst.dictionaries(hst.sampled_from(keys), _poly_terms, max_size=4)


def _naive_d(alpha):
    """d from ``naive_gradient``, summed by ``scalars.accumulate`` in the
    per-coefficient order: by coefficient, then coordinate."""
    ch = alpha.chart
    data = {}
    for idx, c in alpha.data.items():
        for i, dc in naive_gradient(c.as_expr(), ch.coords, ch.functions).items():
            sign, merged = merge((i,), idx)
            if sign:
                scalars.accumulate(data, merged, scalars.as_scalar(dc), sign)
    return data


@settings(max_examples=80, deadline=None)
@given(hst.integers(0, 3).flatmap(lambda a: hst.tuples(
           hst.just(a), _coefficients(a), _coefficients(max(a - 1, 0)))),
       hst.booleans(), hst.sampled_from([None, *_NON_POLYNOMIAL]))
def test_d_matches_the_naive_gradient(drawn, exact, extra):
    """Mixed denominators, constant coefficients, entries that lose a
    generator and, with an exact part d gamma, sums that cancel across
    coefficients, and non-polynomial summands: the same keys in the same
    order, each with the canonical representation."""
    a, coefficients, lower = drawn
    ch = _D_CHART
    alpha = Form(ch, a, {idx: _poly_expr(t) for idx, t in coefficients.items()})
    if exact and a >= 1:
        gamma = Form(ch, a - 1, {idx: _poly_expr(t) for idx, t in lower.items()})
        alpha = alpha + _exterior_derivative(gamma)
    if extra is not None and alpha:
        idx = next(iter(alpha.data))
        alpha = alpha + Form(ch, a, {idx: _NON_POLYNOMIAL[extra] * _COORDS[0]})
    got = _exterior_derivative(alpha)
    expected = _naive_d(alpha)
    assert list(got.data.items()) == list(expected.items())
    assert all(hash(got.data[k]) == hash(v) for k, v in expected.items())


@pytest.mark.parametrize("text, keys", [
    # the two terms of d(x1 dx2 + x2 dx1) cancel: the key is dropped
    ("x1 * d(x2) + x2 * d(x1)", []),
    # both entries lose the generator y1
    ("x1 * y1 * d(x1) / 2 + x2 * y1 * d(x2) / 3", [(0, 2), (1, 2)]),
    # constant coefficients add nothing
    ("3 * d(x1) + x1**2 * y1 / 4 * d(p1_1) - 5 / 6 * d(y1)", [(0, 3), (2, 3)]),
])
def test_d_of_polynomial_edges(text, keys):
    alpha = parse_expression(text, _D_CHART)
    got = _exterior_derivative(alpha)
    assert list(got.data.items()) == list(_naive_d(alpha).items())
    assert list(got.data) == keys


def test_lie_derivative_of_function(chart5):
    x, y = chart5.sym("x1"), chart5.sym("y1")
    f = Form.scalar_form(chart5, x * y**2)
    xv = MultiVector.coord_vector(chart5, "x1") + y * MultiVector.coord_vector(
        chart5, "p1_1"
    )
    assert lie_derivative(xv, f) == contract(xv, d(f))


def test_lie_derivative_dp_on_liouville(ext2):
    # L_{d/dp} Theta = d^n x on the extended chart
    ch = ext2.chart
    vol = volume_contraction(ch, [])
    theta = Form.scalar_form(ch, ch.sym("p")) * vol
    for mu in (1, 2):
        theta = theta + Form.scalar_form(ch, ch.sym(f"p{mu}_1")) * wedge(
            Form.d_coord(ch, "y1"), volume_contraction(ch, [mu - 1])
        )
    pv = MultiVector.coord_vector(ch, "p")
    assert lie_derivative(pv, theta) == vol


def test_lie_derivative_degree2_matches_definition(chart5):
    rng = random.Random(2)
    u = wedge(
        MultiVector.coord_vector(chart5, "x1"),
        chart5.sym("y1") * MultiVector.coord_vector(chart5, "p1_1"),
    )
    data = {
        idx: sympy.Integer(rng.randint(-2, 2)) * chart5.sym("x2")
        for idx in combinations(range(5), 3)
    }
    alpha = Form(chart5, 3, data)

    # oracle: the defining formula evaluated with the naive contraction
    def naive_iota(form):
        out = Form.zero(chart5, form.degree - u.degree)
        for vidx, c in u.data.items():
            inner = naive_contract(form.data, form.degree, vidx)
            out = out + c * Form(chart5, form.degree - u.degree, inner)
        return out

    first = exterior_derivative(naive_iota(alpha))
    second = naive_iota(exterior_derivative(alpha))
    assert lie_derivative(u, alpha) == first - second  # p = 2 even


def test_schouten_vector_fields_jacobian(chart5):
    x, y = chart5.sym("x1"), chart5.sym("y1")
    xv = x * y * MultiVector.coord_vector(chart5, "x2")
    yv = y * MultiVector.coord_vector(chart5, "x1")
    lhs = schouten(xv, yv)
    # [f X, g Y] with X, Y coordinate fields
    expected = naive_schouten(xv.data, 1, yv.data, 1, chart5.syms)
    assert lhs.data == expected


def test_schouten_golden_leibniz(chart5):
    # [d/dy, y d/dx ^ d/dp] = d/dx ^ d/dp
    xv = MultiVector.coord_vector(chart5, "y1")
    q = chart5.sym("y1") * wedge(
        MultiVector.coord_vector(chart5, "x1"),
        MultiVector.coord_vector(chart5, "p1_1"),
    )
    out = schouten(xv, q)
    assert out == wedge(
        MultiVector.coord_vector(chart5, "x1"),
        MultiVector.coord_vector(chart5, "p1_1"),
    )


def test_schouten_matches_recursive_oracle(chart5):
    rng = random.Random(9)
    for p, q in ((1, 2), (2, 1), (2, 2), (1, 3)):
        udata = {
            idx: rng.randint(-2, 2) * chart5.syms[rng.randrange(5)]
            for idx in rng.sample(list(combinations(range(5), p)), 2)
        }
        vdata = {
            idx: rng.randint(-2, 2) * chart5.syms[rng.randrange(5)]
            for idx in rng.sample(list(combinations(range(5), q)), 2)
        }
        u = MultiVector(chart5, p, udata)
        v = MultiVector(chart5, q, vdata)
        expected = naive_schouten(u.data, p, v.data, q, chart5.syms)
        assert schouten(u, v).data == expected


def test_schouten_graded_skew(chart5):
    rng = random.Random(13)
    for p, q in ((1, 2), (2, 2), (2, 3)):
        u = MultiVector(
            chart5, p,
            {idx: rng.randint(-2, 2) * chart5.syms[rng.randrange(5)]
             for idx in rng.sample(list(combinations(range(5), p)), 2)},
        )
        v = MultiVector(
            chart5, q,
            {idx: rng.randint(-2, 2) * chart5.syms[rng.randrange(5)]
             for idx in rng.sample(list(combinations(range(5), q)), 2)},
        )
        sign = (-1) ** ((p - 1) * (q - 1))
        assert schouten(u, v) == (-sign) * schouten(v, u)


def test_poincare_primitive_basic(chart5):
    alpha = wedge(Form.d_coord(chart5, "x1"), Form.d_coord(chart5, "x2"))
    beta = poincare_primitive(alpha)
    assert exterior_derivative(beta) == alpha
    assert poincare_primitive(Form.zero(chart5, 2)).is_zero()


def test_poincare_primitive_random_closed(chart5):
    chart = Chart(base=["x1", "x2", "x3", "x4"], fiber=[])
    rng = random.Random(21)
    for _ in range(6):
        data = {
            idx: rng.randint(-3, 3) * chart.syms[rng.randrange(4)] ** rng.randint(0, 2)
            for idx in rng.sample(list(combinations(range(4), 1)), 3)
        }
        gamma = Form(chart, 1, data)
        alpha = exterior_derivative(gamma)  # closed 2-form
        beta = poincare_primitive(alpha)
        assert exterior_derivative(beta) == alpha


def test_poincare_primitive_rejects_open(chart5):
    x_form = Form.scalar_form(chart5, chart5.sym("y1"))
    alpha = wedge(exterior_derivative(x_form), Form.d_coord(chart5, "x1"))
    alpha = alpha + wedge(Form.d_coord(chart5, "x1"), Form.d_coord(chart5, "x2"))
    bad = Form(chart5, 2, {(0, 1): chart5.sym("y1")})
    with pytest.raises(NotClosedError):
        poincare_primitive(bad)


def test_poincare_primitive_rejects_non_polynomial():
    ch = own_chart5()
    ch.declare_function("G")
    bad = Form(ch, 1, {(0,): sympy.Symbol("G")})
    with pytest.raises((NonPolynomialError, NotClosedError)):
        poincare_primitive(bad)


def _polynomial_terms(data, chart, keys):
    """A coefficient dict on ``keys`` whose terms are non-constant
    monomials of degree 1 or 2 in the chart's coordinates with small
    integer coefficients."""
    terms = data.draw(hst.lists(
        hst.tuples(hst.sampled_from(keys), hst.sampled_from([-2, -1, 1, 3]),
                   hst.lists(hst.sampled_from(chart.syms), min_size=1, max_size=2)),
        min_size=1, max_size=3))
    coefficients = {}
    for key, c, factors in terms:
        for x in factors:
            c = c * x
        coefficients[key] = coefficients.get(key, 0) + c
    return coefficients


@settings(max_examples=30, deadline=None)
@given(data=hst.data())
def test_schouten_matches_the_recursive_oracle_on_polynomials(chart5, data):
    # both operands have polynomial coefficients, so both Grassmann
    # derivative terms of the odd-cotangent formula take part
    p, q = data.draw(hst.integers(1, 3)), data.draw(hst.integers(1, 3))
    u = MultiVector(chart5, p, _polynomial_terms(data, chart5, list(combinations(range(5), p))))
    v = MultiVector(chart5, q, _polynomial_terms(data, chart5, list(combinations(range(5), q))))
    assume(u and v)
    assert schouten(u, v).data == naive_schouten(u.data, p, v.data, q, chart5.syms)


_RADIAL = Chart(base=["x1", "x2", "x3"], fiber=["y1"])


@settings(max_examples=25, deadline=None)
@given(data=hst.data())
def test_poincare_primitive_matches_the_radial_homotopy(data):
    # closed polynomial a-forms, a = 1..3, as d of a polynomial form on
    # four coordinates; the primitive's exact values against the oracle
    degree = data.draw(hst.integers(0, 2))
    keys = list(combinations(range(4), degree))
    coefficients = {}
    for key, c, exps in data.draw(hst.lists(
            hst.tuples(hst.sampled_from(keys), hst.integers(-3, 3),
                       hst.tuples(*[hst.integers(0, 2)] * 4)),
            min_size=1, max_size=3)):
        for x, e in zip(_RADIAL.syms, exps):
            c = c * x**e
        coefficients[key] = coefficients.get(key, 0) + c
    alpha = exterior_derivative(Form(_RADIAL, degree, coefficients))
    beta = poincare_primitive(alpha)
    assert beta.data == naive_poincare_primitive(alpha.data, alpha.degree, _RADIAL.coords)
    assert exterior_derivative(beta) == alpha


def test_schouten_and_the_primitive_take_no_all_pairs_contraction(chart5, monkeypatch):
    # the Grassmann derivatives of ``schouten`` and the Euler contraction
    # of ``poincare_primitive`` come from one pass over the keys
    # (``forms._coordinate_contractions``), not from an all-pairs
    # ``_bilinear`` with ``_contract_by_pair``
    from gradira import calculus, forms

    pairs = []
    real = forms._bilinear

    def counting(xdata, ydata, pair):
        pairs.append(pair)
        return real(xdata, ydata, pair)

    for module in (forms, calculus):
        monkeypatch.setattr(module, "_bilinear", counting)
    x1, x2, y1 = chart5.syms[:3]
    u = MultiVector(chart5, 2, {(0, 2): x1 * y1, (1, 3): y1})
    v = MultiVector(chart5, 1, {(2,): x1**2, (4,): x2 * y1})
    assert schouten(u, v) and schouten(v, u)
    assert poincare_primitive(exterior_derivative(Form(chart5, 1, {(0,): x2 * y1})))
    assert forms._contract_by_pair not in pairs
