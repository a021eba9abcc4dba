import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyElement

from gradira import Chart, Form, Section
from gradira import scalars
from gradira.calculus import exterior_derivative
from gradira.errors import UndefinedScalarError
from gradira.sampling import random_hamiltonian_form

from naive import is_zero_expr, naive_gradient


def make_chart():
    ch = Chart(base=["x1", "x2"], fiber=["y1"])
    ch.declare_function("H", ["x1", "y1"])
    return ch


def test_cancellation_is_canonical():
    ch = make_chart()
    x = ch.sym("x1")
    assert scalars.as_scalar(x / x) == 1
    a = scalars.as_scalar((x**2 - 1) / (x - 1))
    assert a == scalars.as_scalar(x + 1)


def test_equality_through_normal_form():
    ch = make_chart()
    x, y = ch.sym("x1"), ch.sym("y1")
    lhs = scalars.as_scalar((x + y) ** 2 - (x**2 + 2 * x * y + y**2))
    assert lhs == 0


def test_formal_function_derivative():
    ch = make_chart()
    x1, y1 = ch.index("x1"), ch.index("y1")
    h = sympy.Symbol("H")
    d = scalars.diff(h, ch)[y1]
    assert d == sympy.Symbol("H__y1")
    # mixed partials commute through the sorted canonical name
    d2 = scalars.diff(d, ch)[x1]
    d2b = scalars.diff(scalars.diff(h, ch)[x1], ch)[y1]
    assert d2 == d2b == sympy.Symbol("H__x1__y1")


def test_derivative_does_not_depend_on_undeclared_argument():
    ch = make_chart()
    h = sympy.Symbol("H")  # declared on (x1, y1) only
    assert scalars.diff(h, ch).get(ch.index("x2"), 0) == 0
    assert list(scalars.diff(h, ch)) == [ch.index("x1"), ch.index("y1")]


def test_product_rule_with_coordinates():
    ch = make_chart()
    x = ch.sym("x1")
    h = sympy.Symbol("H")
    d = scalars.diff(x * h, ch)[ch.index("x1")]
    assert d == scalars.as_scalar(h + x * sympy.Symbol("H__x1"))


def test_is_polynomial():
    ch = make_chart()
    x = ch.sym("x1")
    assert scalars.is_polynomial(x**3 / 2 + 1, ch)
    assert not scalars.is_polynomial(1 / x, ch)
    assert not scalars.is_polynomial(sympy.Symbol("H"), ch)


def _gradient_chart():
    ch = Chart(base=["x1", "x2"], fiber=["y1", "p1_1"])
    ch.declare_function("H", ["x1", "y1", "p1_1"])
    ch.declare_function("G", ["x1", "x2"])
    return ch


_CHART = _gradient_chart()
# a section's base chart: H keeps its fiber arguments, which are not
# coordinates there, and the fiber coordinates become functions of x
_BASE_CHART = Section(_CHART).base_chart
_ATOMS = [sympy.Symbol(name) for name in (
    "x1", "x2", "y1", "p1_1", "H", "G", "H__y1", "H__p1_1__x1",
    "G__x1__x2", "H__p1_1__p1_1__y1", "y1__x2", "K")]

_terms = st.lists(
    st.tuples(st.integers(-3, 3),
              st.lists(st.tuples(st.sampled_from(_ATOMS), st.integers(1, 3)),
                       max_size=3)),
    min_size=1, max_size=4)


def _poly(terms):
    return sum((c * sympy.Mul(*(a**e for a, e in factors))
                for c, factors in terms), sympy.Integer(0))


@settings(max_examples=60, deadline=None)
@given(_terms, st.one_of(st.none(), _terms), st.booleans())
def test_gradient_matches_naive_chain_rule(num, den, on_base):
    ch = _BASE_CHART if on_base else _CHART
    expr = _poly(num)
    if den is not None and _poly(den) != 0:
        expr = expr / _poly(den)
    expr = scalars.as_scalar(expr)
    grad = scalars.diff(expr, ch)
    assert list(grad) == sorted(grad)
    naive = naive_gradient(expr, ch.coords, ch.functions)
    assert grad.keys() == naive.keys()
    assert all(is_zero_expr(naive[i] - grad[i].as_expr()) for i in grad)
    # the canonical representation, not just the value: the field of
    # exactly the entry's own generators, its content cancelled
    for i in grad:
        expected = scalars.as_scalar(naive[i])
        assert grad[i] == expected and hash(grad[i]) == hash(expected)


def _count_poly_diff(monkeypatch):
    """A list that gets one entry per ``PolyElement.diff`` call."""
    calls = []
    real = PolyElement.diff

    def counting(poly, x):
        calls.append(x)
        return real(poly, x)

    monkeypatch.setattr(PolyElement, "diff", counting)
    return calls


def _assert_naive_gradient(value, ch):
    grad = scalars.diff(value, ch)
    naive = naive_gradient(scalars.as_scalar(value), ch.coords, ch.functions)
    assert grad.keys() == naive.keys()
    for i in grad:
        expected = scalars.as_scalar(naive[i])
        assert grad[i] == expected and hash(grad[i]) == hash(expected)
    return grad


@pytest.mark.parametrize("value, coord, expected", [
    ("3*x1**2/2", "x1", "3*x1"),  # the content cancels the denominator
    ("3*x1**2/4", "x1", "3*x1/2"),  # ... or part of it
    ("x1**2*y1/2 + x2", "y1", "x1**2/2"),  # the entry loses generators
    ("x1**2*y1/2 + x2", "x2", "1"),  # ... or is a constant
    ("H*H__y1", "y1", "H__y1**2 + H*H__y1__y1"),  # the partial is a generator
    ("H__x1**2/2 - H*H__x1__x1", "x1", "-H*H__x1__x1__x1"),  # chain terms cancel
])
def test_gradient_of_a_polynomial_edge(monkeypatch, value, coord, expected):
    ch = _gradient_chart()
    calls = _count_poly_diff(monkeypatch)
    grad = _assert_naive_gradient(value, ch)
    entry = grad[ch.index(coord)]
    assert entry == scalars.as_scalar(expected)
    assert entry.is_rational == (expected == "1")
    assert calls == []


@pytest.mark.parametrize("value, chain_rule", [
    ("x1*y1*z1**2/3", False),  # coordinates only: the slopes are the entries
    ("x1*y1*z1*H", True),
    ("x1*y1/(1 + z1)", True),
])
def test_gradient_comes_in_coordinate_order(monkeypatch, value, chain_rule):
    # coordinates listed against the canonical generator order x < y < z
    ch = Chart(base=["z1", "x1"], fiber=["y1"])
    ch.declare_function("H", ["z1"])
    calls = []
    real = scalars._chains

    def counting(gens, chart):
        calls.append(gens)
        return real(gens, chart)

    monkeypatch.setattr(scalars, "_chains", counting)
    assert list(_assert_naive_gradient(value, ch)) == [0, 1, 2]
    assert len(calls) == chain_rule


def test_gradient_of_a_rational_function_takes_the_quotient_rule(monkeypatch):
    ch = _gradient_chart()
    calls = _count_poly_diff(monkeypatch)
    grad = _assert_naive_gradient("x1*H/(1 + y1)", ch)
    assert grad[ch.index("y1")] == scalars.as_scalar("x1*(H__y1*(1 + y1) - H)/(1 + y1)**2")
    # the quotient rule works on the term dicts of num and den
    assert calls == []


def test_d_of_polynomial_forms_differentiates_no_polynomial(red2, monkeypatch):
    """The gradients of polynomial coefficients come from their term dicts:
    d on random Hamiltonian forms makes no ``PolyElement.diff`` call."""
    rng = random.Random(5)
    forms = [random_hamiltonian_form(rng, red2) for _ in range(20)]
    grads = []
    real = scalars.diff

    def counting(value, chart):
        grads.append(value)
        return real(value, chart)

    monkeypatch.setattr(scalars, "diff", counting)
    calls = _count_poly_diff(monkeypatch)
    for alpha in forms:
        exterior_derivative(alpha)
    assert sum(not c.is_rational for c in grads) > 20
    assert calls == []


def _built_in_reverse(terms):
    """The value of _poly(terms) built from Scalars, meeting the terms and
    the factors of each term in reverse order."""
    acc = scalars.ZERO
    for c, factors in reversed(terms):
        term = scalars.as_scalar(c)
        for a, e in reversed(factors):
            term = term * scalars.as_scalar(a) ** e
        acc = acc + term
    return acc


@settings(max_examples=80, deadline=None)
@given(_terms, st.one_of(st.none(), _terms), st.booleans())
def test_canonical_form_prints_as_cancel_and_ignores_history(num, den, on_base):
    ch = _BASE_CHART if on_base else _CHART
    expr = _poly(num)
    built = _built_in_reverse(num)
    if den is not None and _poly(den) != 0:
        expr = expr / _poly(den)
        built = built / _built_in_reverse(den)
    value = scalars.as_scalar(expr)
    assert str(sympy.sympify(value)) == str(sympy.cancel(expr))
    assert value == scalars.as_scalar(sympy.cancel(expr))
    assert built == value and hash(built) == hash(value)
    assert scalars.diff(built, ch) == scalars.diff(value, ch)


def test_sign_is_canonical_across_generator_order():
    z, a = sympy.symbols("z a")
    value = scalars.as_scalar(1 / (z - a))
    assert value == -scalars.as_scalar(1 / (a - z))
    assert str(sympy.sympify(value)) == str(sympy.cancel(1 / (z - a)))


def test_constant_results_are_rational():
    ch = make_chart()
    x, h = scalars.as_scalar(ch.sym("x1")), scalars.as_scalar("H")
    assert (x * h / (h * x)).is_rational
    assert (x + h - x - h).is_rational and not x + h - x - h
    assert (x + h - x).free_symbols == {sympy.Symbol("H")}


def test_division_by_zero_is_undefined():
    ch = make_chart()
    x = ch.sym("x1")
    zero = scalars.as_scalar(x) - x
    for numerator, denominator in ((x, 0), (x, x - x), (1, zero), (zero, zero)):
        with pytest.raises(UndefinedScalarError):
            scalars.sdiv(numerator, denominator)
    with pytest.raises(UndefinedScalarError):
        scalars.as_scalar(x) / zero
    with pytest.raises(UndefinedScalarError):
        zero ** -1
    with pytest.raises(UndefinedScalarError):
        Form.d_coord(ch, "x1") / (x - x)
    with pytest.raises(UndefinedScalarError):
        Form.d_coord(ch, "x1") / zero


# Integers are held as Python ints, other constants as Fractions and
# everything else as polynomials or field elements: random triples of the
# three kinds against sympy's own arithmetic, cancelled.
_X1, _Y1, _H = sympy.symbols("x1 y1 H")
_MONOMIALS = [sympy.Integer(1), _X1, _Y1, _H, _X1 * _Y1, _Y1**2, _X1 * _H]
_ints = st.integers(-6, 6).map(sympy.Integer)
_fractions = st.tuples(st.integers(-9, 9), st.integers(2, 6)).filter(
    lambda t: t[0] % t[1]).map(lambda t: sympy.Rational(*t))
_polynomials = st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(_MONOMIALS)),
                        min_size=1, max_size=3).map(
    lambda terms: sympy.Add(*(c * m for c, m in terms)))


@st.composite
def _field_elements(draw):
    numer, denom = draw(_polynomials), draw(st.one_of(st.just(1), _polynomials))
    expr = sympy.cancel(numer / denom) if denom != 0 else numer
    if not expr.free_symbols:
        expr = expr + _X1
    return expr


_values = st.one_of(_ints, _fractions, _field_elements())


def _number(expr):
    """The Python number of a constant expression, else its Scalar."""
    if expr.is_Integer:
        return int(expr)
    if expr.is_Rational:
        return Fraction(expr.p, expr.q)
    return scalars.as_scalar(expr)


def _assert_canonical(got, expected):
    """``got`` is the canonical Scalar of ``expected``, held as an int when
    it is an integer and never as an integer-valued Fraction."""
    reference = sympy.cancel(expected)
    assert got.as_expr() == reference
    assert str(got) == str(reference)
    value = got.value
    if reference.is_Integer:
        assert value.__class__ is int
    elif reference.is_Rational:
        assert value.__class__ is Fraction and value.denominator != 1
    else:
        assert value.__class__ not in (int, Fraction)
    assert got == scalars.as_scalar(reference) and hash(got) == hash(scalars.as_scalar(reference))


@settings(max_examples=150, deadline=None)
@given(_values, _values, _values)
def test_arithmetic_matches_cancelled_sympy_arithmetic(ea, eb, ec):
    a, b, c = map(scalars.as_scalar, (ea, eb, ec))
    for got, expected in [
            (a + b, ea + eb), (a - b, ea - eb), (a * b, ea * eb), (-a, -ea),
            ((a + b) * c, (ea + eb) * ec), (a * b - c, ea * eb - ec),
            (a - a, sympy.Integer(0)), (a + _number(eb), ea + eb),
            (_number(ea) * b, ea * eb), (_number(ea) - b, ea - eb),
            (scalars.sadd(a, b), ea + eb), (scalars.smul(b, c), eb * ec)]:
        _assert_canonical(got, expected)
    for x, ex, y, ey in [(a, ea, b, eb), (b, eb, c, ec), (a + b, ea + eb, c, ec)]:
        if sympy.cancel(ey) == 0:
            with pytest.raises(UndefinedScalarError):
                x / y
            with pytest.raises(UndefinedScalarError):
                y ** -1
            continue
        _assert_canonical(x / y, ex / ey)
        _assert_canonical(_number(ex) / y, ex / ey)
        _assert_canonical(scalars.sdiv(x, y), ex / ey)
        for k in (-3, -1, 0, 1, 2):
            _assert_canonical(y ** k, ey ** k)
    # accumulate: a nonzero first term kept as it is, a zero one dropped,
    # then a sum, which drops the key when it cancels
    data = {}
    scalars.accumulate(data, 0, a)
    assert data == ({0: a} if a else {}) and (not a or data[0] is a)
    scalars.accumulate(data, 0, b, -1)
    assert data == ({0: a - b} if a - b else {})
    if data:
        _assert_canonical(data[0], ea - eb)


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 12))
def test_one_number_is_one_scalar_however_entered(p, q):
    entered = [Fraction(p, q), QQ(p, q), sympy.Rational(p, q), f"{p}/{q}"]
    if p % q == 0:
        entered.append(p // q)
    values = [scalars.as_scalar(v) for v in entered]
    expected = sympy.Rational(p, q)
    for v in values:
        _assert_canonical(v, expected)
        assert v == values[0] and hash(v) == hash(values[0])
        assert all(v == w for w in entered if not isinstance(w, str))
    assert len(set(values)) == 1


@settings(max_examples=60, deadline=None)
@given(_values)
def test_pickle_round_trip_keeps_the_representation(expr):
    value = scalars.as_scalar(expr)
    back = pickle.loads(pickle.dumps(value))
    assert back == value and hash(back) == hash(value)
    assert back.value.__class__ is value.value.__class__
    _assert_canonical(back, expr)


def test_division_by_a_zero_int_is_undefined():
    x = scalars.as_scalar(sympy.Symbol("x1"))
    for numerator in (scalars.ONE, scalars.as_scalar(3), scalars.as_scalar("1/2"), x,
                      scalars.ZERO):
        for zero in (0, scalars.ZERO, Fraction(0), sympy.Integer(0)):
            with pytest.raises(UndefinedScalarError):
                numerator / zero
            with pytest.raises(UndefinedScalarError):
                scalars.sdiv(numerator, zero)
    with pytest.raises(UndefinedScalarError):
        scalars.ZERO ** -2
    assert scalars.ZERO.value.__class__ is int and scalars.ONE.value.__class__ is int
