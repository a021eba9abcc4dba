"""The package's own polynomials against sympy's fraction field.

Values are built twice from the same random terms: as Scalars from
generators, through the package's arithmetic, and as elements of one
sympy fraction field over QQ (``naive_field``).  Every operation must
give the value sympy gives, in the one canonical representation: equal
values compare equal and hash alike however they were built, a value
with a constant denominator is never a fraction-field element, and a
constant is an int or a non-integer Fraction.
"""

import pickle
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ, ZZ
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyRing

from gradira import Chart, scalars
from gradira.errors import UndefinedScalarError

from naive import naive_field, naive_field_gradient, naive_field_substitute

CHART = Chart(base=["x1", "x2"], fiber=["y1", "p1_1"])
CHART.declare_function("H", ["x1", "y1", "p1_1"])
# K is not declared, so it is an independent indeterminate
ATOMS = ["x1", "x2", "y1", "p1_1", "H", "H__y1", "K"]
# every generator the gradients of the atoms reach
PARTIALS = ["H__x1", "H__p1_1", "H__x1__y1", "H__y1__y1", "H__p1_1__y1"]
FIELD = naive_field(ATOMS + PARTIALS)
GENS = dict(zip(ATOMS + PARTIALS, FIELD.gens))

_rationals = st.tuples(st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4])).map(
    lambda t: Fraction(*t))
_terms = st.lists(
    st.tuples(_rationals, st.lists(st.tuples(st.sampled_from(ATOMS), st.integers(1, 3)),
                                   max_size=3)),
    max_size=4)


def _build(terms):
    """(Scalar, field element) of sum c * prod(atom**e) over ``terms``."""
    value, el = scalars.ZERO, FIELD.zero
    for c, factors in terms:
        term, eterm = scalars.as_scalar(c), FIELD(sympy.Rational(c.numerator, c.denominator))
        for atom, e in factors:
            term = term * scalars.generator(atom) ** e
            eterm = eterm * GENS[atom] ** e
        value, el = value + term, el + eterm
    return value, el


@st.composite
def values(draw):
    """A polynomial, or now and then a rational function."""
    value, el = _build(draw(_terms))
    if draw(st.integers(0, 4)) == 0:
        den, eden = _build(draw(_terms))
        if eden:
            value, el = value / den, el / eden
    return value, el


def _element(value):
    """A Scalar as an element of FIELD, read off its numerator and
    denominator."""
    v = value.value
    if value.is_rational:
        return FIELD(sympy.Rational(v.numerator, v.denominator))
    names, (numer, denom) = value.generators, scalars.parts(value)
    pos = [ATOMS.index(n) if n in ATOMS else len(ATOMS) + PARTIALS.index(n) for n in names]

    def poly(terms):
        out = {}
        for m, c in terms.items():
            key = [0] * len(FIELD.gens)
            for k, e in zip(pos, m):
                key[k] = e
            out[tuple(key)] = QQ(int(c.numerator), int(c.denominator))
        return FIELD.ring.from_dict(out)

    return FIELD.new(poly(numer), poly(denom))


def assert_same(got, expected):
    """``got`` is the canonical Scalar of the field element ``expected``."""
    assert not _element(got) - expected
    kind = got.value.__class__
    numer, denom = expected.numer, expected.denom
    if not denom.is_ground:
        assert kind not in (int, Fraction, scalars.Poly)
    elif not numer.is_ground:
        assert kind is scalars.Poly
    elif (numer.LC / denom.LC).denominator == 1:
        assert kind is int
    else:
        assert kind is Fraction


@settings(max_examples=150, deadline=None)
@given(values(), values(), values())
def test_arithmetic_matches_the_fraction_field(a, b, c):
    (x, ex), (y, ey), (z, ez) = a, b, c
    for got, expected in [
            (x + y, ex + ey), (x - y, ex - ey), (x * y, ex * ey), (-x, -ex),
            ((x + y) * z, (ex + ey) * ez), (x * y - z, ex * ey - ez),
            (scalars.sadd(x, y), ex + ey), (scalars.smul(y, z), ey * ez),
            (scalars.sneg(z), -ez)]:
        assert_same(got, expected)
    assert x ** 0 == 1
    for k in (1, 2, 3):
        assert_same(x ** k, ex ** k)
    if not ey:
        with pytest.raises(UndefinedScalarError):
            x / y
        return
    for k in (-2, -1):
        assert_same(y ** k, ey ** k)
    assert_same(x / y, ex / ey)
    assert_same(scalars.sdiv(z, y), ez / ey)


@settings(max_examples=150, deadline=None)
@given(values(), values())
def test_equality_and_hash_follow_the_value(a, b):
    (x, ex), (y, ey) = a, b
    assert (x == y) == (not ex - ey)
    if x == y:
        assert hash(x) == hash(y)
    # one value built in several ways
    built = [x, (x + y) - y, y + x - y, -(-x), x * 1, (x * 2) / 2]
    if y:
        built += [(x * y) / y, x / y * y]
    for other in built:
        assert other == x and hash(other) == hash(x)
    assert x * y == y * x and hash(x * y) == hash(y * x)


@settings(max_examples=120, deadline=None)
@given(values())
def test_gradient_matches_the_fraction_field(a):
    x, ex = a
    grad = scalars.diff(x, CHART)
    expected = naive_field_gradient(ex, CHART.coords, CHART.functions)
    assert list(grad) == sorted(expected)
    for i, entry in grad.items():
        assert_same(entry, expected[i])


@settings(max_examples=100, deadline=None)
@given(values(), values(), values())
def test_substitute_matches_the_fraction_field(a, b, c):
    (x, ex), (y, ey), (z, ez) = a, b, c
    images = {"x1": y, "p1_1": z}
    expected = {"x1": ey, "p1_1": ez}
    if not naive_field_substitute(FIELD.new(ex.denom), expected):
        with pytest.raises(UndefinedScalarError):
            scalars.substitute(x, images)
        return
    assert_same(scalars.substitute(x, images), naive_field_substitute(ex, expected))


@settings(max_examples=150, deadline=None)
@given(values(), values())
def test_pickle_keeps_the_value_and_frac_meets_its_invariant(a, b):
    (x, _), (y, _) = a, b
    for value in [x, y, x + y, x * y] + ([x / y] if y else []):
        loaded = pickle.loads(pickle.dumps(value))
        assert loaded == value and hash(loaded) == hash(value)
        assert loaded.value.__class__ is value.value.__class__
        v = value.value
        if v.__class__ is not scalars.Frac:
            continue
        ring = PolyRing([sympy.Symbol(g) for g in v.gens], ZZ, lex)
        # coprime in Z[gens], integer content included
        assert ring(v.num).gcd(ring(v.den)) == 1
        assert not ring(v.den).is_ground and v.den[max(v.den)] > 0
        assert all(map(any, zip(*v.num, *v.den)))
        assert all(c.__class__ is int for c in [*v.num.values(), *v.den.values()])


# generator names of every shape: the letter ranks of sympy's order, a
# trailing integer or none, several numbers in one name, formal partials
_names = st.one_of(
    st.sampled_from(["A10_1", "A1_10", "A2_1", "pt12_3", "pt3_12", "pt12_10", "H__x1__y1",
                     "H__y1", "H", "x10", "x9", "x01", "x1", "p1_1", "p", "q", "w", "a",
                     "o", "y", "z", "X1", "_1", "K"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(_names, unique=True, max_size=10))
def test_generator_order_is_sympys(names):
    expected = tuple(str(s) for s in _sort_gens(sorted(map(sympy.Symbol, names), key=str)))
    assert scalars.canonical(names) == expected
    assert scalars.canonical(reversed(names)) == expected
