"""Rational functions in the scalar field, and its sympy boundary.

``scalars`` imports this module, and with it sympy, on first use only:
when a value with a non-constant denominator is made, and when a value
crosses into or out of sympy (``as_scalar`` of a sympy expression, a
string or a ``QQ`` rational; ``as_expr``; ``free_symbols``).

A rational function is an element of a ``sympy.polys`` fraction field
whose generators are the symbols of exactly the names it uses, in the
canonical order (``scalars.canonical``).  Such an element is a ratio of
coprime polynomials whose denominator has a positive leading
coefficient, so it is its own normal form and no operation here calls
``sympy.cancel``.  Operands over different generators are lifted to the
field of the union first, and every result is reduced by ``normal`` to
the smallest representation: a constant, a ``Poly`` when its
denominator is constant, else an element over exactly the generators it
uses.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import sympy
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField

from .errors import UndefinedScalarError
from .scalars import (_CONSTANTS, GENERATORS, ZERO, Poly, _from_terms, _rational, _wrap,
                      canonical, generator)

_QQ = type(QQ.one)


# Building a sympy field compiles its monomial operations, so each field is
# built once per process.  A cache: every element lives in the field of
# exactly its own generators, whichever fields were built before.
_FIELDS = {}  # canonical names -> FracField over QQ
_NAMES = {}  # FracField -> its canonical names


def field(names):
    out = _FIELDS.get(names)
    if out is None:
        out = _FIELDS[names] = FracField([sympy.Symbol(n) for n in names], QQ)
        _NAMES[out] = names
    return out


def names(home):
    return _NAMES[home]


def _union(fa, fb):
    """The field of the joint generators and the monomial maps to it."""
    joint, ma, mb = GENERATORS.union(_NAMES[fa], _NAMES[fb])
    return field(joint), ma, mb


def symbols(names):
    return {sympy.Symbol(n) for n in names}


def is_operand(value):
    """True for a sympy expression or a ``QQ`` rational."""
    return isinstance(value, (sympy.Basic, _QQ))


def _move(el, home, mono):
    """``el`` as an element of the field ``home``; coprimality and the sign
    of the denominator's leading coefficient survive re-indexing, so no
    cancel."""
    if mono is None:
        return el
    new = home.ring.dtype
    return home.dtype(new({mono(m): c for m, c in el.numer.items()}),
                       new({mono(m): c for m, c in el.denom.items()}))


def _field_of(v):
    """The field of a Poly or field element, None for a constant."""
    if v.__class__ is Poly:
        return field(v.gens)
    return None if v.__class__ in _CONSTANTS else v.field


def _element(v, home, mono):
    """A Poly or field element as an element of the field ``home``, a
    constant as a ``QQ``."""
    cls = v.__class__
    if cls in _CONSTANTS:
        return QQ(v.numerator, v.denominator)
    if cls is not Poly:
        return _move(v, home, mono)
    terms = v.terms if mono is None else {mono(m): c for m, c in v.terms.items()}
    return home.dtype(home.ring.dtype({m: QQ(c) for m, c in terms.items()}),
                      home.ring.ground_new(QQ(v.den)))


def _pair(x, y):
    """Two values, not both constant, as operands of one fraction field."""
    fx, fy = _field_of(x), _field_of(y)
    if fx is None or fy is None or fx is fy:
        home = fx or fy
        return _element(x, home, None), _element(y, home, None)
    joint, mx, my = _union(fx, fy)
    return _element(x, joint, mx), _element(y, joint, my)


def _fraction(q):
    return Fraction(int(q.numerator), int(q.denominator))


def normal(el):
    """The Scalar of a canonical field element: a constant or a ``Poly``
    when its denominator is constant, else over exactly the generators it
    uses."""
    numer, denom = el.numer, el.denom
    if not numer:
        return ZERO
    if denom.is_ground:
        d = _fraction(denom.LC)
        coeffs = {m: _fraction(c) / d for m, c in numer.items()}
        lcm = 1
        for c in coeffs.values():
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        return _from_terms(_NAMES[el.field],
                           {m: int(c * lcm) for m, c in coeffs.items()}, lcm)
    mask = tuple(map(any, zip(*numer, *denom)))
    if all(mask):
        return _wrap(el)
    kept, mono = GENERATORS.restriction(_NAMES[el.field], mask)
    return _wrap(_move(el, field(kept), mono))


def _inverse(el):
    numer, denom = el.numer, el.denom
    if numer.LC < 0:
        numer, denom = -numer, -denom
    return el.field.dtype(denom, numer)


def add(x, y):
    a, b = _pair(x, y)
    return normal(a + b)


def mul(x, y):
    a, b = _pair(x, y)
    return normal(a * b)


def div(x, y):
    """x / y for a nonzero y that is not constant."""
    a, b = _pair(x, y)
    return normal(a * _inverse(b))


def power(v, exponent):
    """v**exponent for a non-constant v and a nonzero exponent."""
    el = _element(v, _field_of(v), None)
    if exponent < 0:
        el, exponent = _inverse(el), -exponent
    return normal(el.field.dtype(_power(el.numer, exponent), _power(el.denom, exponent)))


def _power(poly, exponent):
    """poly**exponent as a fresh polynomial.  sympy squares in place and
    hashes the square half-built (``imul_num`` looks it up in a set), so
    its result keeps a stale cached hash; the copy has none yet."""
    return (poly**exponent).copy()


def parts(el):
    """The numerator and denominator of a field element as term dicts
    {monomial: Fraction}."""
    return tuple({m: _fraction(c) for m, c in p.items()} for p in (el.numer, el.denom))


def gradient(el, chains):
    """The gradient of a field element, for the chains of
    ``scalars._chains``: each entry one numerator over the denominator
    squared, reduced once."""
    partials = {p for chain in chains.values() for _, p in chain if p is not None}
    if partials:
        joint, mono, _ = _union(el.field, field(canonical(partials)))
        el = _move(el, joint, mono)
    ring = el.field.ring
    gen = dict(zip(_NAMES[el.field], ring.gens))
    numer, denom = el.numer, el.denom
    quotients = {}  # generator -> numerator of d(value)/d(generator)
    grad = {}
    for i in sorted(chains):
        acc = ring.zero
        for name, partial in chains[i]:
            q = quotients.get(name)
            if q is None:
                g = gen[name]
                q = quotients[name] = numer.diff(g) * denom - numer * denom.diff(g)
            acc = acc + (q if partial is None else q * gen[partial])
        entry = normal(el.field.new(acc, denom**2))
        if entry:
            grad[i] = entry
    return grad


def as_expr(v):
    """The canonical sympy expression of a Scalar's value."""
    cls = v.__class__
    if cls is int:
        return sympy.Integer(v)
    if cls is Fraction:
        return sympy.Rational(v.numerator, v.denominator)
    return _element(v, _field_of(v), None).as_expr()


# Values outside the coefficient field: division by zero produces them.
_UNDEFINED = (sympy.S.ComplexInfinity, sympy.S.NaN, sympy.S.Infinity,
              sympy.S.NegativeInfinity)


def from_sympy(value):
    """The Scalar of a ``QQ`` rational, a string or a sympy expression."""
    if isinstance(value, _QQ):
        return _wrap(_rational(int(value.numerator), int(value.denominator)))
    expr = value if isinstance(value, sympy.Basic) else sympy.sympify(value, rational=True)
    if isinstance(expr, sympy.Expr):
        if expr.is_Rational:
            return _wrap(_rational(int(expr.p), int(expr.q)))
        if expr.is_Symbol:
            return generator(expr.name)
        if expr.free_symbols and not expr.has(*_UNDEFINED):
            out = _from_expr(expr)
            if out is not None:
                return out
    raise UndefinedScalarError(f"{expr} is not an element of the scalar field")


def _from_expr(expr):
    """The Scalar of a rational function expression, None if it is not one."""
    home = field(canonical(str(s) for s in expr.free_symbols))
    try:
        el = home.from_expr(expr)
    except (ValueError, ZeroDivisionError):
        return None
    # from_expr leaves the sign of the denominator as it was built
    return normal(home.new(el.numer, el.denom))
