"""Rational functions in the scalar field, and its sympy boundary.

``scalars`` imports this module, and with it sympy, on first use only:
when a value with a non-constant denominator is made or differentiated,
and when a value crosses into or out of sympy (``as_scalar`` of a sympy
expression, a string or a ``QQ`` rational; ``as_expr``; ``free_symbols``).

A rational function is a ``scalars.Frac``: coprime int term dicts over
exactly the generators it uses, the denominator not constant and with a
positive lex leading coefficient.  Arithmetic is the polynomial term-dict
arithmetic of ``scalars`` on numerators and denominators over the joint
generators; ``reduce`` cancels the result, and only that gcd comes from
sympy (``PolyElement.cofactors`` over ZZ).  A ``Frac`` is the form
``PolyElement.cancel`` gives over ZZ, so its sympy expression is the one
``sympy.cancel`` prints.
"""

from __future__ import annotations

import functools
import operator

import sympy
from sympy.polys.domains import QQ, ZZ
from sympy.polys.orderings import lex
from sympy.polys.polyerrors import CoercionFailed
from sympy.polys.rings import PolyRing

from .errors import UndefinedScalarError
from .scalars import (_CONSTANTS, GENERATORS, ZERO, Frac, _from_terms, _parts, _rational,
                      _reindexed, _wrap, add_terms, generator, mul_terms, power_terms)

_QQ = type(QQ.one)


@functools.cache
def _ring(gens):
    """The ZZ polynomial ring over the generator names ``gens``."""
    return PolyRing([sympy.Symbol(n) for n in gens], ZZ, lex)


def symbols(names):
    return {sympy.Symbol(n) for n in names}


def is_operand(value):
    """True for a sympy expression or a ``QQ`` rational."""
    return isinstance(value, (sympy.Basic, _QQ))


def _is_constant(terms):
    return len(terms) == 1 and not any(next(iter(terms)))


def reduce(gens, num, den):
    """The Scalar of num/den for int term dicts over ``gens``, den nonzero:
    cancelled by their gcd, the sign on the denominator's leading
    coefficient, over exactly the generators it uses."""
    if not num:
        return ZERO
    if not _is_constant(den):
        ring = _ring(gens)
        _, p, q = ring(num).cofactors(ring(den))
        num = {m: int(c) for m, c in p.items()}
        den = {m: int(c) for m, c in q.items()}
    return _coprime(gens, num, den)


def _coprime(gens, num, den):
    """The Scalar of num/den for coprime int term dicts over ``gens``."""
    if den[max(den)] < 0:
        num = {m: -c for m, c in num.items()}
        den = {m: -c for m, c in den.items()}
    if _is_constant(den):
        return _from_terms(gens, num, next(iter(den.values())))
    mask = tuple(map(any, zip(*num, *den)))
    if not all(mask):
        gens, mono = GENERATORS.restriction(gens, mask)
        num, den = _reindexed(num, mono), _reindexed(den, mono)
    return _wrap(Frac(gens, num, den))


def _pair(x, y):
    """The numerators and denominators of two values over their joint
    generators."""
    gens, mx, my = GENERATORS.union(getattr(x, "gens", ()), getattr(y, "gens", ()))
    (nx, dx), (ny, dy) = _parts(x), _parts(y)
    return gens, _reindexed(nx, mx), _reindexed(dx, mx), _reindexed(ny, my), _reindexed(dy, my)


def add(x, y):
    gens, nx, dx, ny, dy = _pair(x, y)
    same = dx == dy
    num = dict(nx) if same else mul_terms(nx, dy)
    add_terms(num, ny if same else mul_terms(ny, dx))
    return reduce(gens, num, dx if same else mul_terms(dx, dy))


def mul(x, y):
    gens, nx, dx, ny, dy = _pair(x, y)
    return reduce(gens, mul_terms(nx, ny), mul_terms(dx, dy))


def div(x, y):
    """x / y for a nonzero y that is not constant."""
    gens, nx, dx, ny, dy = _pair(x, y)
    return reduce(gens, mul_terms(nx, dy), mul_terms(dx, ny))


def power(v, exponent):
    """v**exponent for a non-constant v and a nonzero exponent: powers of
    coprime polynomials are coprime, so nothing cancels."""
    num, den = _parts(v)
    if exponent < 0:
        num, den, exponent = den, num, -exponent
    return _coprime(v.gens, power_terms(num, exponent), power_terms(den, exponent))


def as_expr(v):
    """The canonical sympy expression of a Scalar's value."""
    if v.__class__ in _CONSTANTS:
        return sympy.Rational(v.numerator, v.denominator)
    num, den = _parts(v)
    ring = _ring(v.gens)
    return ring(num).as_expr() / ring(den).as_expr()


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
        if expr.free_symbols and not expr.has(*_UNDEFINED):
            try:
                return _rebuild(expr)
            except (CoercionFailed, UndefinedScalarError):
                pass
    raise UndefinedScalarError(f"{expr} is not an element of the scalar field")


def _rebuild(expr):
    """The Scalar of an expression made of symbols and ``QQ`` numbers by
    sums, products and integer powers, each step a Scalar operation;
    ``CoercionFailed`` for any other part."""
    if expr.is_Symbol:
        return generator(expr.name)
    if expr.is_Add or expr.is_Mul:
        return functools.reduce(operator.add if expr.is_Add else operator.mul,
                                map(_rebuild, expr.args))
    if expr.is_Pow and expr.exp.is_Integer:
        return _rebuild(expr.base) ** int(expr.exp)
    return from_sympy(QQ.convert(expr))
