"""The exact scalar coefficient field.

Scalars are sympy expressions built from rational constants, coordinate
symbols and formal function symbols (plus their formal partials).  The
normal form is ``sympy.cancel``: a ratio of expanded coprime polynomials,
which is canonical, so equality of scalars is structural equality of
normal forms.

Total differentiation treats every symbol as independent and adds the
chain-rule contribution of declared function symbols and their partials:
d(H)/d(y1) is the fresh indeterminate ``H__y1``.
"""

from __future__ import annotations

from functools import lru_cache

import sympy

from .errors import UndefinedScalarError

ZERO = sympy.Integer(0)
ONE = sympy.Integer(1)

# Values outside the coefficient field: division by zero produces them.
_UNDEFINED = (sympy.S.ComplexInfinity, sympy.S.NaN, sympy.S.Infinity,
              sympy.S.NegativeInfinity)


@lru_cache(maxsize=None)
def _cancel(expr):
    # The check sits inside the cache, so it runs once per distinct
    # expression; a raising call is not cached and raises again on reuse.
    out = sympy.cancel(expr)
    if out.has(*_UNDEFINED):
        raise UndefinedScalarError(f"{expr} is not an element of the scalar field")
    return out


def as_scalar(value):
    """Coerce ints, Fractions, strings and sympy objects to a normal form."""
    if isinstance(value, sympy.Expr):
        return _cancel(value)
    expr = sympy.sympify(value, rational=True)
    return _cancel(expr)


def normalized(expr):
    return _cancel(expr)


def sadd(a, b):
    return _cancel(sympy.Add(a, b))


def smul(a, b):
    if a is ONE:
        return b
    if b is ONE:
        return a
    return _cancel(sympy.Mul(a, b))


def sdiv(a, b):
    return _cancel(a / b)


def sneg(a):
    return _cancel(-a)


def accumulate(data, key, term, sign=1):
    """data[key] += sign * term in place, dropping the key when the sum is
    zero.  Every sparse sum in the package goes through here, so stored
    maps never hold a zero coefficient."""
    if sign < 0:
        term = sneg(term)
    acc = sadd(data.get(key, ZERO), term)
    if acc == 0:
        data.pop(key, None)
    else:
        data[key] = acc


def diff(expr, chart):
    """Gradient of a scalar: {coordinate index: nonzero total derivative},
    in coordinate order.

    Each free symbol is differentiated once.  A coordinate contributes its
    derivative; a declared function or formal partial f contributes
    d(expr)/d(f) times its formal partial along each of its arguments that
    is a chart coordinate; every other symbol is an independent
    indeterminate.
    """
    index = chart._index
    grad = {}
    for sym in expr.free_symbols:
        if sym.name in index:
            directions = {index[sym.name]: ONE}
        else:
            directions = {index[a]: chart.partial_symbol(sym.name, a)
                          for a in chart.function_args(sym.name) or ()
                          if a in index}
        if directions:
            df = sympy.diff(expr, sym)
            for i, partial in directions.items():
                grad[i] = grad.get(i, ZERO) + df * partial
    return {i: d for i in sorted(grad) if (d := _cancel(grad[i])) != 0}


def is_polynomial(expr, chart):
    """True when the scalar is a polynomial in the chart coordinates with
    rational constants and no formal function symbols."""
    expr = _cancel(expr)
    if not expr.free_symbols <= set(chart.syms):
        return False
    return expr.is_polynomial(*chart.syms) and sympy.denom(expr).is_Rational


def poly_monomials(expr, chart):
    """Yield (coefficient, exponent tuple) over the chart coordinates."""
    poly = sympy.Poly(expr, *chart.syms)
    for exps, coeff in poly.terms():
        yield coeff, exps
