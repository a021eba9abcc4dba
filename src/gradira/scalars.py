"""The exact scalar coefficient field.

A scalar is a rational function with rational coefficients in coordinate
symbols and formal function symbols (plus their formal partials).
``Scalar`` is the one value type of every stored coefficient:

* an integer is held as a Python ``int`` and any other constant as a
  ``QQ`` rational, so constant arithmetic, which is most of the traffic
  and nearly all of it between integers, costs well under a microsecond;
* anything else is held as an element of a ``sympy.polys`` fraction field
  whose generators are exactly the symbols it depends on, in one canonical
  order (``sympy.polys.polyutils._sort_gens``, ties broken by name).  Such
  an element is a ratio of coprime integer polynomials whose denominator
  has a positive leading coefficient, so it is its own normal form:
  equality is equality of representations, and no operation here calls
  ``sympy.cancel``.

Operands over different generators are lifted to the field of the union
first; a result that loses a generator moves to the smaller field, and a
constant result becomes an int or a rational again.  Every operation
normalises to that one representation, so an integer-valued ``QQ`` is
never stored, and a value's representation does not depend on the order
in which symbols were met.

Expressions cross the boundary both ways: ``as_scalar`` takes ints,
Fractions, strings and sympy expressions, and ``sympy.sympify(c)`` (or
``c.as_expr()``) gives back the canonical expression, the one
``sympy.cancel`` prints.  Arithmetic and comparison with an expression
convert it first; division by zero raises ``UndefinedScalarError``.

Total differentiation treats every symbol as independent and adds the
chain-rule contribution of declared function symbols and their partials:
d(H)/d(y1) is the fresh indeterminate ``H__y1``.  A value with a constant
denominator, which is most of them, is differentiated on the term dict of
its numerator: one pass files each term's partial derivatives by
generator, the chain-rule products raise the partial's exponent in the
same dicts, and each entry has its content cancelled against the
denominator once and goes straight to the field of exactly the
generators it uses.  A value with a non-constant denominator takes the
quotient rule in the field that also holds the partials.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import itemgetter

import sympy
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField
from sympy.polys.polyutils import _sort_gens

from .errors import UndefinedScalarError

_QQ = type(QQ.one)
_CONSTANTS = (int, _QQ)


def _constant(q):
    """The value of a constant ``QQ``: its int when it is an integer."""
    return int(q.numerator) if q.denominator == 1 else q


def _canonical(symbols):
    """Generators in the canonical field order."""
    return tuple(_sort_gens(sorted(symbols, key=str)))


def _monomial_map(src, dst):
    """Exponent tuples over generators ``src`` re-indexed over ``dst``; a
    generator missing from ``src`` gets exponent 0."""
    pos = {s: i for i, s in enumerate(src)}
    get = itemgetter(*[pos.get(s, len(src)) for s in dst])
    if len(dst) == 1:
        return lambda m: (get(m + (0,)),)
    return lambda m: get(m + (0,))


class FieldRegistry:
    """The fraction fields in use, one per canonical generator tuple, and
    the maps that move elements between them.  Building a sympy field
    compiles its monomial operations, so each is built once per process.
    It is a cache: what it holds changes no value, since every element
    lives in the field of exactly its own generators."""

    def __init__(self):
        self._fields = {}  # canonical generator tuple -> FracField over QQ
        self._unions = {}  # (field, field) -> (union field, map, map)
        self._restrictions = {}  # (field, generator mask) -> (field, map)

    def field(self, symbols):
        field = self._fields.get(symbols)
        if field is None:
            field = self._fields[symbols] = FracField(symbols, QQ)
        return field

    def union(self, fa, fb):
        hit = self._unions.get((fa, fb))
        if hit is None:
            symbols = _canonical(set(fa.symbols) | set(fb.symbols))
            hit = self._unions[fa, fb] = (
                self.field(symbols), _monomial_map(fa.symbols, symbols),
                _monomial_map(fb.symbols, symbols))
        return hit

    def restriction(self, field, mask):
        hit = self._restrictions.get((field, mask))
        if hit is None:
            symbols = tuple(s for s, used in zip(field.symbols, mask) if used)
            hit = self._restrictions[field, mask] = (
                self.field(symbols), _monomial_map(field.symbols, symbols))
        return hit


FIELDS = FieldRegistry()


def _move(el, field, mono):
    """``el`` as an element of ``field``; coprimality and the sign of the
    denominator's leading coefficient survive re-indexing, so no cancel."""
    new = field.ring.dtype
    return field.dtype(new({mono(m): c for m, c in el.numer.items()}),
                       new({mono(m): c for m, c in el.denom.items()}))


def _common(x, y):
    """Two field elements lifted to the field of their joint generators."""
    fx, fy = x.field, y.field
    if fx is fy:
        return x, y
    field, mx, my = FIELDS.union(fx, fy)
    return (x if fx is field else _move(x, field, mx),
            y if fy is field else _move(y, field, my))


def _wrap(value):
    out = object.__new__(Scalar)
    out.value = value
    return out


def _normal(el):
    """The Scalar of a canonical field element: a rational when it is
    constant, else over exactly the generators it uses."""
    numer, denom = el.numer, el.denom
    if not numer:
        return ZERO
    mask = tuple(map(any, zip(*numer, *denom)))
    if not any(mask):
        return _wrap(_constant(numer.LC / denom.LC))
    if all(mask):
        return _wrap(el)
    return _wrap(_move(el, *FIELDS.restriction(el.field, mask)))


def _inverse(el):
    numer, denom = el.numer, el.denom
    if numer.LC < 0:
        numer, denom = -numer, -denom
    return el.field.dtype(denom, numer)


def _generator(symbol):
    return _wrap(FIELDS.field((symbol,)).gens[0])


def _neg(v):
    if v.__class__ in _CONSTANTS:
        return -v
    return v.field.dtype(-v.numer, v.denom)


def _ground(p):
    """The integer of a constant polynomial (a canonical denominator is a
    positive one), else None."""
    if len(p) == 1:
        c = p.get(p.ring.zero_monom)
        if c is not None:
            return c.numerator
    return None


def _over(field, numer, d):
    """numer / d for an integer polynomial of ``field`` and a positive
    integer d, their common content cancelled: the canonical form, found
    without a polynomial gcd."""
    if not numer:
        return ZERO
    g = d
    for c in numer.values():
        if g == 1:
            break
        g = gcd(g, c.numerator)
    if g > 1:
        numer, d = numer.quo_ground(QQ(g)), d // g
    return _normal(field.dtype(numer, field.ring.ground_new(QQ(d))))


# Binary operations on the values of two Scalars.  Two ints take the first
# branch; a rational constant result goes back through ``_constant``.
# Polynomials (constant denominators) take the content-only path of
# ``_over``; everything else goes through sympy's field arithmetic, whose
# results are canonical.

def _add(x, y):
    if x.__class__ is int:
        if y.__class__ is int:
            return _wrap(x + y)
        if y.__class__ is _QQ:
            return _wrap(_constant(y + x))
        x, y = y, x
    elif x.__class__ is _QQ:
        if y.__class__ in _CONSTANTS:
            return _wrap(_constant(x + y))
        x, y = y, x
    elif y.__class__ not in _CONSTANTS:
        x, y = _common(x, y)
        dx, dy = _ground(x.denom), _ground(y.denom)
        if dx is None or dy is None:
            return _normal(x + y)
        if dx == dy:
            return _over(x.field, x.numer + y.numer, dx)
        return _over(x.field, x.numer.mul_ground(dy) + y.numer.mul_ground(dx), dx * dy)
    # x is a field element, y a constant
    if not y:
        return _wrap(x)
    d = _ground(x.denom)
    if d is None:
        return _wrap(x + y)  # a constant shift keeps every generator
    return _over(x.field, x.numer.mul_ground(y.denominator) + y.numerator * d,
                 d * y.denominator)


def _mul(x, y):
    if x.__class__ is int:
        if y.__class__ is int:
            return _wrap(x * y)
        if y.__class__ is _QQ:
            return _wrap(_constant(y * x))
        x, y = y, x
    elif x.__class__ is _QQ:
        if y.__class__ in _CONSTANTS:
            return _wrap(_constant(x * y))
        x, y = y, x
    elif y.__class__ not in _CONSTANTS:
        x, y = _common(x, y)
        dx, dy = _ground(x.denom), _ground(y.denom)
        if dx is None or dy is None:
            return _normal(x * y)
        return _over(x.field, x.numer * y.numer, dx * dy)
    # x is a field element, y a constant
    if not y:
        return ZERO
    if y == 1:
        return _wrap(x)
    d = _ground(x.denom)
    if d is None:
        return _wrap(x * y)  # so is a nonzero scale
    return _over(x.field, x.numer.mul_ground(y.numerator), d * y.denominator)


def _sub(x, y):
    return _add(x, _neg(y))


def _div(x, y):
    if y.__class__ is int:
        if not y:
            raise UndefinedScalarError("division by zero")
        if x.__class__ is int:
            q, r = divmod(x, y)
            return _wrap(q if not r else QQ(x, y))
        if x.__class__ is _QQ:
            return _wrap(_constant(x / y))
        return _mul(x, _constant(QQ(1, y)))
    if y.__class__ is _QQ:
        if x.__class__ in _CONSTANTS:
            return _wrap(_constant(x / y))
        return _mul(x, _constant(1 / y))
    return _mul(x, _inverse(y))


def _binary(op):
    """The method pair (self op other, other op self) of a Scalar; other
    is converted by ``_operand``."""
    def method(self, other):
        other = _operand(other)
        return NotImplemented if other is None else op(self.value, other.value)

    def reflected(self, other):
        other = _operand(other)
        return NotImplemented if other is None else op(other.value, self.value)

    return method, reflected


class Scalar:
    """An element of the scalar field: an ``int``, a non-integer ``QQ``
    rational or a canonical fraction-field element over exactly its own
    symbols.  Immutable."""

    __slots__ = ("value",)

    def __new__(cls, value=0):
        return as_scalar(value)

    def __reduce__(self):
        return Scalar, (self.as_expr(),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    # -- boundary ----------------------------------------------------------

    def as_expr(self):
        """The canonical sympy expression."""
        v = self.value
        if v.__class__ is int:
            return sympy.Integer(v)
        if v.__class__ is _QQ:
            return sympy.Rational(v.numerator, v.denominator)
        return v.as_expr()

    _sympy_ = as_expr

    def __str__(self):
        return str(self.as_expr())

    __repr__ = __str__

    @property
    def is_rational(self):
        """True for a constant, an int or a ``QQ``."""
        return self.value.__class__ in _CONSTANTS

    @property
    def free_symbols(self):
        return set() if self.is_rational else set(self.value.field.symbols)

    # -- comparison ----------------------------------------------------------

    def __bool__(self):
        v = self.value
        return v.__class__ not in _CONSTANTS or bool(v)

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            if other.__class__ is int:
                v = self.value
                return v.__class__ is int and v == other
            try:
                other = _operand(other)
            except UndefinedScalarError:
                return False
            if other is None:
                return NotImplemented
        x, y = self.value, other.value
        if x.__class__ in _CONSTANTS or y.__class__ in _CONSTANTS:
            # one representation per value: constants of two types differ
            return x.__class__ is y.__class__ and x == y
        return x.field is y.field and x.numer == y.numer and x.denom == y.denom

    def __hash__(self):
        return hash(self.value)

    # -- arithmetic ----------------------------------------------------------

    __add__, __radd__ = _binary(_add)
    __sub__, __rsub__ = _binary(_sub)
    __mul__, __rmul__ = _binary(_mul)
    __truediv__, __rtruediv__ = _binary(_div)

    def __neg__(self):
        return _wrap(_neg(self.value))

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if exponent.__class__ is not int:
            return NotImplemented
        v = self.value
        if v.__class__ is int:
            if exponent >= 0:
                return _wrap(v**exponent)
            if not v:
                raise UndefinedScalarError("division by zero")
            return _wrap(_constant(QQ(1, v**-exponent)))
        if v.__class__ is _QQ:  # never zero
            return _wrap(_constant(v**exponent))
        if exponent < 0:
            v, exponent = _inverse(v), -exponent
        if exponent == 0:
            return ONE
        return _wrap(v.field.dtype(_power(v.numer, exponent), _power(v.denom, exponent)))


def _power(poly, exponent):
    """poly**exponent as a fresh polynomial.  sympy squares in place and
    hashes the square half-built (``imul_num`` looks it up in a set), so
    its result keeps a stale cached hash; the copy has none yet."""
    return (poly**exponent).copy()


ZERO = _wrap(0)
ONE = _wrap(1)


def _operand(value):
    """A Scalar for a Scalar, number or sympy expression; None otherwise."""
    if value.__class__ is Scalar:
        return value
    if isinstance(value, (int, Fraction, _QQ, sympy.Basic)):
        return as_scalar(value)
    return None


# Values outside the coefficient field: division by zero produces them.
_UNDEFINED = (sympy.S.ComplexInfinity, sympy.S.NaN, sympy.S.Infinity,
              sympy.S.NegativeInfinity)


def as_scalar(value):
    """The Scalar of an int, Fraction, string, sympy expression or Scalar."""
    if value.__class__ is Scalar:
        return value
    if value.__class__ is int:
        return _wrap(value)
    if isinstance(value, (int, Fraction, _QQ)):
        return _wrap(_constant(QQ(value.numerator, value.denominator)))
    expr = value if isinstance(value, sympy.Basic) else sympy.sympify(value, rational=True)
    if isinstance(expr, sympy.Expr):
        if expr.is_Rational:
            return _wrap(_constant(QQ(expr.p, expr.q)))
        if expr.is_Symbol:
            return _generator(expr)
        if expr.free_symbols and not expr.has(*_UNDEFINED):
            out = _from_expr(expr)
            if out is not None:
                return out
    raise UndefinedScalarError(f"{expr} is not an element of the scalar field")


def _from_expr(expr):
    """The Scalar of a rational function expression, None if it is not one."""
    field = FIELDS.field(_canonical(expr.free_symbols))
    try:
        el = field.from_expr(expr)
    except (ValueError, ZeroDivisionError):
        return None
    # from_expr leaves the sign of the denominator as it was built
    return _normal(field.new(el.numer, el.denom))


def sadd(a, b):
    if a.__class__ is not Scalar:
        a = as_scalar(a)
    if b.__class__ is not Scalar:
        b = as_scalar(b)
    return _add(a.value, b.value)


def smul(a, b):
    if a.__class__ is not Scalar:
        a = as_scalar(a)
    if b.__class__ is not Scalar:
        b = as_scalar(b)
    return _mul(a.value, b.value)


def sdiv(a, b):
    if a.__class__ is not Scalar:
        a = as_scalar(a)
    if b.__class__ is not Scalar:
        b = as_scalar(b)
    return _div(a.value, b.value)


def sneg(a):
    if a.__class__ is not Scalar:
        a = as_scalar(a)
    return _wrap(_neg(a.value))


def accumulate(data, key, term, sign=1):
    """data[key] += sign * term in place, dropping the key when the sum is
    zero.  Every sparse sum in the package goes through here, so stored
    maps never hold a zero coefficient.  A key's first term is stored as
    it is (as a Scalar, unless zero), so a unit term keeps ``ONE`` itself."""
    if sign < 0:
        term = sneg(term)
    elif term.__class__ is not Scalar:
        term = as_scalar(term)
    old = data.get(key)
    acc = term if old is None else sadd(old, term)
    if acc:
        data[key] = acc
    elif old is not None:
        del data[key]


def diff(value, chart):
    """Gradient of a scalar: {coordinate index: nonzero total derivative},
    in coordinate order.

    A coordinate contributes its derivative; a declared function or formal
    partial f contributes d(value)/d(f) times its formal partial along each
    of its arguments that is a chart coordinate; every other symbol is an
    independent indeterminate.  Monomials are exponent tuples over the
    field of the value's generators and the partials it meets.

    A value with a constant denominator d takes one pass over the terms of
    its numerator (``_slopes``), and each entry is a term dict over d
    reduced once (``_from_terms``).  Any other value takes the quotient
    rule: one numerator over the denominator squared, reduced once.
    """
    value = as_scalar(value)
    if value.is_rational:
        return {}
    el = value.value
    index = chart._index
    chains = {}  # coordinate index -> [(generator, its partial or None)]
    for sym in el.field.symbols:
        if sym.name in index:
            chains.setdefault(index[sym.name], []).append((sym, None))
            continue
        for a in chart.function_args(sym.name) or ():
            if a in index:
                chains.setdefault(index[a], []).append(
                    (sym, chart.partial_symbol(sym.name, a)))
    partials = {p for chain in chains.values() for _, p in chain if p is not None}
    field, mono = el.field, None
    if partials:
        field, mono, _ = FIELDS.union(el.field, FIELDS.field(_canonical(partials)))
    d = _ground(el.denom)
    if d is None:
        return _quotient_gradient(el if mono is None else _move(el, field, mono), chains)
    pos = {s: k for k, s in enumerate(field.symbols)}
    terms = [(m if mono is None else mono(m), c.numerator) for m, c in el.numer.items()]
    slopes = _slopes(terms, {pos[s] for chain in chains.values() for s, _ in chain})
    grad = {}
    for i in sorted(chains):
        acc = {}
        for sym, partial in chains[i]:
            for m, c in _times(slopes[pos[sym]], pos.get(partial)).items():
                c += acc.get(m, 0)
                if c:
                    acc[m] = c
                else:
                    del acc[m]
        entry = _from_terms(field, acc, d)
        if entry:
            grad[i] = entry
    return grad


def _slopes(terms, positions):
    """{k: d(numer)/d(generator k) as a term dict} for each position k, from
    the (monomial, integer coefficient) terms of numer, in one pass."""
    slopes = {k: {} for k in positions}
    for m, c in terms:
        for k, slope in slopes.items():
            e = m[k]
            if e:
                slope[m[:k] + (e - 1,) + m[k + 1:]] = c * e
    return slopes


def _times(terms, j):
    """The term dict times generator j (unchanged when j is None)."""
    if j is None:
        return terms
    return {m[:j] + (m[j] + 1,) + m[j + 1:]: c for m, c in terms.items()}


def _from_terms(field, terms, d):
    """The Scalar of (sum of c * m over ``terms``) / d, for terms
    {monomial over ``field``'s generators: nonzero int} and a positive
    integer d: the content cancelled against d, and the result moved
    straight to the field of exactly the generators it uses."""
    if not terms:
        return ZERO
    g = d
    for c in terms.values():
        if g == 1:
            break
        g = gcd(g, c)
    mask = tuple(map(any, zip(*terms)))
    if not any(mask):
        return _wrap(_constant(QQ(next(iter(terms.values())), d)))
    if not all(mask):
        field, mono = FIELDS.restriction(field, mask)
        terms = {mono(m): c for m, c in terms.items()}
    numer = field.ring.dtype({m: _QQ(c // g) for m, c in terms.items()})
    # the shared polynomial 1 of the field, as sympy's own field.one uses it
    denom = field.one.numer if d == g else field.ring.ground_new(QQ(d // g))
    return _wrap(field.dtype(numer, denom))


def _quotient_gradient(el, chains):
    """The gradient of a field element with a non-constant denominator,
    over a field that holds every partial in ``chains``: each entry one
    numerator over the denominator squared, reduced once."""
    field = el.field
    gen = dict(zip(field.symbols, field.ring.gens))
    numer, denom = el.numer, el.denom
    quotients = {}  # generator -> numerator of d(value)/d(generator)
    grad = {}
    for i in sorted(chains):
        acc = field.ring.zero
        for sym, partial in chains[i]:
            q = quotients.get(sym)
            if q is None:
                g = gen[sym]
                q = quotients[sym] = numer.diff(g) * denom - numer * denom.diff(g)
            acc = acc + (q if partial is None else q * gen[partial])
        entry = _normal(field.new(acc, denom**2))
        if entry:
            grad[i] = entry
    return grad


def substitute(value, images):
    """``value`` with every generator that is a key of ``images`` (sympy
    symbols) replaced by its image, a Scalar."""
    value = as_scalar(value)
    el = value.value
    if value.is_rational or images.keys().isdisjoint(el.field.symbols):
        return value
    gens = [images[s] if s in images else _generator(s) for s in el.field.symbols]

    def evaluate(poly):
        acc = ZERO
        for m, c in poly.items():
            term = _wrap(_constant(c))
            for g, e in zip(gens, m):
                if e:
                    term = term * g**e
            acc = acc + term
        return acc

    return evaluate(el.numer) / evaluate(el.denom)


def is_polynomial(value, chart):
    """True when the scalar is a polynomial in the chart coordinates with
    rational constants and no formal function symbols."""
    value = as_scalar(value)
    if value.is_rational:
        return True
    el = value.value
    return (el.denom.is_ground
            and all(s.name in chart._index for s in el.field.symbols))


def poly_monomials(value, chart):
    """Yield (coefficient, exponent tuple over the chart coordinates) of a
    polynomial scalar."""
    value = as_scalar(value)
    if value.is_rational:
        if value:
            yield value, (0,) * chart.m
        return
    el = value.value
    mono = _monomial_map(el.field.symbols, chart.syms)
    denom = el.denom.LC
    for m, c in el.numer.items():
        yield _wrap(_constant(c / denom)), mono(m)
