"""The exact scalar coefficient field.

A scalar is a rational function with rational coefficients in named
generators: chart coordinates, formal function symbols and their formal
partials.  ``Scalar`` is the one value type of every stored coefficient,
and its ``value`` is exactly one of:

* an ``int``, for an integer;
* a ``fractions.Fraction``, for any other constant;
* a ``Poly``, for a non-constant polynomial: a dict from exponent tuples
  to nonzero ints over a positive int denominator that shares no factor
  with all of them, over the canonical tuple of the generator names it
  uses (sympy's generator order, ``gen_key``);
* a ``Frac``, for a value with a non-constant denominator: coprime int
  term dicts for its numerator and denominator, the denominator with a
  positive lex leading coefficient, over exactly the generators they
  use, in the same order.

Every operation returns that one canonical representation, so equality
is equality of representations; a result that loses a generator or
becomes a polynomial or a constant moves to the smaller representation.
Polynomial arithmetic is int arithmetic on the term dicts, and only the
content is ever cancelled against the denominator: no polynomial gcd.
A ``Frac`` takes the same term-dict arithmetic in ``ratfunc``, whose
``reduce`` cancels each result by one sympy gcd.

sympy is imported on first use only (``ratfunc``): by division by a
non-constant value, by arithmetic on or differentiation of a ``Frac``,
by converting a sympy expression, a string or a
``QQ`` (``as_scalar``, or arithmetic and comparison with one), and by
``as_expr``/``_sympy_``, ``free_symbols`` and ``str``.  So
``sympy.sympify(c)`` gives the canonical expression, the one
``sympy.cancel`` prints.  Division by zero raises ``UndefinedScalarError``.

Total differentiation treats every generator as independent and adds the
chain-rule contribution of declared function symbols and their partials:
d(H)/d(y1) is the fresh generator ``H__y1``.  A polynomial is
differentiated on its term dict: one pass files each term's partial
derivatives by generator, the chain-rule products raise the partial's
exponent in the same dicts, and each entry has its content cancelled
against the denominator once.  A ``Frac`` takes the quotient rule in the
same pass, and each entry is reduced once.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from operator import add, itemgetter

from .errors import UndefinedScalarError

_CONSTANTS = (int, Fraction)


def _ratfunc():
    """The rational-function module; importing it imports sympy."""
    from . import ratfunc

    return ratfunc


# -- generators --------------------------------------------------------------

# sympy.polys.polyutils._sort_gens ranks a name by its letters without the
# trailing integer (x, y, z first, then p..w, then a..o, then the rest),
# then by those letters, then by the integer, then by the whole name.
_LETTER_RANK = {**{c: 301 + i for i, c in enumerate("abcdefghijklmno")},
                **{c: 216 + i for i, c in enumerate("pqrstuvw")},
                "x": 124, "y": 125, "z": 126}
_SPLIT = re.compile(r"(.*?)(\d*)$")
_KEYS = {}


def gen_key(name):
    """The sort key of a generator name in the canonical generator order."""
    key = _KEYS.get(name)
    if key is None:
        head, index = _SPLIT.match(name).groups()
        key = _KEYS[name] = (_LETTER_RANK.get(head, 1000), head,
                             int(index) if index else 0, name)
    return key


def canonical(names):
    """Generator names in the canonical order."""
    return tuple(sorted(names, key=gen_key))


def _monomial_map(src, dst):
    """Exponent tuples over generators ``src`` re-indexed over ``dst``; a
    generator missing from ``src`` gets exponent 0."""
    pos = {s: i for i, s in enumerate(src)}
    get = itemgetter(*[pos.get(s, len(src)) for s in dst])
    if len(dst) == 1:
        return lambda m: (get(m + (0,)),)
    return lambda m: get(m + (0,))


class _GeneratorMaps:
    """The joint generators of two generator tuples, the generators a mask
    keeps, and the monomial maps to them, each computed once.  It is a
    cache: what it holds changes no value."""

    def __init__(self):
        self._unions = {}  # (gens, gens) -> (union gens, map, map)
        self._restrictions = {}  # (gens, mask) -> (gens, map)

    def union(self, ga, gb):
        hit = self._unions.get((ga, gb))
        if hit is None:
            gens = canonical(set(ga) | set(gb))
            hit = self._unions[ga, gb] = (
                gens, None if gens == ga else _monomial_map(ga, gens),
                None if gens == gb else _monomial_map(gb, gens))
        return hit

    def restriction(self, gens, mask):
        hit = self._restrictions.get((gens, mask))
        if hit is None:
            kept = tuple(g for g, used in zip(gens, mask) if used)
            hit = self._restrictions[gens, mask] = (kept, _monomial_map(gens, kept))
        return hit


GENERATORS = _GeneratorMaps()


def _reindexed(terms, mono):
    return terms if mono is None else {mono(m): c for m, c in terms.items()}


# -- polynomials -------------------------------------------------------------

class Poly:
    """sum of c * x^m over ``terms`` divided by ``den``: a non-constant
    polynomial over the canonical generator tuple ``gens``, every one of
    them used, with nonzero int coefficients whose content is prime to
    the positive int ``den``.  Immutable once made."""

    __slots__ = ("gens", "terms", "den", "_hash")

    def __init__(self, gens, terms, den):
        self.gens = gens
        self.terms = terms
        self.den = den
        self._hash = None

    def __eq__(self, other):
        return (other.__class__ is Poly and self.den == other.den
                and self.gens == other.gens and self.terms == other.terms)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.gens, frozenset(self.terms.items()), self.den))
        return h

    def __reduce__(self):
        return Poly, (self.gens, self.terms, self.den)


class Frac:
    """``num`` / ``den``: a rational function with a non-constant
    denominator, as int term dicts over the canonical generator tuple
    ``gens``, every one of them used.  They are coprime in Z[gens],
    integer content included, and the lex leading coefficient of ``den``
    (at ``max(den)``) is positive: the form ``ratfunc.reduce`` makes.
    Immutable once made."""

    __slots__ = ("gens", "num", "den")

    def __init__(self, gens, num, den):
        self.gens = gens
        self.num = num
        self.den = den

    def __eq__(self, other):
        return (other.__class__ is Frac and self.gens == other.gens
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.gens, frozenset(self.num.items()), frozenset(self.den.items())))

    def __reduce__(self):
        return Frac, (self.gens, self.num, self.den)


def _rational(p, q):
    """The constant p/q for ints p and q > 0: an int when q divides p."""
    if q == 1:
        return p
    return p // q if p % q == 0 else Fraction(p, q)


def _from_terms(gens, terms, d, check_gens=True):
    """The Scalar of (sum of c * x^m over ``terms``) / d, for terms
    {monomial over ``gens``: nonzero int} and an int d > 0: the content
    cancelled against d, and, unless ``check_gens`` is false (every
    generator is known to be used), the result moved to exactly the
    generators it uses."""
    if not terms:
        return ZERO
    g = d
    for c in terms.values():
        if g == 1:
            break
        g = gcd(g, c)
    if check_gens:
        mask = tuple(map(any, zip(*terms)))
        if not any(mask):
            return _wrap(_rational(next(iter(terms.values())), d))
        if not all(mask):
            gens, mono = GENERATORS.restriction(gens, mask)
            terms = {mono(m): c for m, c in terms.items()}
    if g > 1:
        terms = {m: c // g for m, c in terms.items()}
    return _wrap(Poly(gens, terms, d // g))


def _lift(x, y):
    """The term dicts of two polynomials over their joint generators."""
    if x.gens == y.gens:
        return x.gens, x.terms, y.terms
    gens, mx, my = GENERATORS.union(x.gens, y.gens)
    return gens, _reindexed(x.terms, mx), _reindexed(y.terms, my)


def add_terms(acc, terms):
    """acc += terms in place for two term dicts over the same generators;
    True when a term cancelled."""
    cancelled = False
    for m, c in terms.items():
        c += acc.get(m, 0)
        if c:
            acc[m] = c
        else:
            del acc[m]
            cancelled = True
    return cancelled


def mul_terms(tx, ty):
    """The product of two term dicts over the same generators."""
    if len(tx) < len(ty):
        tx, ty = ty, tx
    acc = {}
    get = acc.get
    for my, cy in ty.items():
        for mx, cx in tx.items():
            m = tuple(map(add, mx, my))
            c = get(m)
            acc[m] = cx * cy if c is None else c + cx * cy
    if 0 in acc.values():
        acc = {m: c for m, c in acc.items() if c}
    return acc


def power_terms(terms, exponent):
    """The term dict to a positive int power."""
    out = None
    while True:
        if exponent & 1:
            out = terms if out is None else mul_terms(out, terms)
        exponent >>= 1
        if not exponent:
            return out
        terms = mul_terms(terms, terms)


def _add_poly(x, y):
    gens, tx, ty = _lift(x, y)
    dx, dy = x.den, y.den
    if dx == dy:
        acc = dict(tx)
    else:
        acc = {m: c * dy for m, c in tx.items()}
        ty = {m: c * dx for m, c in ty.items()}
    # with no term cancelled, every generator is still used
    cancelled = add_terms(acc, ty)
    return _from_terms(gens, acc, dx if dx == dy else dx * dy, cancelled)


def _mul_poly(x, y):
    gens, tx, ty = _lift(x, y)
    # a product of polynomials uses every generator of either factor
    return _from_terms(gens, mul_terms(tx, ty), x.den * y.den, False)


def _shift_poly(x, p, q):
    """x + p/q for a Poly x and a nonzero constant p/q (q > 0): no
    generator is lost, and for q = 1 no content can cancel."""
    d = x.den
    terms = {m: c * q for m, c in x.terms.items()} if q != 1 else dict(x.terms)
    zero = (0,) * len(x.gens)
    c = terms.get(zero, 0) + p * d
    if c:
        terms[zero] = c
    else:
        del terms[zero]
    if q == 1:
        return _wrap(Poly(x.gens, terms, d))
    return _from_terms(x.gens, terms, d * q, False)


def _scale_poly(x, p, q):
    """x * p/q for a Poly x and a nonzero constant p/q (q > 0)."""
    if q == 1:
        # the content is prime to den, so only p can share a factor with it
        g = gcd(p, x.den)
        p //= g
        return _wrap(Poly(x.gens, {m: c * p for m, c in x.terms.items()}, x.den // g))
    return _from_terms(x.gens, {m: c * p for m, c in x.terms.items()}, x.den * q, False)


# -- Scalar ------------------------------------------------------------------

def _wrap(value):
    out = object.__new__(Scalar)
    out.value = value
    return out


# Binary operations on the values of two Scalars.  Two ints take the first
# branch; constants stay Python numbers; polynomials stay Polys; a Frac
# on either side goes to ``ratfunc``.

def _add(x, y):
    cx, cy = x.__class__, y.__class__
    if cx is int:
        if cy is int:
            return _wrap(x + y)
        if cy is Fraction:
            return _wrap(_rational(y.numerator + x * y.denominator, y.denominator))
        x, y, cx, cy = y, x, cy, cx
    elif cx is Fraction:
        if cy in _CONSTANTS:
            s = x + y
            return _wrap(s.numerator if s.denominator == 1 else s)
        x, y, cx, cy = y, x, cy, cx
    elif cx is Poly and cy is Poly:
        return _add_poly(x, y)
    if cy in _CONSTANTS:
        if not y:
            return _wrap(x)
        if cx is Poly:
            return _shift_poly(x, y.numerator, y.denominator)
    return _ratfunc().add(x, y)


def _mul(x, y):
    cx, cy = x.__class__, y.__class__
    if cx is int:
        if cy is int:
            return _wrap(x * y)
        if cy is Fraction:
            return _wrap(_rational(x * y.numerator, y.denominator))
        x, y, cx, cy = y, x, cy, cx
    elif cx is Fraction:
        if cy in _CONSTANTS:
            s = x * y
            return _wrap(s.numerator if s.denominator == 1 else s)
        x, y, cx, cy = y, x, cy, cx
    elif cx is Poly and cy is Poly:
        return _mul_poly(x, y)
    if cy in _CONSTANTS:
        if not y:
            return ZERO
        if y == 1:
            return _wrap(x)
        if cx is Poly:
            return _scale_poly(x, y.numerator, y.denominator)
    return _ratfunc().mul(x, y)


def _neg(v):
    cls = v.__class__
    if cls in _CONSTANTS:
        return -v
    if cls is Poly:
        return Poly(v.gens, {m: -c for m, c in v.terms.items()}, v.den)
    return Frac(v.gens, {m: -c for m, c in v.num.items()}, v.den)


def _sub(x, y):
    return _add(x, _neg(y))


def _div(x, y):
    cx, cy = x.__class__, y.__class__
    if cy is int or cy is Fraction:
        if not y:
            raise UndefinedScalarError("division by zero")
        if cx is int and cy is int:
            return _wrap(_rational(x * (1 if y > 0 else -1), abs(y)))
        inverse = Fraction(y.denominator, y.numerator)
        return _mul(x, inverse.numerator if inverse.denominator == 1 else inverse)
    if cx in _CONSTANTS and not x:
        return ZERO
    return _ratfunc().div(x, y)


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
    """An element of the scalar field: an ``int``, a non-integer
    ``Fraction``, a ``Poly`` or a ``Frac``.  Immutable."""

    __slots__ = ("value",)

    def __new__(cls, value=0):
        return as_scalar(value)

    def __reduce__(self):
        return _wrap, (self.value,)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    # -- boundary ----------------------------------------------------------

    def as_expr(self):
        """The canonical sympy expression."""
        return _ratfunc().as_expr(self.value)

    _sympy_ = as_expr

    def __str__(self):
        return str(self.as_expr())

    __repr__ = __str__

    @property
    def is_rational(self):
        """True for a constant, an int or a ``Fraction``."""
        return self.value.__class__ in _CONSTANTS

    @property
    def generators(self):
        """The names of the generators the value uses, in canonical order."""
        v = self.value
        return () if v.__class__ in _CONSTANTS else v.gens

    @property
    def free_symbols(self):
        """The sympy symbols of the generators."""
        return _ratfunc().symbols(self.generators)

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
        # one representation per value
        return x.__class__ is y.__class__ and x == y

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
        cls = v.__class__
        if cls is int and exponent >= 0:
            return _wrap(v**exponent)
        if cls is int or cls is Fraction:
            if exponent < 0 and not v:
                raise UndefinedScalarError("division by zero")
            p = Fraction(v) ** exponent
            return _wrap(p.numerator if p.denominator == 1 else p)
        if exponent == 0:
            return ONE
        if cls is Poly and exponent > 0:
            # the content of a power is the power of the content: prime to den
            return _wrap(Poly(v.gens, power_terms(v.terms, exponent), v.den**exponent))
        return _ratfunc().power(v, exponent)


ZERO = _wrap(0)
ONE = _wrap(1)


def generator(name):
    """The Scalar of the generator ``name``."""
    return _wrap(Poly((name,), {(1,): 1}, 1))


def generator_name(value):
    """The name of a Scalar that is one generator, else None."""
    v = value.value
    if v.__class__ is Poly and v.den == 1 and v.terms == {(1,): 1}:
        return v.gens[0]
    return None


def _operand(value):
    """A Scalar for a Scalar, number or sympy expression; None otherwise."""
    if value.__class__ is Scalar:
        return value
    if isinstance(value, _CONSTANTS):
        return as_scalar(value)
    if "sympy" in sys.modules and _ratfunc().is_operand(value):
        return as_scalar(value)
    return None


def as_scalar(value):
    """The Scalar of an int, Fraction, string, sympy expression or Scalar."""
    cls = value.__class__
    if cls is Scalar:
        return value
    if cls is int:
        return _wrap(value)
    if isinstance(value, _CONSTANTS):
        return _wrap(_rational(int(value.numerator), int(value.denominator)))
    return _ratfunc().from_sympy(value)


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


# -- calculus ----------------------------------------------------------------

def _chains(gens, chart):
    """{coordinate index: [(generator, its partial or None)]}: a coordinate
    generator contributes itself, a declared function or formal partial its
    partial along each of its arguments that is a chart coordinate."""
    index = chart._index
    chains = {}
    for name in gens:
        i = index.get(name)
        if i is not None:
            chains.setdefault(i, []).append((name, None))
            continue
        for a in chart.function_args(name) or ():
            if a in index:
                chains.setdefault(index[a], []).append((name, chart.partial_name(name, a)))
    return chains


def diff(value, chart):
    """Gradient of a scalar: {coordinate index: nonzero total derivative},
    in coordinate order.

    A coordinate contributes its derivative; a declared function or formal
    partial f contributes d(value)/d(f) times its formal partial along each
    of its arguments that is a chart coordinate; every other generator is
    an independent indeterminate.

    A polynomial takes one pass over its terms (``_slopes``), over the
    generators it uses and the partials it meets, and each entry is a
    term dict over its denominator, reduced once (``_from_terms``); when
    every generator is a coordinate, each slope is an entry as it stands.  A
    rational function num/den takes the quotient rule in the same pass:
    the slopes of num and den give each d(num)/d(g) * den - num *
    d(den)/d(g) over den**2, and each entry is reduced once
    (``ratfunc.reduce``).
    """
    if value.__class__ is not Scalar:
        value = as_scalar(value)
    v = value.value
    cls = v.__class__
    if cls in _CONSTANTS:
        return {}
    index = chart._index
    if cls is Poly and all(g in index for g in v.gens):
        gens = v.gens
        slopes = _slopes(v.terms, range(len(gens)))
        # every generator is used, so no slope is empty
        return {index[gens[k]]: _from_terms(gens, slopes[k], v.den)
                for k in sorted(slopes, key=lambda k: index[gens[k]])}
    chains = _chains(v.gens, chart)
    gens, num, den = v.gens, v.terms if cls is Poly else v.num, v.den
    partials = {p for chain in chains.values() for _, p in chain if p is not None}
    if not partials <= set(gens):
        gens, mono, _ = GENERATORS.union(gens, canonical(partials))
        num = _reindexed(num, mono)
        if cls is Frac:
            den = _reindexed(den, mono)
    pos = {s: k for k, s in enumerate(gens)}
    used = {pos[s] for chain in chains.values() for s, _ in chain}
    slopes = _slopes(num, used)
    if cls is Frac:
        minus = {m: -c for m, c in num.items()}
        for k, slope in _slopes(den, used).items():
            slopes[k] = mul_terms(slopes[k], den)
            add_terms(slopes[k], mul_terms(minus, slope))
        reduce, den = _ratfunc().reduce, mul_terms(den, den)
    else:
        reduce = _from_terms
    grad = {}
    for i in sorted(chains):
        acc = {}
        for name, partial in chains[i]:
            add_terms(acc, _times(slopes[pos[name]], pos.get(partial)))
        entry = reduce(gens, acc, den)
        if entry:
            grad[i] = entry
    return grad


def _slopes(terms, positions):
    """{k: d(numer)/d(generator k) as a term dict} for each position k, from
    the {monomial: integer coefficient} terms of numer, in one pass."""
    slopes = {k: {} for k in positions}
    for m, c in terms.items():
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


def _evaluate(gens, terms, images):
    """sum of c * prod(image(g)**e) over ``terms`` {monomial over gens:
    rational c}, with every generator that is a key of ``images``
    replaced by its image."""
    images = [images[g] if g in images else generator(g) for g in gens]
    acc = ZERO
    for m, c in terms.items():
        term = as_scalar(c)
        for g, e in zip(images, m):
            if e:
                term = term * g**e
        acc = acc + term
    return acc


def parts(value):
    """The numerator and denominator of a Scalar as term dicts {exponent
    tuple over its generators: int}."""
    return _parts(value.value)


def _parts(v):
    if v.__class__ in _CONSTANTS:
        return {(): v.numerator}, {(): v.denominator}
    if v.__class__ is Poly:
        return v.terms, {(0,) * len(v.gens): v.den}
    return v.num, v.den


def substitute(value, images):
    """``value`` with every generator whose name is a key of ``images``
    replaced by its image, a Scalar."""
    if value.__class__ is not Scalar:
        value = as_scalar(value)
    gens = value.generators
    if images.keys().isdisjoint(gens):
        return value
    numer, denom = parts(value)
    return _evaluate(gens, numer, images) / _evaluate(gens, denom, images)


def is_polynomial(value, chart):
    """True when the scalar is a polynomial in the chart coordinates with
    rational constants and no formal function symbols."""
    v = as_scalar(value).value
    if v.__class__ in _CONSTANTS:
        return True
    return v.__class__ is Poly and all(g in chart._index for g in v.gens)


def poly_monomials(value, chart):
    """Yield (coefficient, exponent tuple over the chart coordinates) of a
    polynomial scalar."""
    value = as_scalar(value)
    v = value.value
    if v.__class__ in _CONSTANTS:
        if v:
            yield value, (0,) * chart.m
        return
    mono = _monomial_map(v.gens, chart.coords)
    for m, c in v.terms.items():
        yield _wrap(_rational(c, v.den)), mono(m)
