"""Recursive-descent parser for the expression grammar.

Grammar (no recovery; first error wins, with 1-based line/column):

    expr     := product (('+' | '-') product)*
    product  := wedges ('@' wedges)?          -- form @ multivector tensor
    wedges   := scaled ('^' scaled)*          -- wedge, left associative
    scaled   := unary (('*' | '/') unary)*    -- '*' binds tighter than '^'
    unary    := '-' unary | power
    power    := atom ('**' INT)?
    atom     := INT | NAME | NAME '(' args ')' | 'd' '(' NAME ')'
              | 'dX' '[' ints? ']' | '@/' NAME | '(' expr ')'

``dX[mu,...]`` is the contraction of the listed base vectors (1-based
positions) into d^n x; ``dX[]`` is the volume form.  ``D(H, c, ...)``
names a formal partial of a declared function; one comma-list reader
reads these lists and a function's arguments, checking each entry as it
is read.  Atoms evaluate to scalars, forms or multivectors, and operators
dispatch on those types (scalars through their own operators).

Input cost is capped, so that no text makes the parser compute for long:
an integer literal has at most MAX_DIGITS digits, a power has an exponent
of at most MAX_EXPONENT, and the result of every power and of every
operator ('*', '/', '+', '-', '^', '@') is bounded, from the sizes of its
operands and before it is computed, to degree at most MAX_EXPONENT, at
most MAX_TERMS terms and integers of at most MAX_BITS bits (fewer digits
than MAX_DIGITS), so that whatever parses renders to text that parses
back.  Nesting is capped too: at most MAX_DEPTH parentheses and unary
minus signs may be open at once, well inside Python's recursion limit,
so deep input is a located ParseError rather than a RecursionError.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .chart import _PARTIAL_SEP
from .errors import ParseError, UndefinedScalarError
from .forms import Form, MultiVector, MvForm, volume_contraction, wedge
from .scalars import as_scalar, generator, parts

MAX_DIGITS = 1000
MAX_EXPONENT = 1000
MAX_TERMS = 1001
MAX_BITS = 3000
MAX_DEPTH = 50

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<atvec>@/)
  | (?P<pow>\*\*)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^@()\[\],])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


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
        self.depth = 0  # open parentheses and unary minus signs

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
            value = self._add(value, rhs if op.text == "+" else -rhs, op)
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
            if op.text == "/":
                if self._graded(rhs):
                    self.error("division by a non-scalar", op)
                if not rhs:
                    raise UndefinedScalarError(f"{op.line}:{op.col}: division by zero")
                rhs = 1 / rhs
            value = self._mul(value, rhs, op)
        return value

    def unary(self):
        if self.peek().text == "-":
            self._enter(self.next())
            value = -self.unary()
            self.depth -= 1
            return value
        return self.power()

    def power(self):
        value = self.atom()
        if self.peek().kind == "pow":
            op = self.next()
            exp = self.next()
            if exp.kind != "int":
                self.error("exponent must be an integer", exp)
            if self._graded(value):
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
            return MultiVector.coord_vector(self.chart, self._coord(self.next(), "after @/"))
        if tok.text == "(":
            self._enter(tok)
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        if tok.kind == "name":
            return self._name_atom(tok)
        self.error(f"unexpected token {tok.text!r}", tok)

    def _enter(self, tok):
        """Open one nesting level at ``tok``, a '(' or a unary '-'."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH} levels", tok)

    def _name_atom(self, tok):
        name = tok.text
        opens = self.peek().text
        if name == "d" and opens == "(":
            self.next()
            coord = self._coord(self.next(), "in d(...)")
            self.expect(")")
            return Form.d_coord(self.chart, coord)
        if name == "dX" and opens == "[":
            self.next()
            lowered = self._items("]", self._base_index)
            if len(set(lowered)) != len(lowered):
                self.error("repeated index in dX[...]", tok)
            return volume_contraction(self.chart, lowered)
        if name == "D" and opens == "(":
            self.next()
            sym, *coords = self._items(")", self._function,
                                       lambda c: self._coord(c, "in D(...)"))
            if not coords:
                self.error("D(...) needs at least one coordinate", tok)
            for c in coords:
                partial = self.chart.partial_name(sym, c)
                if partial is None:
                    self.error(f"{sym} does not depend on {c}", tok)
                sym = partial
            return generator(sym)
        if name in self.chart.functions:
            if opens == "(":
                self.next()
                args = self._items(")", lambda c: self._coord(c, "argument"))
                if tuple(args) != self.chart.functions[name]:
                    self.error(f"arguments {args} do not match declaration of {name}", tok)
            return generator(name)
        if _PARTIAL_SEP in name:
            self.error(f"unknown partial symbol {name!r}", tok)
        return generator(self._coord(tok, ""))

    def _items(self, close, *checks):
        """The entries of a comma list through ``close``, entry k read by
        ``checks[k]`` (the last check reads the rest) as soon as it is met.
        Only a list with one check may be empty: ``D(...)`` names a function."""
        items = []
        if len(checks) > 1 or self.peek().text != close:
            items.append(checks[0](self.next()))
            while self.peek().text == ",":
                self.next()
                items.append(checks[min(len(items), len(checks) - 1)](self.next()))
        self.expect(close)
        return items

    def _coord(self, tok, where):
        """The coordinate named by ``tok``; an error 'expected a coordinate
        <where>' when ``tok`` is not a name."""
        if tok.kind != "name":
            self.error(f"expected a coordinate {where}", tok)
        if tok.text not in self.chart.coords:
            self.error(f"unknown coordinate {tok.text!r}", tok)
        return tok.text

    def _base_index(self, tok):
        """The 0-based slot of a 1-based base index in dX[...]."""
        if tok.kind != "int":
            self.error("expected a base index in dX[...]", tok)
        mu = int(tok.text)
        if not 1 <= mu <= self.chart.n:
            self.error(f"base index {mu} out of range 1..{self.chart.n}", tok)
        return mu - 1

    def _function(self, tok):
        if tok.kind != "name" or tok.text not in self.chart.functions:
            self.error("D(...) needs a declared function", tok)
        return tok.text

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
        try:
            return a + b
        except Exception as exc:
            self.error(str(exc), tok)

    def _mul(self, a, b, tok):
        if self._graded(a) and self._graded(b):
            self.error("'*' multiplies by scalars; use '^' to wedge", tok)
        self._bounded(_mul_size(_size(a), _size(b)), tok)
        return a * b

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


# Size bounds.  A polynomial's size is (degree, terms, bits): its total
# degree, its number of terms and the bit length of its largest integer.
# A scalar's size is the pair (numerator, denominator) of polynomial
# sizes, the denominator None when it is 1.

def _max_size(*sizes):
    return tuple(max(v) for v in zip(*sizes))


def _bits(c):
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def _poly_size(poly):
    return max(map(sum, poly)), len(poly), max(map(_bits, poly.values()))


def _scalar_size(value):
    """Read off the canonical numerator and denominator of a scalar."""
    num, den = map(_poly_size, parts(value))
    return num, (None if den == (0, 1, 1) else den)


def _size(value):
    """The size of a scalar, or a bound on every coefficient of a graded
    object."""
    if not isinstance(value, (Form, MultiVector, MvForm)):
        return _scalar_size(value)
    sizes = [_scalar_size(c) for c in value.data.values()] or [((0, 0, 0), None)]
    dens = [den for _, den in sizes if den is not None]
    return (_max_size(*(num for num, _ in sizes)),
            _max_size(*dens) if dens else None)


def _poly_mul(a, b):
    """Bound on a product of polynomials of sizes a and b (None is 1): a
    coefficient sums at most min(terms) products."""
    if a is None or b is None:
        return b if a is None else a
    return (a[0] + b[0], a[1] * b[1],
            a[2] + b[2] + (min(a[1], b[1]) - 1).bit_length())


def _mul_size(x, y):
    return _poly_mul(x[0], y[0]), _poly_mul(x[1], y[1])


def _add_size(x, y):
    """p/q + r/s = (p s + r q) / (q s)."""
    if x[1] is None and y[1] is None:
        num = x[0], y[0]
    else:
        num = _poly_mul(x[0], y[1]), _poly_mul(y[0], x[1])
    (da, ta, ba), (db, tb, bb) = num
    return (max(da, db), ta + tb, max(ba, bb) + 1), _poly_mul(x[1], y[1])


def _sum_size(x, k):
    """Bound on a sum of k scalars of size x."""
    if x[1] is None:
        degree, terms, bits = x[0]
        return (degree, k * terms, bits + (k - 1).bit_length()), None
    out = x
    for _ in range(k - 1):
        out = _add_size(out, x)
    return out


def _power_size(value, e):
    """Bound on the size of value**e expanded: a part of T terms gives at
    most C(e+T-1, T-1) terms, with multinomial coefficients below T**e."""
    return tuple(None if part is None else
                 (part[0] * e, math.comb(e + part[1] - 1, part[1] - 1),
                  e * (part[2] + (part[1] - 1).bit_length()))
                 for part in _scalar_size(value))


def parse_expression(text, chart, start=(1, 1)):
    """Parse a scalar, form, multivector or multivector-valued form.

    ``start`` is the (line, column) at which ``text`` begins in the
    caller's input; errors are located relative to it."""
    return _Parser(text, chart, start).parse()


def parse_form(text, chart, degree=None, start=(1, 1)):
    value = parse_expression(text, chart, start)
    if not isinstance(value, (Form, MultiVector, MvForm)):
        if degree is not None and as_scalar(value) == 0:
            return Form.zero(chart, degree)
        value = Form.scalar_form(chart, value)
    if not isinstance(value, Form):
        raise ParseError(f"expected a form, got {type(value).__name__}", *start)
    if degree is not None and value.degree != degree:
        raise ParseError(f"expected a degree {degree} form, got {value.degree}",
                         *start)
    return value


def parse_multivector(text, chart, degree=None, start=(1, 1)):
    """A multivector, of ``degree`` when it is given; a scalar is read as a
    0-vector when ``degree`` is 0, and 0 as the zero multivector of
    ``degree`` (default 1).  ``start`` locates errors as in
    ``parse_expression``."""
    value = parse_expression(text, chart, start)
    if not isinstance(value, (Form, MultiVector, MvForm)):
        if degree == 0:
            return MultiVector(chart, 0, {(): value})
        if not value:
            return MultiVector.zero(chart, 1 if degree is None else degree)
    if not isinstance(value, MultiVector):
        raise ParseError(f"expected a multivector, got {type(value).__name__}", *start)
    if degree is not None and value.degree != degree:
        raise ParseError(f"expected a degree {degree} multivector, got {value.degree}",
                         *start)
    return value
