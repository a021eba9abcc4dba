"""Canonical text rendering of scalars, forms and multivectors.

The output is re-parseable by the expression grammar in parser.py and is
deterministic: terms are emitted in increasing multi-index order, and a
scalar coefficient is written as sympy's ``StrPrinter`` writes it with
``order="lex"``, a formal partial ``H__x1__y1`` as ``D(H,x1,y1)``.  A
constant or a polynomial is written here, from its numerator and
denominator; only a rational function with a non-constant denominator
goes through sympy's printer.  The base-coordinate block of a form term
is rendered through the volume-contraction primitive ``dX[mu, ...]``
mirroring the d^{n-1}x_mu notation, so reports read like textbook
coordinate formulas.
"""

from __future__ import annotations

from functools import cache
from math import gcd

from .chart import _PARTIAL_SEP
from .forms import Form, MultiVector, MvForm
from .scalars import Poly, as_scalar


def _name(generator):
    if _PARTIAL_SEP in generator:
        base, *coords = generator.split(_PARTIAL_SEP)
        return f"D({base},{','.join(coords)})"
    return generator


def _poly_terms(poly):
    """[(sign, text)] of the terms of a Poly as sympy prints them: terms
    in descending lex order of their exponents over the generators sorted
    by name, each the reduced coefficient, then the factors in name
    order, then the coefficient's denominator."""
    order = sorted(range(len(poly.gens)), key=poly.gens.__getitem__)
    names = [_name(poly.gens[k]) for k in order]
    den = poly.den
    out = []
    for m, c in sorted(((tuple(m[k] for k in order), c) for m, c in poly.terms.items()),
                       reverse=True):
        g = gcd(c, den)
        p, q = abs(c) // g, den // g
        factors = [name if e == 1 else f"{name}**{e}" for name, e in zip(names, m) if e]
        if p != 1 or not factors:
            factors.insert(0, str(p))
        text = "*".join(factors)
        out.append(("-" if c < 0 else "+", text if q == 1 else f"{text}/{q}"))
    return out


@cache
def _sympy_printer():
    from sympy.printing.str import StrPrinter

    class ScalarPrinter(StrPrinter):
        def _print_Symbol(self, expr):
            return _name(expr.name)

    return ScalarPrinter({"order": "lex"})


def _scalar_text(value):
    """(text, whether it is a sum of several terms) of a Scalar."""
    v = value.value
    if value.is_rational:
        return str(v), False
    if v.__class__ is not Poly:
        expr = value.as_expr()
        return _sympy_printer().doprint(expr), expr.is_Add
    terms = _poly_terms(v)
    sign, text = terms[0]
    text = text if sign == "+" else f"-{text}"
    return text + "".join(f" {sign} {t}" for sign, t in terms[1:]), len(terms) > 1


def render_scalar(value):
    return _scalar_text(as_scalar(value))[0]


def _term(coeff, body):
    """One product term of a Scalar coefficient: ``body``, ``-body``,
    ``p * body``, ``p/q * body`` or ``c * body``, with a sum coefficient
    parenthesised."""
    if coeff.is_rational:
        p, q = coeff.value.numerator, coeff.value.denominator
        if q != 1:
            return f"{p}/{q} * {body}"
        if p == 1:
            return body
        return f"-{body}" if p == -1 else f"{p} * {body}"
    text, is_sum = _scalar_text(coeff)
    return f"({text}) * {body}" if is_sum else f"{text} * {body}"


def _render_form_indices(chart, idx):
    """Render dx^I as (sign, [factors]) using d(c) atoms for fiber slots
    and a dX[...] block for the base slots.

    I is increasing, so its base slots B are a prefix.  One pass over the
    base coordinates finds B and the lowered slots L: dX[L] contracts the
    volume by L in order, and each lowered slot passes the base slots
    below it, so dX[L] = (-1)^s dx^B with s the number of (base, lowered)
    pairs in increasing order.  And dx^I = dx^B ^ dx^F = (-1)^{|B||F|}
    dx^F ^ dx^B."""
    lowered, b, s = [], 0, 0
    for i in range(chart.n):
        if b < len(idx) and idx[b] == i:
            b += 1
        else:
            lowered.append(str(i + 1))
            s += b
    factors = [f"d({chart.coords[i]})" for i in idx[b:]]
    if b:
        s += b * (len(idx) - b)
        factors.append(f"dX[{','.join(lowered)}]")
    return -1 if s & 1 else 1, factors


def _assemble(terms):
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def render_form(form):
    if form.degree == 0:
        return render_scalar(form.scalar())
    terms = []
    for idx in sorted(form.data):
        sign, factors = _render_form_indices(form.chart, idx)
        coeff = form.data[idx]
        terms.append(_term(coeff if sign > 0 else -coeff, " ^ ".join(factors)))
    return _assemble(terms)


def render_mv(mv):
    if mv.degree == 0:
        return render_scalar(mv.data.get((), 0))
    return _assemble([_term(mv.data[idx], " ^ ".join(f"@/{mv.chart.coords[i]}" for i in idx))
                      for idx in sorted(mv.data)])


def render_mvform(w):
    if not w.data:
        return "0"
    terms = []
    for (fidx, vidx) in sorted(w.data):
        coeff = w.data[(fidx, vidx)]
        if w.form_degree == 0:
            fsign, ffactors = 1, ["1"]
        else:
            fsign, ffactors = _render_form_indices(w.chart, fidx)
        fbody = " ^ ".join(ffactors)
        vbody = " ^ ".join(f"@/{w.chart.coords[i]}" for i in vidx) if vidx else "1"
        terms.append(_term(coeff if fsign > 0 else -coeff, f"{fbody} @ {vbody}"))
    return _assemble(terms)


def render(obj):
    if isinstance(obj, Form):
        return render_form(obj)
    if isinstance(obj, MultiVector):
        return render_mv(obj)
    if isinstance(obj, MvForm):
        return render_mvform(obj)
    return render_scalar(obj)
