"""Canonical text rendering of scalars, forms and multivectors.

The output is re-parseable by the expression grammar in parser.py and is
deterministic: terms are emitted in increasing multi-index order, scalar
coefficients in sympy's canonical order.  The base-coordinate block of a
form term is rendered through the volume-contraction primitive
``dX[mu, ...]`` mirroring the d^{n-1}x_mu notation, so reports read like
textbook coordinate formulas.
"""

from __future__ import annotations

import sympy
from sympy.printing.str import StrPrinter

from .chart import _PARTIAL_SEP
from .multiindex import contract_index


class _ScalarPrinter(StrPrinter):
    def _print_Symbol(self, expr):
        name = expr.name
        if _PARTIAL_SEP in name:
            parts = name.split(_PARTIAL_SEP)
            return f"D({parts[0]},{','.join(parts[1:])})"
        return name


_printer = _ScalarPrinter({"order": "lex"})


def render_scalar(value):
    return _printer.doprint(sympy.sympify(value))


def _term(coeff, body):
    """One product term: ``body``, ``-body`` or ``c * body``, with a sum
    coefficient parenthesised."""
    expr = sympy.sympify(coeff)
    if expr == 1:
        return body
    if expr == -1:
        return f"-{body}"
    text = render_scalar(expr)
    if expr.is_Add:
        text = f"({text})"
    return f"{text} * {body}"


def _render_form_indices(chart, idx):
    """Render dx^I as (sign, [factors]) using d(c) atoms for fiber slots
    and a dX[...] block for the base slots."""
    n = chart.n
    base_part = tuple(i for i in idx if i < n)
    fiber_part = tuple(i for i in idx if i >= n)
    factors = [f"d({chart.coords[i]})" for i in fiber_part]
    sign = 1
    if base_part:
        lowered = tuple(i for i in range(n) if i not in base_part)
        csign, rest = contract_index(tuple(range(n)), lowered)
        assert rest == base_part
        # dx^I = dx^B ^ dx^F = (-1)^{|B||F|} dx^F ^ dx^B and dX[mu] = csign * dx^B
        sign = csign * ((-1) ** (len(base_part) * len(fiber_part)))
        factors.append("dX[" + ",".join(str(i + 1) for i in lowered) + "]")
    return sign, factors


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
        terms.append(_term(form.data[idx] * sign, " ^ ".join(factors)))
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
        terms.append(_term(coeff * fsign, f"{fbody} @ {vbody}"))
    return _assemble(terms)


def render(obj):
    from .forms import Form, MultiVector, MvForm

    if isinstance(obj, Form):
        return render_form(obj)
    if isinstance(obj, MultiVector):
        return render_mv(obj)
    if isinstance(obj, MvForm):
        return render_mvform(obj)
    return render_scalar(obj)
