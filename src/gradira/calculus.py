"""Pointwise-free calculus: d, Lie derivatives, Schouten bracket and the
radial homotopy primitive for closed polynomial forms."""

from __future__ import annotations

from . import scalars
from .errors import DegreeError, NonPolynomialError, NotClosedError
from .forms import (Form, MultiVector, MvForm, _bilinear, _combination,
                    _coordinate_contractions, contract, linear_combination)
from .multiindex import merge
from .render import render_scalar

__all__ = [
    "exterior_derivative",
    "lie_derivative",
    "lie_derivative_mvform",
    "schouten",
    "poincare_primitive",
]


def exterior_derivative(alpha):
    """Coordinate exterior derivative; top degree input returns the zero form.

    d of a form is computed once and kept on the form, next to a stamp of
    its chart's function table: the table's length, which only grows
    (``Chart.declare_function`` adds, never removes).  A kept d is
    returned, the same object each time, while the stamp matches; after a
    declaration it is computed again, so new formal partials show up.  No
    code changes a form's data in place, which keeping d relies on.
    """
    stamp = len(alpha.chart.functions)
    kept = getattr(alpha, "_d", None)
    if kept is not None and kept[0] == stamp:
        return kept[1]
    dalpha = _exterior_derivative(alpha)
    alpha._d = (stamp, dalpha)
    return dalpha


def _exterior_derivative(alpha):
    """The uncached kernel of ``exterior_derivative``."""
    chart = alpha.chart
    if alpha.degree >= chart.m:
        return Form.zero(chart, chart.m if alpha.degree == chart.m else alpha.degree + 1)
    data = {}
    for idx, c in alpha.data.items():
        for i, dc in scalars.diff(c, chart).items():
            sign, merged = merge((i,), idx)
            if sign:
                scalars.accumulate(data, merged, dc, sign)
    return Form(chart, alpha.degree + 1, data, _normalized=True)


def lie_derivative(u, alpha):
    """Lie derivative along a multivector field,
    L_U alpha = d iota_U alpha - (-1)^p iota_U d alpha."""
    p = u.degree
    if p > alpha.degree + 1:
        raise DegreeError(
            f"Lie derivative needs multivector degree <= form degree + 1"
        )
    if p <= alpha.degree:
        first = exterior_derivative(contract(u, alpha))
    else:
        first = Form.zero(alpha.chart, alpha.degree - p + 1)
    second = contract(u, exterior_derivative(alpha))
    if p % 2:
        return first + second
    return first - second


def lie_derivative_mvform(x, w):
    """Componentwise Lie derivative of a multivector valued form along a
    vector field: L_X (theta (x) U) = L_X theta (x) U + theta (x) [X, U]."""
    if x.degree != 1:
        raise DegreeError("lie_derivative_mvform needs a vector field")
    terms = []
    for (fidx, vidx), c in w.data.items():
        theta = Form(w.chart, w.form_degree, {fidx: c}, _normalized=True)
        u = MultiVector(w.chart, w.vec_degree, {vidx: scalars.ONE}, _normalized=True)
        terms.append((1, MvForm.tensor(lie_derivative(x, theta), u)))
        terms.append((1, MvForm.tensor(theta, schouten(x, u))))
    return linear_combination(terms, w)


def _partials(data, chart):
    """{k: d(data)/dx^k} over the coordinates k a multivector's coefficient
    dict depends on, from one gradient per coefficient."""
    out = {}
    for idx, c in data.items():
        for k, dc in scalars.diff(c, chart).items():
            out.setdefault(k, {})[idx] = dc
    return out


def schouten_data(chart, p, udata, q, vdata):
    """The coefficient dict of the Schouten bracket [U, V] of a p-vector
    and a q-vector given by theirs: the kernel of ``schouten``."""
    s1 = -1 if (p - 1) % 2 else 1
    s2 = -1 if (p * (q - 1)) % 2 == 0 else 1
    du_dx, dv_dx = _partials(udata, chart), _partials(vdata, chart)
    # the left Grassmann derivatives d/dxi_k are iota by dx^k; an operand's
    # are taken only when the other one has partials to meet them
    du_dxi = _coordinate_contractions(udata) if dv_dx else {}
    dv_dxi = _coordinate_contractions(vdata) if du_dx else {}
    out = {}
    for k in sorted(du_dx.keys() | dv_dx.keys()):
        for sign, xi_k, partial in ((s1, du_dxi.get(k), dv_dx.get(k)),
                                    (s2, dv_dxi.get(k), du_dx.get(k))):
            if xi_k and partial:
                for key, c in _bilinear(xi_k, partial, merge).items():
                    scalars.accumulate(out, key, c, sign)
    return out


def schouten(u, v):
    """Schouten-Nijenhuis bracket with Marle's sign conventions.

    Computed through the odd-cotangent representation: writing multivectors
    as superfunctions P(x, xi) with left Grassmann derivatives,

        [P, Q] = (-1)^{p-1} dP/dxi_k ^ dQ/dx^k
                 - (-1)^{p(q-1)} dQ/dxi_k ^ dP/dx^k.

    The two signs are pinned by the axioms (Lie bracket on vectors, the
    right Leibniz rule [P, Q^R] = [P,Q]^R + (-1)^{(p-1) deg Q} Q^[P,R] and
    graded skew [P,Q] = -(-1)^{(p-1)(q-1)}[Q,P]), cross-checked in the
    tests against the recursive expansion on decomposables.
    """
    if u.chart != v.chart:
        raise DegreeError("Schouten bracket across charts")
    p, q = u.degree, v.degree
    if p < 1 or q < 1:
        raise DegreeError("schouten needs multivector degrees >= 1")
    return MultiVector(u.chart, p + q - 1, schouten_data(u.chart, p, u.data, q, v.data),
                       _normalized=True)


def poincare_primitive(alpha):
    """A primitive of a closed polynomial form via the radial homotopy
    operator on a star-shaped chart.

    Raises NotClosedError if d(alpha) != 0 and NonPolynomialError when a
    coefficient is not polynomial in the coordinates.
    """
    chart = alpha.chart
    if alpha.degree == 0:
        if alpha.is_zero():
            return Form.zero(chart, 0)
        raise NotClosedError("a nonzero 0-form has no primitive")
    for c in alpha.data.values():
        if not scalars.is_polynomial(c, chart):
            raise NonPolynomialError(f"coefficient {render_scalar(c)} is not polynomial")
    if exterior_derivative(alpha):
        raise NotClosedError("poincare_primitive needs a closed form")
    a = alpha.degree
    coords = [scalars.as_scalar(s) for s in chart.syms]
    # each monomial of degree |e| rescaled by 1/(a + |e|), then contracted
    # by the Euler field x^i d/dx^i
    scaled = {}
    for idx, c in alpha.data.items():
        for coeff, exps in scalars.poly_monomials(c, chart):
            term = coeff / (a + sum(exps))
            for x, e in zip(coords, exps):
                if e:
                    term = term * x**e
            scalars.accumulate(scaled, idx, term)
    contractions = _coordinate_contractions(scaled)
    return Form(chart, a - 1, _combination((coords[i], contractions[i])
                                           for i in sorted(contractions)),
                _normalized=True)
