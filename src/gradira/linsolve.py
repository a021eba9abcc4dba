"""Exact linear algebra over the scalar field.

Unknowns are arbitrary hashable keys with a caller-supplied canonical
order.  Formal function symbols and their partials ride along as
indeterminates of the coefficient field, so every solve is exact.

The particular solution is canonical: pivot columns are chosen greedily in
canonical order (preferring rational pivots within a column for clean
elimination), free unknowns are set to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import scalars
from .scalars import as_scalar


@dataclass
class LinearSolution:
    """Affine solution set of a linear system: particular + kernel basis."""

    particular: dict
    kernel: list = field(default_factory=list)


def _reduce_row(coeffs, rhs, pivots):
    """Eliminate all pivot columns from a row; returns (coeffs, rhs).

    Pivot rows are kept fully reduced (no pivot row holds another pivot
    column), so eliminating one pivot column brings in no other and one
    pass over the row's pivot columns suffices."""
    for col in [c for c in coeffs if c in pivots]:
        neg = scalars.sneg(coeffs.pop(col))
        prow, prhs = pivots[col]
        for c2, v2 in prow.items():
            if c2 != col:
                scalars.accumulate(coeffs, c2, scalars.smul(neg, v2))
        rhs = scalars.sadd(rhs, scalars.smul(neg, prhs))
    return coeffs, rhs


def solve_linear(rows, unknowns):
    """Solve a linear system over the scalar field.

    ``rows`` is a list of (coeffs: dict key->scalar, rhs: scalar);
    ``unknowns`` the ordered list of keys.  Returns a LinearSolution or
    None when the system is inconsistent.
    """
    order_index = {u: i for i, u in enumerate(unknowns)}
    pivots = {}

    for coeffs, rhs in rows:
        coeffs = {k: as_scalar(v) for k, v in coeffs.items() if as_scalar(v) != 0}
        rhs = as_scalar(rhs)
        coeffs, rhs = _reduce_row(coeffs, rhs, pivots)
        if not coeffs:
            if rhs != 0:
                return None
            continue
        cols = sorted(coeffs, key=order_index.get)
        pivot_col = next((c for c in cols if coeffs[c].is_Rational), cols[0])
        lead = coeffs.pop(pivot_col)
        inv = scalars.sdiv(scalars.ONE, lead)
        coeffs = {c: scalars.smul(inv, v) for c, v in coeffs.items()}
        rhs = scalars.smul(inv, rhs)
        # back-substitute into existing pivot rows
        for pcol, (prow, prhs) in list(pivots.items()):
            if pivot_col not in prow:
                continue
            neg = scalars.sneg(prow.pop(pivot_col))
            for c2, v2 in coeffs.items():
                scalars.accumulate(prow, c2, scalars.smul(neg, v2))
            pivots[pcol] = (prow, scalars.sadd(prhs, scalars.smul(neg, rhs)))
        row = dict(coeffs)
        row[pivot_col] = scalars.ONE
        pivots[pivot_col] = (row, rhs)

    particular = {col: prhs for col, (_, prhs) in pivots.items() if prhs != 0}
    kernel = []
    free_cols = [u for u in unknowns if u not in pivots]
    for f in free_cols:
        vec = {f: scalars.ONE}
        for pcol, (prow, _) in pivots.items():
            coeff = prow.get(f)
            if coeff is not None and coeff != 0:
                vec[pcol] = scalars.sneg(coeff)
        kernel.append(vec)
    return LinearSolution(particular, kernel)


def nullspace(rows, unknowns):
    """Kernel basis of a homogeneous system given as coefficient dicts."""
    sol = solve_linear([(coeffs, scalars.ZERO) for coeffs in rows], unknowns)
    return sol.kernel
