"""Function-coefficient modules of forms and multivectors.

A Span is a finite generator list; membership means decomposability with
scalar-field coefficients, decided by one exact linear solve.  Rank is not
assumed constant: duplicate or zero generators are tolerated.
"""

from __future__ import annotations

from itertools import combinations

from . import scalars
from .errors import DegreeError
from .forms import MultiVector
from .linsolve import LinearSolution, nullspace, solve_linear
from .multiindex import contract_index

__all__ = ["Span", "annihilator", "coefficient_rows", "decompose_over"]


def coefficient_rows(generators, keys):
    """One row per key: {i: generators[i].data[key]} over the generators
    with a component at that key."""
    return [
        {i: g.data[key] for i, g in enumerate(generators) if key in g.data}
        for key in keys
    ]


def decompose_over(generators, target):
    """Coefficients f_i with target = sum f_i * generators[i], or None.

    Works uniformly for Forms, MultiVectors and MvForms through their
    sparse ``data`` maps.
    """
    keys = sorted(set(target.data).union(*(g.data for g in generators)))
    rows = [
        (coeffs, target.data.get(key, scalars.ZERO))
        for key, coeffs in zip(keys, coefficient_rows(generators, keys))
    ]
    return solve_linear(rows, list(range(len(generators))))


class Span:
    """A finitely generated module of homogeneous graded objects."""

    def __init__(self, chart, degree, generators, kind="form"):
        self.chart = chart
        self.degree = degree
        self.kind = kind
        self.generators = [g for g in generators]
        for g in self.generators:
            if g.chart != chart:
                raise DegreeError("span generator on wrong chart")
            if getattr(g, "degree", None) != degree:
                raise DegreeError(
                    f"span generator degree {getattr(g, 'degree', None)} != {degree}"
                )

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def decompose(self, target):
        """Membership with witness: particular coefficient vector or None."""
        if target.is_zero():
            return LinearSolution({})
        return decompose_over(self.generators, target)

    def contains(self, target):
        return self.decompose(target) is not None

    def kernel(self):
        """Module relations among the generators."""
        keys = sorted(set().union(*(g.data for g in self.generators)))
        rows = coefficient_rows(self.generators, keys)
        return nullspace(rows, list(range(len(self.generators))))

    def reduced(self):
        """An independent generating sublist (greedy, order-preserving).

        Returns (span, kept_indices).  A generator is dropped iff it
        decomposes over the ones kept before it.
        """
        kept = []
        kept_idx = []
        seen_keys = set()
        seen_exact = set()
        for i, g in enumerate(self.generators):
            if g.is_zero():
                continue
            fingerprint = (frozenset(g.data.items()),)
            if fingerprint in seen_exact:
                continue
            if not set(g.data) <= seen_keys:
                kept.append(g)
                kept_idx.append(i)
                seen_keys |= set(g.data)
                seen_exact.add(fingerprint)
                continue
            if kept and decompose_over(kept, g) is not None:
                continue
            kept.append(g)
            kept_idx.append(i)
            seen_keys |= set(g.data)
            seen_exact.add(fingerprint)
        return Span(self.chart, self.degree, kept, self.kind), kept_idx

    def __repr__(self):
        return f"Span(degree={self.degree}, kind={self.kind}, n={len(self.generators)})"


def annihilator(span, p):
    """Generators of the order-p annihilator of a span of forms:
    all p-multivectors U with iota_U g = 0 for every generator g."""
    if span.kind != "form":
        raise DegreeError("annihilator expects a span of forms")
    if p > span.degree:
        raise DegreeError("annihilator order exceeds span degree")
    chart = span.chart
    unknowns = list(combinations(range(chart.m), p))
    rows = []
    for g in span.generators:
        eqs = {}
        for fidx, c in g.data.items():
            for vidx in combinations(fidx, p):
                sign, rest = contract_index(fidx, vidx)
                scalars.accumulate(eqs.setdefault(rest, {}), vidx, c, sign)
        for coeffs in eqs.values():
            if coeffs:
                rows.append(coeffs)
    basis = nullspace(rows, unknowns)
    gens = [
        MultiVector(chart, p, dict(vec), _normalized=False) for vec in basis
    ]
    return Span(chart, p, gens, kind="multivector")
