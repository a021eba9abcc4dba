"""Function-coefficient modules of forms and multivectors.

A Span is a finite generator list; membership means decomposability with
scalar-field coefficients, decided by one exact linear solve.  Rank is not
assumed constant: duplicate or zero generators are tolerated.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .errors import DegreeError
from .forms import MultiVector, _contract_by_pair, _pairing_rows
from .linsolve import Echelon, LinearSolution, nullspace

__all__ = ["Span", "annihilator", "decompose_over", "generator_echelon"]


def generator_echelon(generators):
    """The elimination behind every decomposition over ``generators``:
    one row per component key (sorted), one unknown per generator.

    Works uniformly for Forms, MultiVectors and MvForms through their
    sparse ``data`` maps; a target's ``data`` is its right-hand side.
    """
    keys = sorted(set().union(*(g.data for g in generators)))
    rows = {key: {i: g.data[key] for i, g in enumerate(generators) if key in g.data}
            for key in keys}
    return Echelon(rows, range(len(generators)))


def decompose_over(generators, target):
    """Coefficients f_i with target = sum f_i * generators[i], or None."""
    return generator_echelon(generators).solve(target.data)


class Span:
    """A finitely generated module of homogeneous graded objects.

    Its elimination is built on first use and kept, so every membership
    and decomposition query reduces only the target.
    """

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

    @cached_property
    def echelon(self):
        return generator_echelon(self.generators)

    def decompose(self, target):
        """Membership with witness: particular coefficient vector or None."""
        if target.is_zero():
            return LinearSolution({})
        return self.echelon.solve(target.data)

    def contains(self, target):
        return self.decompose(target) is not None

    def kernel(self):
        """Module relations among the generators."""
        return list(self.echelon.kernel)

    def reduced(self):
        """An independent generating sublist (greedy, order-preserving).

        Returns (span, kept_indices).  A generator is dropped iff it
        decomposes over the ones before it: one elimination with the
        generators as rows, keeping each row that does not reduce to zero.
        """
        keys = sorted(set().union(*(g.data for g in self.generators)))
        echelon = Echelon([g.data for g in self.generators], keys)
        kept = [i for i in range(len(self.generators)) if i not in echelon.dependent]
        return Span(self.chart, self.degree,
                    [self.generators[i] for i in kept], self.kind), kept

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
    rows = _pairing_rows(unknowns, [g.data for g in span.generators], _contract_by_pair)
    gens = [MultiVector(chart, p, dict(vec)) for vec in nullspace(rows, unknowns)]
    return Span(chart, p, gens, kind="multivector")
