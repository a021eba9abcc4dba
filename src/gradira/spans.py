"""Function-coefficient modules of forms and multivectors.

A Span is a finite generator list; membership means decomposability with
scalar-field coefficients.  One row elimination of the generators answers
every question: a target is reduced as one more row, and its remainder
vanishes iff it is a member.  Rank is not assumed constant: duplicate or
zero generators are tolerated.  On a span with relations the particular
decomposition is the one that is zero on the generators that depend on
earlier ones.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .errors import DegreeError
from .forms import MultiVector, _contract_by_pair, _pairing_rows
from .linsolve import Echelon, nullspace

__all__ = ["Span", "annihilator", "decompose_over", "generator_echelon"]


def generator_echelon(generators):
    """The elimination behind every span question over ``generators``: one
    row per generator, keyed by position, one unknown per component key
    (sorted).

    Works uniformly for Forms, MultiVectors and MvForms through their
    sparse ``data`` maps; ``Echelon.express`` of a target's ``data`` is its
    decomposition.
    """
    datas = [g.data for g in generators]
    return Echelon(datas, sorted(set().union(*datas)))


def decompose_over(generators, target):
    """Coefficients {i: f_i} with target = sum f_i * generators[i], or None."""
    return generator_echelon(generators).express(target.data)


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
        """Membership with witness: coefficients {generator position: f} in
        position order, or None."""
        return self.echelon.express(target.data)

    def contains(self, target):
        return self.echelon.express(target.data) is not None

    def kernel(self):
        """Module relations among the generators, {position: f}: one per
        generator that decomposes over the ones before it."""
        return list(self.echelon.dependent.values())

    def reduced(self):
        """An independent generating sublist (greedy, order-preserving).

        Returns (span, kept_indices).  A generator is dropped iff it
        decomposes over the ones before it, i.e. its row of the span's
        elimination reduces to zero; with none dropped the span itself,
        elimination and all, is returned.  Otherwise the reduced span
        takes ``Echelon.independent`` of this elimination as its own, so
        its generators are not eliminated again.
        """
        dependent = self.echelon.dependent
        kept = [i for i in range(len(self.generators)) if i not in dependent]
        if not dependent:
            return self, kept
        span = Span(self.chart, self.degree, [self.generators[i] for i in kept], self.kind)
        span.echelon = self.echelon.independent()
        return span, kept

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
