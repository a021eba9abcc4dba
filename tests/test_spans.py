from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gradira import (Chart, Form, MultiVector, Span, Structure, annihilator, build_span_tower,
                     volume_contraction, wedge)
from gradira.forms import linear_combination
from gradira.linsolve import Echelon
from gradira.spans import decompose_over, generator_echelon

from naive import naive_generator_echelon, naive_rank


def test_membership_with_function_coefficients(red2):
    ch = red2.chart
    span = red2.structure.span(2)
    target = ch.sym("p1_1") * wedge(
        Form.d_coord(ch, "y1"), volume_contraction(ch, [0])
    )
    sol = span.decompose(target)
    assert sol is not None
    # a form outside the module
    bad = wedge(Form.d_coord(ch, "y1"), Form.d_coord(ch, "p2_1"))
    assert not span.contains(bad)


def test_annihilator_k1_is_zero_on_reduced(red2):
    k1 = annihilator(red2.structure.span(1), 1)
    assert len(k1.generators) == 0


def test_annihilator_of_semibasic_span_is_vertical(red2):
    ch = red2.chart
    semi = Span(ch, 1, [Form.d_coord(ch, "x1"), Form.d_coord(ch, "x2")])
    k1 = annihilator(semi, 1)
    got = {idx for g in k1.generators for idx in g.data}
    assert got == {(2,), (3,), (4,)}  # the vertical directions


def test_kn_contains_momentum_bivector(red2):
    # K_2 on the reduced chart contains d/dp^1 ^ d/dp^2-type bivectors
    ch = red2.chart
    k2 = annihilator(red2.structure.span(2), 2)
    candidate = wedge(
        MultiVector.coord_vector(ch, "p1_1"), MultiVector.coord_vector(ch, "p2_1")
    )
    sol = decompose_over(k2.generators, candidate)
    assert sol is not None
    # cross-check: candidate kills every S^2 generator
    from gradira import contract

    for g in red2.structure.generators(2):
        assert contract(candidate, g).is_zero()


def test_reduced_generating_set_drops_duplicates(red2):
    ch = red2.chart
    g = Form.d_coord(ch, "y1")
    span = Span(ch, 1, [g, 2 * g, Form.d_coord(ch, "x1"), Form.zero(ch, 1)])
    reduced, kept = span.reduced()
    assert len(reduced.generators) == 2
    assert kept == [0, 2]


CHART = Chart(base=["x1", "x2"], fiber=["y1", "y2"])
X, Y = CHART.sym("x1"), CHART.sym("y1")
KEYS = list(combinations(range(CHART.m), 2))
# function coefficients as in the rescaled test structures, (1 + y1)^k
COEFFS = [1, -1, 2, sympy.Rational(-1, 2), X, 1 + Y, (1 + Y) ** 2, -(1 + Y) ** 3]
coeffs = st.sampled_from(COEFFS)


def combination(pairs):
    """sum c * g over (c, g) pairs of 2-forms on CHART."""
    return linear_combination(pairs, Form.zero(CHART, 2))


@st.composite
def spans_and_targets(draw):
    """(generators, targets): sparse 2-forms on all keys but the last, with
    planted duplicates, zero generators and combinations of two earlier
    generators, shuffled; targets are combinations of the generators and
    sparse forms that may hold the last key, which no generator holds."""
    cells = st.dictionaries(st.sampled_from(KEYS[:-1]), coeffs, min_size=1, max_size=3)
    gens = [Form(CHART, 2, data) for data in draw(st.lists(cells, min_size=1, max_size=5))]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i, k = (draw(st.integers(0, len(gens) - 1)) for _ in range(2))
        kind = draw(st.sampled_from(["duplicate", "zero", "combination"]))
        if kind == "duplicate":
            gens.append(draw(coeffs) * gens[i])
        elif kind == "zero":
            gens.append(Form.zero(CHART, 2))
        else:
            gens.append(combination([(draw(coeffs), gens[i]), (draw(coeffs), gens[k])]))
    gens = [gens[i] for i in draw(st.permutations(range(len(gens))))]
    members = [combination([(c, g) for c, g in zip(draw(st.lists(
        coeffs, min_size=len(gens), max_size=len(gens))), gens)]) for _ in range(2)]
    others = [Form(CHART, 2, data) for data in draw(st.lists(
        st.dictionaries(st.sampled_from(KEYS), coeffs, max_size=3), min_size=1, max_size=3))]
    return gens, members + others


@settings(max_examples=60, deadline=None)
@given(spans_and_targets())
def test_span_questions_match_the_column_form_oracle(case):
    gens, targets = case
    span = Span(CHART, 2, gens)
    oracle = naive_generator_echelon(gens)
    dependent = span.echelon.dependent
    rank = naive_rank([[g.data[k].as_expr() if k in g.data else 0 for k in KEYS]
                       for g in gens])
    # one relation per generator beyond the rank, each vanishing, and
    # ``reduced`` keeps the others, as the span itself when none depends
    relations = span.kernel()
    assert len(relations) == len(gens) - rank
    for relation in relations:
        assert combination((c, gens[i]) for i, c in relation.items()).is_zero()
    reduced, kept = span.reduced()
    assert kept == [i for i in range(len(gens)) if i not in dependent]
    assert (reduced is span) == (not dependent)
    for target in targets:
        got, expected = span.decompose(target), oracle.solve(target.data)
        assert span.contains(target) == (got is not None) == (expected is not None)
        if got is None:
            continue
        assert combination((c, gens[i]) for i, c in got.items()) == target
        assert list(got) == sorted(got)
        if dependent:
            assert not set(got) & set(dependent)
        else:
            assert got == expected


@pytest.mark.parametrize("a, j", [(2, 2), (3, 2)])
def test_tower_span_is_eliminated_once_and_never_solved(red2, monkeypatch, a, j):
    # the admitted span of a tower is the one ``reduced`` returns: its
    # generators are eliminated as rows exactly once, and its membership
    # queries (the rejected pass) reduce one row each, with no solve.  At
    # (2, 2) the relations are independent, so ``reduced`` returns the span
    # of the relations itself; at (3, 2) one of five relations depends on
    # the others
    top = red2.structure
    structure = Structure(top.chart, top.generators(top.n), top.sharp_values(top.n))
    built, solved, expressed = [], [], []
    real_init, real_solve, real_express = Echelon.__init__, Echelon.solve, Echelon.express

    def counting_init(self, rows, unknowns):
        built.append(rows)
        real_init(self, rows, unknowns)

    def counting_solve(self, rhs):
        solved.append(self)
        return real_solve(self, rhs)

    def counting_express(self, row):
        expressed.append(self)
        return real_express(self, row)

    monkeypatch.setattr(Echelon, "__init__", counting_init)
    monkeypatch.setattr(Echelon, "solve", counting_solve)
    monkeypatch.setattr(Echelon, "express", counting_express)
    level = build_span_tower(structure, a, j, vertical=True)
    datas = [g.data for g in level.span.generators]
    assert level.entries and level.rejected()
    # one elimination holds the span's generators as rows: the span's own
    # at (2, 2), the relations' at (3, 2), which ``reduced`` re-keys
    covering = [rows for rows in built if isinstance(rows, list) and holds_in_order(rows, datas)]
    assert [len(rows) for rows in covering] == [len(datas) + (a == 3)]
    echelon = level.span.echelon
    assert expressed and all(e is echelon for e in expressed)
    assert not any(e is echelon for e in solved)


def holds_in_order(rows, datas):
    """True when the dicts ``datas`` are, by identity, a subsequence of ``rows``."""
    rest = iter(rows)
    return all(any(r is d for r in rest) for d in datas)


def test_every_relation_span_is_eliminated_once(red2, monkeypatch):
    # at every (a, j, vertical) of reduced_canonical(2, 1) exactly one
    # elimination holds the admitted span's generators as rows, though the
    # relation forms have dependents at most keys: ``reduced`` hands its
    # span the elimination of the relations instead of eliminating the kept
    # ones again
    top = red2.structure
    structure = Structure(top.chart, top.generators(top.n), top.sharp_values(top.n))
    built = []
    real_init = Echelon.__init__

    def counting_init(self, rows, unknowns):
        built.append(rows)
        real_init(self, rows, unknowns)

    monkeypatch.setattr(Echelon, "__init__", counting_init)
    with_dependents = 0
    for j in range(1, structure.n + 1):
        for a in range(j, structure.chart.m + 1):
            for vertical in (False, True):
                built.clear()
                datas = [g.data for g in build_span_tower(structure, a, j, vertical).span]
                assert datas, (a, j, vertical)
                covering = [rows for rows in built
                            if isinstance(rows, list) and holds_in_order(rows, datas)]
                assert len(covering) == 1, (a, j, vertical)
                with_dependents += len(covering[0]) > len(datas)
    assert with_dependents == 15


def pivot_items(echelon):
    return [(c, list(row.items()), list(combo.items()))
            for c, (row, combo) in echelon.pivots.items()]


@settings(max_examples=60, deadline=None)
@given(spans_and_targets())
def test_reduced_span_reads_the_first_elimination(case):
    # the reduced span's elimination, re-keyed from the span's own, is the
    # one a fresh elimination of the kept generators builds: the same
    # unknowns, pivots (rows and combinations, order included) and row
    # keys, nothing dependent, and the same answer for every target
    gens, targets = case
    reduced, kept = Span(CHART, 2, gens).reduced()
    got, fresh = reduced.echelon, generator_echelon(reduced.generators)
    assert got.unknowns == fresh.unknowns
    assert pivot_items(got) == pivot_items(fresh)
    assert got.dependent == fresh.dependent == {}
    assert got.row_keys == fresh.row_keys == {i: i for i in range(len(kept))}
    for target in targets + gens:
        assert got.express(target.data) == fresh.express(target.data)
