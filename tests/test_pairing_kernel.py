"""Pins on the contraction kernel: the S^a[j] pairing rows, the
annihilator and the volume contractions against explicit loop oracles and
literal values, on structures whose S^1 is full (red2, red3, red2k2),
has a non-constant dual frame (scaled), non-coordinate generators
(sheared) or lower rank (rank-deficient)."""

import pytest

from gradira import Form, MultiVector, annihilator, volume_contraction, volume_mv_contraction
from gradira.errors import ChartError, DegreeError
from naive import naive_annihilator, naive_pairing_rows
from test_extensions import rank_deficient, scaled, sheared

STRUCTURES = ["red2", "red3", "red2k2", "scaled", "sheared", "rank-deficient"]


def _structure(name, request):
    builders = {"scaled": scaled, "sheared": sheared, "rank-deficient": rank_deficient}
    if name in builders:
        return builders[name]()
    return request.getfixturevalue(name).structure


def _ordered(rows):
    """Rows with their order and the order of each row's unknowns."""
    return [(key, list(row.items())) for key, row in rows.items()]


@pytest.mark.parametrize("name", STRUCTURES)
def test_pairing_rows_match_loop_oracle(name, request):
    st = _structure(name, request)
    ch = st.chart
    for j in range(1, st.n + 1):
        for a in range(j, ch.m + 1):
            for vertical in (False, True):
                system = st.pairing_system(a, j, vertical)
                unknowns, rows = naive_pairing_rows(ch, st.generators(st.n), a - j,
                                                    st.n + 1 - j, vertical)
                assert system.unknowns == unknowns
                assert _ordered(system.rows) == _ordered(rows)


@pytest.mark.parametrize("name", STRUCTURES)
def test_annihilator_matches_loop_oracle(name, request):
    st = _structure(name, request)
    for p in range(1, st.n + 1):
        k = annihilator(st.span(p), p)
        assert (k.degree, k.kind) == (p, "multivector")
        assert [g.data for g in k.generators] == naive_annihilator(st.span(p), p)


# (slots, degree and coefficient dict of the result, or the exception
# type), on (x1, x2; y1, p1_1, p2_1)
VOLUME_CASES = {
    "ordered": ([0, 1], (0, {(): 1})),
    "unordered": ([1, 0], (0, {(): -1})),
    "names": (["x2", "x1"], (0, {(): -1})),
    "one-name": (["x2"], (1, {(0,): -1})),
    "one-index": ([1], (1, {(0,): -1})),
    "repeated": ([0, 0], (0, {})),
    "fiber-index": ([2], (1, {})),
    "fiber-name": (["y1"], (1, {})),
    "out-of-range": ([7], ChartError),
    "negative": ([-1], ChartError),
    "mixed-out-of-range": ([0, 7], ChartError),
    "float": ([1.0], ChartError),
    "too-many": ([0, 0, 0], DegreeError),
    "over-chart": ([0] * 6, DegreeError),
    "unknown-name": (["zz"], ChartError),
    "unknown-second-name": ([0, "zz"], ChartError),
}


@pytest.mark.parametrize("cls, contraction", [(Form, volume_contraction),
                                              (MultiVector, volume_mv_contraction)],
                         ids=["form", "multivector"])
@pytest.mark.parametrize("case", sorted(VOLUME_CASES))
def test_volume_contractions_pinned(red2, cls, contraction, case):
    ch = red2.chart
    lower, expected = VOLUME_CASES[case]
    if isinstance(expected, type):
        with pytest.raises(expected):
            contraction(ch, lower)
        return
    degree, data = expected
    assert contraction(ch, lower) == cls(ch, degree, data)


@pytest.mark.parametrize("contraction", [volume_contraction, volume_mv_contraction])
@pytest.mark.parametrize("slot", [7, -1, 1.0])
def test_volume_slot_error_names_the_slot(red2, contraction, slot):
    with pytest.raises(ChartError, match=f"slot {slot!r} names no coordinate"):
        contraction(red2.chart, [0, slot])


def test_volume_contractions_empty_is_the_volume(red2):
    ch = red2.chart
    assert volume_contraction(ch, []) == Form(ch, 2, {(0, 1): 1})
    assert volume_mv_contraction(ch, []) == MultiVector(ch, 2, {(0, 1): 1})
