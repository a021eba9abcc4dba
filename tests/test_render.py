"""Rendering against the sympy-printed oracle path of ``tests/naive.py``."""

from itertools import combinations

import sympy
from hypothesis import assume, given, settings, strategies as st

from gradira import Chart, Form, MultiVector, MvForm
from gradira.parser import parse_expression, parse_form, parse_multivector
from gradira.render import _render_form_indices, render

from naive import naive_render, naive_render_form_indices

CHART = Chart(base=["x1", "x2", "x3"], fiber=["y1", "p1"])
CHART.declare_function("H", ["x1", "y1"])
X, Y = CHART.sym("x1"), CHART.sym("y1")
H, H_Y = sympy.Symbol("H"), sympy.Symbol("H__y1")

# every kind of coefficient: the units, other integers, non-integer
# rationals of both signs, polynomials (sums are parenthesised, products
# and powers are not), a formal partial and rational functions
COEFFS = [1, -1, 2, -3, 12, sympy.Rational(1, 2), sympy.Rational(-5, 3),
          sympy.Rational(7, 4), X, -X, 2 * X * Y, X**2 / 3, X + 1, -X - Y,
          sympy.Rational(1, 2) * Y - X**2, H_Y, -H * X, 1 / (1 + Y), (X - 1) / (2 * Y + 3)]
coeffs = st.sampled_from(COEFFS)


def keys(degree):
    return st.sampled_from(list(combinations(range(CHART.m), degree)))


@st.composite
def graded(draw):
    """A random Form, MultiVector or MvForm on CHART, of any degree,
    empty ones included."""
    kind = draw(st.sampled_from(["form", "mv", "mvform"]))
    if kind == "mvform":
        fdeg, vdeg = draw(st.integers(0, CHART.m)), draw(st.integers(0, CHART.m))
        data = draw(st.dictionaries(st.tuples(keys(fdeg), keys(vdeg)), coeffs, max_size=5))
        return MvForm(CHART, fdeg, vdeg, data)
    degree = draw(st.integers(0, CHART.m))
    data = draw(st.dictionaries(keys(degree), coeffs, max_size=5))
    return (Form if kind == "form" else MultiVector)(CHART, degree, data)


@settings(max_examples=300, deadline=None)
@given(graded())
def test_render_matches_the_sympy_printed_oracle(obj):
    assert render(obj) == naive_render(obj)


@settings(max_examples=300, deadline=2000)
@given(graded())
def test_parse_of_render_gives_back_the_object(obj):
    text = render(obj)
    if isinstance(obj, Form):
        back = parse_form(text, CHART, degree=obj.degree)
    elif isinstance(obj, MultiVector):
        back = parse_multivector(text, CHART, degree=obj.degree)
    else:
        assume(obj)  # a zero MvForm renders as 0, which carries no grading
        back = parse_expression(text, CHART)
    assert back == obj
    assert render(back) == text


def test_form_indices_match_the_contraction_oracle():
    # every multi-index of every degree, on charts with n = 1..4 base and
    # 5 fiber coordinates
    fiber = [f"y{i}" for i in range(1, 6)]
    for n in range(1, 5):
        chart = Chart(base=[f"x{i}" for i in range(1, n + 1)], fiber=fiber)
        for degree in range(1, chart.m + 1):
            for idx in combinations(range(chart.m), degree):
                assert _render_form_indices(chart, idx) == \
                    naive_render_form_indices(chart, idx), (n, idx)
