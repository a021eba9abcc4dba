"""A chart's function table holds only what was declared: formal partials
are derived names, and no computation adds to the table."""

import pytest
import sympy

from gradira import (
    Chart,
    Form,
    Hamiltonian,
    MultiVector,
    Section,
    build_span_tower,
    exterior_derivative,
    hdw_residuals,
    parse_expression,
    reduced_canonical,
    schouten,
)
from gradira import scalars
from gradira.errors import ChartError, ParseError
from gradira.render import render, render_form


def test_function_args_resolves_declared_names_and_sorted_partials():
    ch = Chart(base=["x1", "x2"], fiber=["y1"])
    ch.declare_function("H", ["x1", "y1"])
    args = ("x1", "y1")
    assert ch.function_args("H") == args
    assert ch.function_args("H__y1") == args
    assert ch.function_args("H__x1__y1") == args
    assert ch.function_args("H__y1__x1") is None  # not canonically sorted
    assert ch.function_args("H__x2") is None  # not an argument
    assert ch.function_args("G__x1") is None  # not declared
    assert ch.function_args("x1") is None
    assert ch.partial_symbol("H__y1", "x1") == sympy.Symbol("H__x1__y1")
    assert ch.partial_symbol("H", "x2") is None
    assert ch.functions == {"H": args}


def test_function_names_may_not_contain_the_partial_separator():
    ch = Chart(base=["x1"], fiber=["y1"])
    with pytest.raises(ChartError):
        ch.declare_function("H__y1", ["x1", "y1"])
    assert ch.functions == {}


def test_names_ending_in_underscore_are_rejected():
    # h_ would name its partial along y1 h___y1, which reads back as
    # D(h,_y1); a coordinate y_ makes H__y___z1 unresolvable, so that d of
    # D(H,y_,z1) would silently be 0
    ch = Chart(base=["x1"], fiber=["y1"])
    with pytest.raises(ChartError, match="'h_' may not end in '_'"):
        ch.declare_function("h_", ["x1", "y1"])
    assert ch.functions == {}
    with pytest.raises(ChartError, match="'y_' may not end in '_'"):
        Chart(base=["x1"], fiber=["y_", "z1"])
    ch.declare_function("h_1", ["x1", "y1"])
    value = parse_expression("D(h_1,y1)", ch)
    assert render(value) == "D(h_1,y1)"
    assert parse_expression(render(value), ch) == value


def test_no_computation_adds_to_the_function_table():
    scn = reduced_canonical(2, 1)
    ch = scn.chart
    before = dict(ch.functions)
    h = sympy.Symbol("H")
    dh = exterior_derivative(scn.hamiltonian_form)
    exterior_derivative(Form.scalar_form(ch, h * ch.sym("y1")))
    u = h * MultiVector.coord_vector(ch, "x1")
    v = sympy.Symbol("H__y1") * MultiVector.coord_vector(ch, "p1_1")
    schouten(u, v)
    value = parse_expression("D(H,y1,x1) * dX[] + D(H,p1_1) * d(y1) ^ dX[1]", ch)
    render(value)
    render_form(dh)
    ham = Hamiltonian(scn.hamiltonian_form, scn.structure)
    hdw_residuals(ham, Section(ch), scn.hamiltonian_generators)
    build_span_tower(scn.structure, 3, 2, vertical=True)
    assert ch.functions == before


def test_raw_partial_name_is_rejected_before_and_after_d():
    scn = reduced_canonical(2, 1)
    ch = scn.chart

    def error():
        with pytest.raises(ParseError) as err:
            parse_expression("H__y1", ch)
        return str(err.value)

    first = error()
    assert "unknown partial symbol 'H__y1'" in first
    exterior_derivative(scn.hamiltonian_form)
    assert error() == first


EXPECTED_D = "-D(H,p1_1,x1) * dX[2] + D(H,p1_1,x2) * dX[1]"


def _base_d_of_partial(ch):
    base = Section(ch).base_chart
    return render_form(exterior_derivative(
        Form.scalar_form(base, sympy.Symbol("H__p1_1"))))


@pytest.mark.parametrize("d_h_first", [False, True])
def test_section_derivative_of_a_partial_ignores_history(d_h_first):
    scn = reduced_canonical(2, 1)
    if d_h_first:
        exterior_derivative(scn.hamiltonian_form)
    assert _base_d_of_partial(scn.chart) == EXPECTED_D


def test_d_takes_one_gradient_per_coefficient(monkeypatch):
    scn = reduced_canonical(2, 1)
    ch = scn.chart
    calls = []
    real = scalars.diff

    def counting(expr, chart):
        calls.append(expr)
        return real(expr, chart)

    monkeypatch.setattr(scalars, "diff", counting)
    forms = [scn.hamiltonian_form,
             parse_expression("H * y1 * d(p1_1) + x1**2 * d(y1) - D(H,y1) * d(x2)", ch),
             Form.scalar_form(ch, sympy.Symbol("H"))]
    for alpha in forms:
        calls.clear()
        exterior_derivative(alpha)
        assert len(calls) == len(alpha.data) > 0


@pytest.mark.parametrize("name, fault", [
    ("1y", "is not an identifier"),
    ("y-1", "is not an identifier"),
    ("y__1", "may not contain '__'"),
    ("y_", "may not end in '_'"),
])
def test_coordinate_and_function_names_share_one_check(name, fault):
    with pytest.raises(ChartError) as coordinate:
        Chart(base=["x1"], fiber=[name])
    ch = Chart(base=["x1"], fiber=["y1"])
    with pytest.raises(ChartError) as function:
        ch.declare_function(name, ["x1"])
    assert str(coordinate.value) == f"coordinate name {name!r} {fault}"
    assert str(function.value) == f"function name {name!r} {fault}"
    assert ch.functions == {}
