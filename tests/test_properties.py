"""Property-based checks of the algebraic identities on random inputs."""

from itertools import combinations

import sympy
from hypothesis import given, settings, strategies as st

from gradira import (
    Chart,
    Form,
    MultiVector,
    contract,
    exterior_derivative,
    lie_derivative,
    schouten,
    wedge,
)
from gradira.calculus import _exterior_derivative

CHART = Chart(base=["x1", "x2"], fiber=["y1", "p1_1", "p2_1"])
M = CHART.m

coeffs = st.integers(min_value=-3, max_value=3)
coords = st.integers(min_value=0, max_value=M - 1)


def form_strategy(degree, poly=True):
    indices = list(combinations(range(M), degree))

    def build(pairs):
        data = {}
        for pos, c, s, e in pairs:
            idx = indices[pos % len(indices)]
            term = sympy.Integer(c) * CHART.syms[s] ** e
            data[idx] = data.get(idx, sympy.Integer(0)) + term
        return Form(CHART, degree, data)

    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(indices) - 1),
                  coeffs, coords, st.integers(min_value=0, max_value=2)),
        min_size=1, max_size=3,
    ).map(build)


def mv_strategy(degree):
    indices = list(combinations(range(M), degree))

    def build(pairs):
        data = {}
        for pos, c, s in pairs:
            idx = indices[pos % len(indices)]
            data[idx] = data.get(idx, sympy.Integer(0)) + c * CHART.syms[s]
        return MultiVector(CHART, degree, data)

    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(indices) - 1),
                  coeffs, coords),
        min_size=1, max_size=2,
    ).map(build)


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=3),
    b=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_wedge_graded_commutative(a, b, data):
    if a + b > M:
        return
    alpha = data.draw(form_strategy(a))
    beta = data.draw(form_strategy(b))
    sign = (-1) ** (a * b)
    assert wedge(alpha, beta) == sign * wedge(beta, alpha)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), degree=st.integers(min_value=0, max_value=3))
def test_d_squared_zero(data, degree):
    alpha = data.draw(form_strategy(degree))
    assert exterior_derivative(exterior_derivative(alpha)).is_zero()


@settings(max_examples=30, deadline=None)
@given(data=st.data(), degree=st.integers(min_value=0, max_value=M))
def test_kept_d_is_the_kernel_d_of_a_copy(data, degree):
    alpha = data.draw(form_strategy(degree))
    dalpha = exterior_derivative(alpha)
    assert dalpha == _exterior_derivative(Form(CHART, degree, dict(alpha.data)))
    assert exterior_derivative(alpha) is dalpha


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_contraction_composition(data):
    alpha = data.draw(form_strategy(3))
    u = data.draw(mv_strategy(1))
    v = data.draw(mv_strategy(1))
    uv = wedge(u, v)
    if uv.is_zero():
        return
    assert contract(uv, alpha) == contract(v, contract(u, alpha))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), p=st.integers(min_value=1, max_value=2))
def test_lie_derivative_definition(data, p):
    alpha = data.draw(form_strategy(2))
    u = data.draw(mv_strategy(p))
    if p > alpha.degree + 1:
        return
    first = exterior_derivative(contract(u, alpha)) if p <= alpha.degree else \
        Form.zero(CHART, alpha.degree - p + 1)
    second = contract(u, exterior_derivative(alpha))
    expected = first + second if p % 2 else first - second
    assert lie_derivative(u, alpha) == expected


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_schouten_jacobi_vectors(data):
    # graded Jacobi on three vector fields reduces to the ordinary one
    x = data.draw(mv_strategy(1))
    y = data.draw(mv_strategy(1))
    z = data.draw(mv_strategy(1))
    jac = schouten(x, schouten(y, z)) + schouten(y, schouten(z, x)) + \
        schouten(z, schouten(x, y))
    assert jac.is_zero()


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_wedge_associative(data):
    alpha = data.draw(form_strategy(1))
    beta = data.draw(form_strategy(1))
    gamma = data.draw(form_strategy(2))
    assert wedge(wedge(alpha, beta), gamma) == wedge(alpha, wedge(beta, gamma))
