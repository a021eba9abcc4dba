import copy
import pickle
import random
import subprocess
import sys
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gradira import (
    Chart,
    Form,
    MultiVector,
    MvForm,
    bracket,
    contract,
    contract_form,
    contract_form_slot,
    exterior_derivative,
    identity_tensor,
    volume_contraction,
    wedge,
)
from gradira.errors import DegreeError
from gradira.parser import parse_expression
from gradira.render import render

from naive import (
    naive_contract,
    naive_mvform_contract,
    naive_mvform_wedge,
    naive_wedge,
)


def dform(chart, name):
    return Form.d_coord(chart, name)


def vec(chart, name):
    return MultiVector.coord_vector(chart, name)


def test_wedge_basic(chart5):
    w = wedge(dform(chart5, "x1"), dform(chart5, "x2"))
    assert w.data == {(0, 1): sympy.Integer(1)}


def test_wedge_odd_square_is_zero(chart5):
    alpha = dform(chart5, "y1") + 3 * dform(chart5, "x1")
    assert wedge(alpha, alpha).is_zero()


def test_wedge_graded_sign(chart5):
    a = wedge(dform(chart5, "x1"), dform(chart5, "y1"))
    b = dform(chart5, "p1_1")
    assert wedge(a, b) == wedge(b, a)  # (2,1): sign +
    c = dform(chart5, "x2")
    assert wedge(c, b) == -wedge(b, c)  # (1,1): sign -


def test_wedge_degree_overflow(chart5):
    top = Form(chart5, 5, {tuple(range(5)): 1})
    with pytest.raises(DegreeError):
        wedge(top, dform(chart5, "x1"))


def test_wedge_matches_naive_oracle(chart5):
    rng = random.Random(7)
    for _ in range(12):
        adeg, bdeg = rng.choice([(1, 1), (1, 2), (2, 2), (2, 1)])
        adata = {
            idx: sympy.Rational(rng.randint(-3, 3), rng.randint(1, 2))
            for idx in rng.sample(list(combinations(range(5), adeg)), 2)
        }
        bdata = {
            idx: sympy.Rational(rng.randint(-3, 3), rng.randint(1, 2))
            for idx in rng.sample(list(combinations(range(5), bdeg)), 2)
        }
        a = Form(chart5, adeg, adata)
        b = Form(chart5, bdeg, bdata)
        expected = naive_wedge(a.data, adeg, b.data, bdeg)
        assert wedge(a, b).data == expected


def test_volume_contraction_golden(chart5):
    # iota_{d/dx^mu} d^n x = d^{n-1}x_mu
    assert volume_contraction(chart5, [0]).data == {(1,): sympy.Integer(1)}
    assert volume_contraction(chart5, [1]).data == {(0,): sympy.Integer(-1)}


def test_iterated_contraction_composition(chart5):
    # iota_{X ^ Y} alpha = iota_Y iota_X alpha, against the naive expansion
    rng = random.Random(3)
    chart = Chart(base=["x1", "x2", "x3", "x4"], fiber=[])
    for _ in range(8):
        adata = {
            idx: sympy.Integer(rng.randint(-3, 3))
            for idx in rng.sample(list(combinations(range(4), 3)), 2)
        }
        alpha = Form(chart, 3, adata)
        x = vec(chart, "x1") + 2 * vec(chart, "x3")
        y = vec(chart, "x2") - vec(chart, "x4")
        lhs = contract(wedge(x, y), alpha)
        rhs = contract(y, contract(x, alpha))
        assert lhs == rhs
        # and against the naive dense contraction on decomposables
        naive = naive_contract(adata, 3, (0, 1))
        assert contract(wedge(vec(chart, "x1"), vec(chart, "x2")), alpha).data == naive


def test_contract_degree_error(chart5):
    u = wedge(vec(chart5, "x1"), vec(chart5, "x2"))
    with pytest.raises(DegreeError):
        contract(u, dform(chart5, "y1"))


def test_mvform_keys_follow_the_multi_index_rule(chart5):
    # each slot of an MvForm key is checked like a Form or MultiVector key:
    # indices on the chart, strictly increasing, as many as the degree;
    # a zero coefficient does not excuse a malformed key
    ch = Chart(base=["x1"], fiber=["y1", "p1"])
    bad = [(ch, 1, 1, ((7,), (0,))), (ch, 1, 1, ((0,), (-1,))),
           (chart5, 2, 1, ((1, 0), (0,))), (chart5, 1, 2, ((0,), (2, 2))),
           (chart5, 2, 1, ((0,), (1,))), (chart5, 1, 1, ((0,), (1, 2)))]
    for chart, fdeg, vdeg, key in bad:
        for c in (1, 0):
            with pytest.raises(DegreeError, match="bad multi-index"):
                MvForm(chart, fdeg, vdeg, {key: c})
    with pytest.raises(DegreeError, match="bad multi-index"):
        Form(ch, 1, {(7,): 1})
    w = MvForm(chart5, 2, 1, {((0, 1), (0,)): 1, ((2, 4), (0,)): 0})
    assert list(w.data) == [((0, 1), (0,))]


def test_identity_contraction_scaling(chart5):
    # iota_{1_a} beta = C(b, a) beta
    rng = random.Random(11)
    for a in (1, 2):
        for b in (2, 3):
            if a > b:
                continue
            data = {
                idx: sympy.Rational(rng.randint(-4, 4), rng.randint(1, 3))
                for idx in rng.sample(list(combinations(range(5), b)), 3)
            }
            beta = Form(chart5, b, data)
            lhs = contract(identity_tensor(chart5, a), beta)
            assert lhs == sympy.binomial(b, a) * beta


def test_identity_wedge_scaling(chart5):
    # 1_a ^ 1_b = C(a+b, a) 1_{a+b}; a = b = 1 in dim 3 gives 2 * 1_2
    chart = Chart(base=["x1", "x2", "x3"], fiber=[])
    one1 = identity_tensor(chart, 1)
    lhs = wedge(one1, one1)
    assert lhs == 2 * identity_tensor(chart, 2)
    assert wedge(identity_tensor(chart5, 1), identity_tensor(chart5, 2)) == \
        sympy.binomial(3, 1) * identity_tensor(chart5, 3)


def test_mvform_contraction_is_form_wedge_inner(chart5):
    theta = dform(chart5, "x1")
    u = vec(chart5, "y1")
    w = MvForm.tensor(theta, u)
    alpha = wedge(dform(chart5, "y1"), dform(chart5, "x2"))
    assert contract(w, alpha) == wedge(theta, contract(u, alpha))


def test_contract_form_slot(chart5):
    w = MvForm.tensor(wedge(dform(chart5, "x1"), dform(chart5, "y1")),
                      vec(chart5, "p1_1"))
    out = contract_form_slot(vec(chart5, "x1"), w)
    assert out == MvForm.tensor(dform(chart5, "y1"), vec(chart5, "p1_1"))


def test_contract_form_on_multivector(chart5):
    u = wedge(vec(chart5, "x1"), vec(chart5, "y1"))
    out = contract_form(dform(chart5, "x1"), u)
    assert out == vec(chart5, "y1")
    assert contract_form(dform(chart5, "y1"), u) == -vec(chart5, "x1")


def test_zero_propagation(chart5):
    z = Form.zero(chart5, 2)
    assert (z + z).is_zero()
    assert wedge(z, dform(chart5, "x1")).is_zero()
    assert not z


def _summed(pieces):
    """Add (key, value) pairs and drop the zeros, as the oracles do."""
    out = {}
    for key, val in pieces:
        out[key] = out.get(key, sympy.Integer(0)) + val
    return {k: sympy.cancel(v) for k, v in out.items() if sympy.cancel(v) != 0}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mvform_products_match_naive_oracles(chart5, data):
    def indices(degree):
        return list(combinations(range(chart5.m), degree))

    def sparse(keys):
        terms = st.lists(
            st.tuples(st.sampled_from(keys), st.sampled_from([-2, -1, 1, 3]),
                      st.sampled_from(chart5.syms), st.integers(0, 2)),
            min_size=1, max_size=3,
        )
        out = {}
        for key, c, sym, e in data.draw(terms):
            out[key] = out.get(key, sympy.Integer(0)) + c * sym**e
        return out

    def degree(lo, hi):
        return data.draw(st.integers(lo, hi))

    def form(d):
        return Form(chart5, d, sparse(indices(d)))

    def multivector(d):
        return MultiVector(chart5, d, sparse(indices(d)))

    def mvform(fd, vd):
        keys = [(f, v) for f in indices(fd) for v in indices(vd)]
        return MvForm(chart5, fd, vd, sparse(keys))

    def as_form_slot(theta):  # theta (x) 1
        return {(k, ()): c for k, c in theta.data.items()}

    def as_vector_slot(u):  # 1 (x) u
        return {((), k): c for k, c in u.data.items()}

    w = mvform(degree(0, 2), degree(1, 2))
    alpha = form(degree(w.vec_degree, 3))
    assert contract(w, alpha).data == naive_mvform_contract(
        w.data, alpha.data, alpha.degree)

    u = multivector(degree(1, 2))
    theta = form(degree(1, 2))
    w2 = mvform(degree(0, 2), degree(0, 2))
    assert wedge(w, u).data == naive_mvform_wedge(w.data, as_vector_slot(u))
    assert wedge(u, w).data == naive_mvform_wedge(as_vector_slot(u), w.data)
    assert wedge(w, theta).data == naive_mvform_wedge(w.data, as_form_slot(theta))
    assert wedge(theta, w).data == naive_mvform_wedge(as_form_slot(theta), w.data)
    assert wedge(w, w2).data == naive_mvform_wedge(w.data, w2.data)

    # iota_alpha u and iota_X in the form slot, from the naive contraction
    u3 = multivector(degree(1, 3))
    beta = form(degree(1, u3.degree))
    assert contract_form(beta, u3).data == _summed(
        (key, c * val)
        for fidx, c in beta.data.items()
        for key, val in naive_contract(u3.data, u3.degree, fidx).items()
    )
    ws = mvform(degree(1, 3), degree(0, 2))
    x = multivector(degree(1, ws.form_degree))
    assert contract_form_slot(x, ws).data == _summed(
        ((rest, vidx), val)
        for (fidx, vidx), c in ws.data.items()
        for xidx, cx in x.data.items()
        for rest, val in naive_contract({fidx: c * cx}, len(fidx), xidx).items()
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coordinate_contractions_match_the_bilinear_kernel(chart5, data):
    # iota_{@/x^i} for every i in one pass equals one all-pairs
    # ``_bilinear`` per coordinate, key order included, on forms and
    # multivectors of every degree 1..m whose keys come in any order
    from gradira import scalars
    from gradira.forms import _bilinear, _contract_by_pair, _coordinate_contractions

    cls = data.draw(st.sampled_from([Form, MultiVector]))
    degree = data.draw(st.integers(1, chart5.m))
    terms = data.draw(st.lists(
        st.tuples(st.sampled_from(list(combinations(range(chart5.m), degree))),
                  st.sampled_from([-2, -1, 1, 3]), st.sampled_from(chart5.syms),
                  st.integers(0, 2)),
        min_size=1, max_size=8))
    coefficients = {}
    for key, c, sym, e in terms:
        coefficients[key] = coefficients.get(key, 0) + c * sym**e
    obj = cls(chart5, degree, coefficients)
    contractions = _coordinate_contractions(obj.data)
    assert set(contractions) == {i for key in obj.data for i in key}
    for i in range(chart5.m):
        expected = _bilinear({(i,): scalars.ONE}, obj.data, _contract_by_pair)
        assert list(contractions.get(i, {}).items()) == list(expected.items())


# a coordinate, a declared function, a partial D(H,y1) and a denominator
_PICKLED = [
    "x1 * H / (y1 - 2) * dX[] + D(H,y1) * d(y1) ^ dX[1] + 3/2 * d(p1_1) ^ dX[2]",
    "D(H,y1) / x2 * @/y1 ^ @/x1 + H * @/p1_1 ^ @/x2",
    "x1 / (y1 + 1) * d(y1) @ @/p1_1 + D(H,p1_1,y1) * d(x1) @ @/y1",
]

_RELOAD = """
import pickle, sys
from gradira.render import render
objs = pickle.load(sys.stdin.buffer)
pickle.dump((objs, [render(o) for o in objs]), sys.stdout.buffer)
"""


def _pickle_chart():
    ch = Chart(base=["x1", "x2"], fiber=["y1", "p1_1"])
    ch.declare_function("H", ["x1", "y1", "p1_1"])
    return ch


def test_pickling_and_copying_leave_the_kept_d_behind(red2):
    _, gen = red2.hamiltonian_generators[0]
    alpha = Form(red2.chart, gen.degree, dict(gen.data))
    blob = pickle.dumps(alpha)
    dalpha = exterior_derivative(alpha)
    assert pickle.dumps(alpha) == blob
    dblob = pickle.dumps(dalpha)
    # a bracket keeps alpha's decomposition and sharp value on d alpha
    bracket(alpha, alpha, red2.structure)
    assert dalpha._decomposition[2] is not None
    assert (pickle.dumps(alpha), pickle.dumps(dalpha)) == (blob, dblob)
    for twin in (pickle.loads(blob), copy.copy(alpha), copy.deepcopy(alpha)):
        assert twin == alpha
        assert exterior_derivative(twin) == dalpha
        assert exterior_derivative(twin) is not dalpha
    for twin in (pickle.loads(dblob), copy.copy(dalpha), copy.deepcopy(dalpha)):
        assert twin == dalpha
        assert getattr(twin, "_decomposition", None) is None


def test_graded_objects_pickle_round_trip():
    """In this process and through a fresh one, which loads the objects,
    renders them and pickles both back."""
    ch = _pickle_chart()
    objs = [parse_expression(text, ch) for text in _PICKLED]
    assert [type(o) for o in objs] == [Form, MultiVector, MvForm]
    texts = [render(o) for o in objs]
    blob = pickle.dumps(objs)
    back = pickle.loads(blob)
    assert back == objs
    assert [render(o) for o in back] == texts
    proc = subprocess.run([sys.executable, "-c", _RELOAD], input=blob,
                          capture_output=True, check=True)
    fresh, fresh_texts = pickle.loads(proc.stdout)
    assert fresh == objs
    assert fresh_texts == texts
    assert [render(o) for o in fresh] == texts
