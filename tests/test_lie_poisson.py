"""The order-1 case: a graded Dirac structure of order 1 is an ordinary
Dirac structure, and a Poisson bivector gives one whose integrability
check exercises the Schouten bracket with genuinely non-constant
coefficients (the canonical field-theory scenarios have constant sharp
tables, so their [U, V] terms all vanish)."""

import sympy
from hypothesis import given, settings, strategies as hst

from gradira import (
    Chart,
    Form,
    MultiVector,
    Structure,
    bracket,
    verify_axioms,
)
from naive import naive_check_lie_algebra

EPS = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
       (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1}


def su2_star():
    ch = Chart(base=["x1"], fiber=["u1", "u2", "u3"])
    u = {i: ch.sym(f"u{i}") for i in (1, 2, 3)}
    gens = [Form.d_coord(ch, "x1")]
    vals = [MultiVector.zero(ch, 1)]
    for i in (1, 2, 3):
        v = MultiVector.zero(ch, 1)
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                e = EPS.get((i, j, k), 0)
                if e:
                    v = v + sympy.Integer(e) * u[k] * \
                        MultiVector.coord_vector(ch, f"u{j}")
        gens.append(Form.d_coord(ch, f"u{i}"))
        vals.append(v)
    return ch, gens, vals


def test_lie_poisson_is_a_graded_dirac_structure():
    ch, gens, vals = su2_star()
    st = Structure(ch, gens, vals)
    report = verify_axioms(st)
    assert report.passed, report.render()


def test_breaking_jacobi_breaks_integrability():
    ch, gens, vals = su2_star()
    vals = [-vals[1] if i == 1 else v for i, v in enumerate(vals)]
    st = Structure(ch, gens, vals)
    report = verify_axioms(st)
    assert not report.passed
    assert any("integrable" in c.name for c in report.failures())
    assert "\n".join(c.render() for c in report.failures()) == """\
FAIL skew a=1.1 b=1.2: iota_sharp(d(u1)) d(u2) = -u3 vs -u3
FAIL integrable a=1.1 b=1.2: sharp of 0 differs from [U, V] = -u2 * @/u1 + u1 * @/u2
FAIL skew a=1.1 b=1.3: iota_sharp(d(u1)) d(u3) = u2 vs u2
FAIL integrable a=1.1 b=1.3: sharp of 0 differs from [U, V] = -u3 * @/u1 + u1 * @/u3
FAIL integrable a=1.2 b=1.3: sharp of d(u1) differs from [U, V] = u3 * @/u2 - u2 * @/u3"""


def test_lie_poisson_bracket_of_coordinates():
    # n = 1: the graded bracket of Hamiltonian 0-forms is the Poisson
    # bracket; the bracket contracts the sharp of its second argument into
    # the first, so with this table {u_i, u_j} = eps_{jik} u_k (skew makes
    # the two orientations consistent).
    ch, gens, vals = su2_star()
    st = Structure(ch, gens, vals)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            fi = Form.scalar_form(ch, ch.sym(f"u{i}"))
            fj = Form.scalar_form(ch, ch.sym(f"u{j}"))
            value = bracket(fi, fj, st)
            expected = sympy.Integer(0)
            for k in (1, 2, 3):
                expected += EPS.get((j, i, k), 0) * ch.sym(f"u{k}")
            assert value.scalar() == expected
            assert bracket(fj, fi, st).scalar() == -expected


@settings(max_examples=200, deadline=None)
@given(data=hst.data())
def test_structure_constant_check_matches_the_dense_loop(data):
    # antisymmetric, broken and Jacobi-violating constants on 1..3, and su2
    from gradira.errors import ChartError
    from gradira.scenarios import _check_lie_algebra, _structure_constants

    dim = data.draw(hst.integers(1, 3))
    f = {}
    if data.draw(hst.booleans()):
        f = dict(_structure_constants("su2", 3)[0])
        dim = 3
    index = hst.integers(1, dim)
    for k, i, j, v, skew in data.draw(hst.lists(hst.tuples(
            index, index, index, hst.sampled_from([-2, -1, 1, 2]), hst.booleans()),
            max_size=4)):
        f[(k, i, j)] = v
        if skew:
            f[(k, j, i)] = -v if i != j else 0
    f = {key: v for key, v in f.items() if v}
    try:
        _check_lie_algebra(f)
        verdict = None
    except ChartError as exc:
        verdict = "antisymmetry" if "antisymmetric" in str(exc) else "Jacobi"
    assert verdict == naive_check_lie_algebra(lambda k, i, j: f.get((k, i, j), 0), dim)
