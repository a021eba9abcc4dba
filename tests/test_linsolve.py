import random

import sympy
from hypothesis import given, settings, strategies as st

from gradira import Chart, Form, Span
from gradira.linsolve import Components, Echelon, solve_linear, nullspace
from gradira import scalars

from naive import naive_rank


def test_single_rational_function_equation():
    ch = Chart(base=["x1"], fiber=[])
    x = ch.sym("x1")
    sol = solve_linear([({0: x}, x)], [0])
    assert sol is not None
    assert sol.particular == {0: 1}
    assert not sol.kernel


def test_inconsistent_system_signals_none():
    sol = solve_linear([({0: 1}, 1), ({0: 1}, 2)], [0])
    assert sol is None


def test_zero_solution_is_not_inconsistent():
    sol = solve_linear([({0: 1}, 0)], [0])
    assert sol is not None
    assert sol.particular == {}


def test_random_rational_system_with_kernel():
    rng = random.Random(17)
    ch = Chart(base=["x1", "x2"], fiber=["y1"])
    syms = ch.syms
    unknowns = list(range(6))
    rows = []
    # random 4x6 system over the rational function field
    matrix = [
        [sympy.Rational(rng.randint(-3, 3), rng.randint(1, 2))
         + (syms[rng.randrange(3)] if rng.random() < 0.3 else 0)
         for _ in unknowns]
        for _ in range(4)
    ]
    target = [sum(matrix[r][c] * (c + 1) for c in range(6)) for r in range(4)]
    for r in range(4):
        rows.append(({c: matrix[r][c] for c in range(6)}, target[r]))
    sol = solve_linear(rows, unknowns)
    assert sol is not None
    assert len(sol.kernel) >= 2

    def check(vec):
        for r in range(4):
            acc = sympy.Integer(0)
            for c in range(6):
                acc += matrix[r][c] * vec.get(c, 0)
            yield scalars.as_scalar(acc)

    # particular solves, kernel annihilates
    for r, val in enumerate(check(sol.particular)):
        assert val == scalars.as_scalar(target[r])
    for vec in sol.kernel:
        assert all(v == 0 for v in check(vec))


def test_lexicographic_particular_is_minimal_support():
    # u0 + u1 = 1 pivots on u0; the free unknown u1 stays at zero
    sol = solve_linear([({0: 1, 1: 1}, 1)], [0, 1])
    assert sol.particular == {0: 1}
    assert sol.kernel == [{1: 1, 0: -1}]


def test_nullspace_helper():
    basis = nullspace([{0: 1, 1: -1}], [0, 1])
    assert len(basis) == 1
    assert basis[0] == {1: 1, 0: 1}


CHART = Chart(base=["x1", "x2"], fiber=["y1", "y2"])
X, Y = CHART.sym("x1"), CHART.sym("y1")
ENTRIES = [0, 0, 1, -1, 2, sympy.Rational(1, 2), X, Y, X * Y, X / (Y + 1),
           1 / (X - 1), X**2 + 1]
entries = st.sampled_from(ENTRIES)


@st.composite
def systems(draw):
    """(rows, rhs): a few rows of rational-function entries, some of them
    combinations of others, shuffled; the right-hand side is consistent
    (A times a random vector) or arbitrary."""
    ncols = draw(st.integers(min_value=1, max_value=CHART.m))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=3))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        mults = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(m * r[c] for m, r in zip(mults, rows))
                     for c in range(ncols)])
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    if draw(st.booleans()):
        vec = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [sum(r[c] * vec[c] for c in range(ncols)) for r in rows]
    else:
        rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


def residuals(rows, vec):
    return [scalars.as_scalar(sum(r[c] * vec.get(c, 0) for c in range(len(r))))
            for r in rows]


@settings(max_examples=60, deadline=None)
@given(systems())
def test_echelon_against_rank_oracle(system):
    rows, rhs = system
    ncols = len(rows[0])
    echelon = Echelon([dict(enumerate(r)) for r in rows], range(ncols))
    rank = naive_rank(rows)
    sol = echelon.solve(dict(enumerate(rhs)))
    augmented = naive_rank([r + [b] for r, b in zip(rows, rhs)])
    assert (sol is None) == (rank < augmented)
    assert len(echelon.kernel) == ncols - rank
    for vec in echelon.kernel:
        assert all(v == 0 for v in residuals(rows, vec))
    if sol is not None:
        assert set(sol) <= set(echelon.pivots)
        got = residuals(rows, sol)
        assert got == [scalars.as_scalar(b) for b in rhs]
    # Span.reduced keeps exactly the greedy rank-increasing generators
    gens = [Form(CHART, 1, {(c,): v for c, v in enumerate(r)}) for r in rows]
    greedy = []
    for i, r in enumerate(rows):
        if naive_rank([rows[k] for k in greedy] + [r]) > len(greedy):
            greedy.append(i)
    assert Span(CHART, 1, gens).reduced()[1] == greedy


SPARSE = [1, -1, 2, sympy.Rational(-1, 2), X, Y]


@st.composite
def sparse_systems(draw):
    """Up to about 12 sparse rows over a few columns: random rows, planted
    dependent rows (a combination of two earlier rows) and rows that repeat
    part of an earlier row, so that back-substitution cancels entries
    inside pivot rows; shuffled."""
    ncols = draw(st.integers(min_value=2, max_value=7))
    cells = st.dictionaries(st.integers(0, ncols - 1), st.sampled_from(SPARSE),
                            min_size=1, max_size=4)
    rows = draw(st.lists(cells, min_size=1, max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            k = draw(st.integers(0, len(rows) - 1))
            m = draw(st.sampled_from(SPARSE))
            rows.append({c: rows[i].get(c, 0) + m * rows[k].get(c, 0)
                         for c in set(rows[i]) | set(rows[k])})
        else:
            keep = draw(st.sets(st.sampled_from(sorted(rows[i])), min_size=1))
            rows.append({c: v for c, v in rows[i].items() if c in keep})
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    return ncols, rows


def combine_rows(combo, rows, ncols):
    """sum_r combo[r] * rows[r] as a dense list of scalars."""
    out = [scalars.ZERO] * ncols
    for r, m in combo.items():
        for c, v in rows[r].items():
            out[c] = scalars.sadd(out[c], scalars.smul(m, scalars.as_scalar(v)))
    return out


@settings(max_examples=80, deadline=None)
@given(sparse_systems(), st.lists(st.sampled_from(SPARSE), min_size=7, max_size=7))
def test_sparse_echelon_stays_reduced(system, vec):
    ncols, rows = system
    echelon = Echelon(rows, range(ncols))
    dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
    rank = naive_rank(dense)
    assert len(echelon.pivots) == rank
    assert len(echelon.pivots) + len(echelon.dependent) == len(rows)
    for pcol, (prow, combo) in echelon.pivots.items():
        # fully reduced: 1 at the own pivot, no other pivot column anywhere
        assert prow[pcol] == 1
        assert not any(c in prow for c in echelon.pivots if c != pcol)
        # and still the combination of input rows it claims to be
        assert combine_rows(combo, rows, ncols) == [prow.get(c, scalars.ZERO)
                                                    for c in range(ncols)]
    for combo in echelon.dependent.values():
        assert not any(combine_rows(combo, rows, ncols))
    assert len(echelon.kernel) == ncols - rank
    for kvec in echelon.kernel:
        assert not any(residuals(dense, kvec))
    # a consistent right-hand side is solved, a random one only when the
    # augmented rank does not grow
    target = [sum(r[c] * vec[c] for c in range(ncols)) for r in dense]
    sol = echelon.solve(dict(enumerate(target)))
    assert residuals(dense, sol) == [scalars.as_scalar(b) for b in target]
    rhs = vec[:len(rows)] + [0] * (len(rows) - len(vec))
    augmented = naive_rank([r + [b] for r, b in zip(dense, rhs)])
    assert (echelon.solve(dict(enumerate(rhs))) is None) == (rank < augmented)


@settings(max_examples=80, deadline=None)
@given(sparse_systems(), st.lists(st.sampled_from(SPARSE), min_size=7, max_size=7))
def test_components_match_one_echelon(system, vec):
    # the kernel, key order included, and the particular solutions of one
    # elimination, with two unknowns that occur in no row, for a consistent
    # right-hand side, an arbitrary one and one with a key outside the rows
    ncols, rows = system
    rows = dict(enumerate(rows))
    unknowns = list(range(ncols + 2))
    components, echelon = Components(rows, unknowns), Echelon(rows, unknowns)
    assert [list(k.items()) for k in components.kernel] == \
        [list(k.items()) for k in echelon.kernel]
    target = {r: sum(row.get(c, 0) * vec[c] for c in range(ncols)) for r, row in rows.items()}
    arbitrary = dict(zip(rows, vec))
    for rhs in (target, arbitrary, {**target, len(rows): 1}, {**target, len(rows): 0}):
        assert components.particular(rhs) == echelon.solve(rhs)


@settings(max_examples=60, deadline=None)
@given(sparse_systems(), st.sets(st.integers(-1, 13), max_size=3))
def test_components_rows_of_closes_over_shared_unknowns(system, keys):
    # rows_of(keys) holds every row that a chain of shared unknowns links
    # to a row key of ``keys`` (keys outside the rows are ignored), one
    # component after another in the order of their first rows, each in
    # row order
    ncols, rows = system
    rows = dict(enumerate(rows))

    def linked(start):
        reached, grew = {start}, True
        while grew:
            held = {u for r in reached for u in rows[r]}
            more = {r for r, row in rows.items() if held & set(row)}
            grew, reached = not more <= reached, reached | more
        return [r for r in rows if r in reached]

    expected = []
    for r in rows:
        if r not in expected and any(k in rows and k in linked(r) for k in keys):
            expected += linked(r)
    got = Components(rows, range(ncols)).rows_of(keys)
    assert list(got) == expected
    assert all(got[r] is rows[r] for r in got)
