import hashlib
import random
import sys
from functools import cache
from itertools import combinations
from math import comb

import pytest
import sympy
from hypothesis import given, settings, strategies as hst

from gradira import (
    AffineEmbedding,
    Chart,
    ExtensionTable,
    MultiVector,
    Form,
    Hamiltonian,
    MultiVector,
    MvForm,
    Structure,
    bracket,
    bracket_ext1,
    bracket_extj,
    build_span_tower,
    check_extension_properties,
    compat_lower,
    contract,
    exterior_derivative,
    extended_canonical,
    gamma_H,
    identity_tensor,
    is_hamiltonian,
    is_hamiltonian_form,
    pullback,
    reduced_canonical,
    sharp1_tilde,
    sharp_lowered,
    volume_contraction,
    wedge,
    yang_mills,
)
from gradira import extensions, forms, linsolve, scalars, spans
from gradira import structure as structure_module
from gradira.errors import DegreeError, GradiraError, MembershipError, NotHamiltonianError
from gradira.extensions import TowerEntry, s1_wedge_basis, solve_sharp_j
from gradira.parser import parse_form
from gradira.render import render
from gradira.sampling import random_form, random_hamiltonian_form, rng_from_env
from gradira.scenarios import canonical_extension_table
from gradira.structfile import dump_scenario, load_structure_file
from naive import (contract_pairing_rhs, decompose_s1_power, fiber_indices,
                   naive_bracket_ext1, naive_build_span_tower, naive_gamma_H,
                   naive_is_hamiltonian, naive_pairing, naive_pairing_rhs,
                   naive_sharp1_tilde, naive_solve_pairing, naive_support_graph,
                   pairing_defect, wedge_loop_s1_basis)


@cache
def sheared():
    """reduced_canonical(2, 1) pulled back along the shear y1 -> y1 + x1 +
    p2_1, p1_1 -> p1_1 - y1: S^1 is all of T*M, but its generators are not
    scaled coordinate differentials."""
    scn = reduced_canonical(2, 1, declare_h=False)
    adapted = Chart(base=scn.chart.base_coords, fiber=scn.chart.fiber_coords)
    x1, y1, p11, p21 = sympy.symbols("x1 y1 p1_1 p2_1")
    emb = AffineEmbedding(scn.chart, adapted, {"y1": y1 + x1 + p21, "p1_1": p11 - y1})
    return pullback(scn.structure, emb)


@cache
def rank_deficient():
    """S^2 = <d^2 x> on (x1, x2; y1), so S^1 = <dx1, dx2> has rank 2 of 3."""
    ch = Chart(base=["x1", "x2"], fiber=["y1"])
    return Structure(ch, [volume_contraction(ch, [])], [MultiVector.zero(ch, 1)])


@cache
def scaled():
    """reduced_canonical(2, 1) with every S^n generator and sharp value
    times 1 + y1: the dual frame of S^1 is not constant."""
    top = reduced_canonical(2, 1, declare_h=False).structure
    f = 1 + top.chart.sym("y1")
    return Structure(top.chart, [g * f for g in top.generators(top.n)],
                     [v * f for v in top.sharp_values(top.n)])


@cache
def rank_deficient_sheared():
    """``rank_deficient`` pulled back along x1 -> x1 + y1: S^1 = <dx1 + dy1,
    dx2> is a proper subbundle whose generators are not coordinate
    differentials, so its candidates have several terms."""
    st = rank_deficient()
    adapted = Chart(base=st.chart.base_coords, fiber=st.chart.fiber_coords)
    x1, y1 = sympy.symbols("x1 y1")
    return pullback(st, AffineEmbedding(st.chart, adapted, {"x1": x1 + y1}))


@cache
def oblique():
    """On (x1, x2; y1, y2): S^2 = <d^2 x, (dx1 + dy1) ^ dx2> with sharp
    values @/x1 and 0.  S^1 = <dx2, dx1, dx1 + dy1> misses dy2, and both
    pairing fields are @/y1 - @/x1, which kills dx1 + dy1 but not its
    terms: the candidate (dx1 + dy1) ^ dx2 has an empty right-hand side,
    though the index reaches both of its terms.  Only the S^a[j] tower is
    asked of it, not the axioms."""
    ch = Chart(base=["x1", "x2"], fiber=["y1", "y2"])
    dx1, dx2, dy1 = (Form.d_coord(ch, u) for u in ("x1", "x2", "y1"))
    return Structure(ch, [wedge(dx1, dx2), wedge(dx1 + dy1, dx2)],
                     [MultiVector.coord_vector(ch, "x1"), MultiVector.zero(ch, 1)])


@cache
def base_valued():
    """On (x1, x2, x3; y1): S^3 = <d^3 x> with sharp value @/x1 + @/x2, so
    the pairing field is @/x1 + @/x2 and no vertical W reaches the basic
    generator.  In the vertical S^2[j] the candidates dx2 ^ dx3 and
    dx1 ^ dx3 (right-hand sides at the same key) form a component with no
    W column, and their difference is admitted with W = 0.  Only the
    S^a[j] tower is asked of it, not the axioms."""
    ch = Chart(base=["x1", "x2", "x3"], fiber=["y1"])
    value = MultiVector.coord_vector(ch, "x1") + MultiVector.coord_vector(ch, "x2")
    return Structure(ch, [volume_contraction(ch, [])], [value])


S1_STRUCTURES = {
    "reduced": lambda: reduced_canonical(2, 1).structure,
    "sheared": sheared,
    "rank-deficient": rank_deficient,
}

COMPATIBILITY_STRUCTURES = {
    "red2": S1_STRUCTURES["reduced"],
    "red3": cache(lambda: reduced_canonical(3, 1).structure),
    "sheared": sheared,
    "scaled": scaled,
    "rank-deficient": rank_deficient,
}


def draw_form(data, ch):
    """A form of degree 1..3 with up to three terms whose coefficients are
    functions c + x**e of one coordinate."""
    return draw_form_of_degree(data, ch, data.draw(hst.integers(1, 3)))


def draw_form_of_degree(data, ch, a, min_size=1):
    """A form of degree a with min_size..3 terms like those of ``draw_form``."""
    keys = list(combinations(range(ch.m), a))
    theta = Form.zero(ch, a)
    for idx, c, s, e in data.draw(hst.lists(hst.tuples(
            hst.sampled_from(keys), hst.integers(-3, 3),
            hst.integers(0, ch.m - 1), hst.integers(0, 2)),
            min_size=min_size, max_size=3)):
        theta = theta + Form(ch, a, {idx: c + ch.syms[s] ** e})
    return theta


def dy_family(ch, n):
    theta = Form.zero(ch, n + 1)
    for mu in range(1, n + 1):
        theta = theta + wedge(
            Form.d_coord(ch, "y1"),
            wedge(Form.d_coord(ch, f"p{mu}_1"), volume_contraction(ch, [mu - 1])),
        )
    return theta


class TestSharp1Tilde:
    def test_single_factor_recovers_sharp1(self, red2):
        ch, st = red2.chart, red2.structure
        for name in ch.coords:
            theta = Form.d_coord(ch, name)
            got = sharp1_tilde(theta, st)
            expected = MvForm.tensor(
                Form.scalar_form(ch, 1), st.derive_sharp(1, theta).rep
            )
            assert got == expected

    def test_defining_pairing_on_random_wedges(self, red2):
        # iota_{sharp_n(alpha)} Theta = (-1)^{n+1-a} iota_{sharp_1~(Theta)} alpha
        rng = rng_from_env()
        st = red2.structure
        for _ in range(6):
            theta = random_form(rng, red2.chart, 2, terms=3, poly_degree=1)
            assert pairing_defect(st, theta) is None

    def test_membership_failure(self, red2):
        # a form with a non-S^1-power piece cannot appear on this chart
        # (S^1 is everything); use a chart where S^1 has lower rank
        st = rank_deficient()
        # S^1 = iota TM S^2 = <dx1, dx2>; dy is not in its wedge powers
        with pytest.raises(MembershipError):
            sharp1_tilde(Form.d_coord(st.chart, "y1"), st)

    def test_contraction_commutes_with_first_extension(self, red2):
        # sharp_1~(iota_X theta) = + iota_X sharp_1~(theta) on wedge powers
        # of S^1 (sign pinned by expanding the anti-derivation formula on
        # decomposables)
        from gradira import contract_form_slot

        ch, st = red2.chart, red2.structure
        x = MultiVector.coord_vector(ch, "x1")
        for names in [("y1", "p1_1"), ("y1", "x1"), ("p1_1", "p2_1"),
                      ("y1", "p2_1", "x2")]:
            theta = Form.d_coord(ch, names[0])
            for nm in names[1:]:
                theta = wedge(theta, Form.d_coord(ch, nm))
            ix = contract(x, theta)
            rhs = contract_form_slot(x, sharp1_tilde(theta, st))
            if ix.is_zero():
                assert rhs.is_zero() or st.coset_is_zero(rhs, st.n)
                continue
            assert sharp1_tilde(ix, st) == rhs

    def test_anti_derivation_function_linearity(self, red2):
        ch, st = red2.chart, red2.structure
        f = ch.sym("p1_1")
        a = Form.d_coord(ch, "y1")
        b = Form.d_coord(ch, "x1")
        lhs = sharp1_tilde(f * wedge(a, b), st)
        # expand f onto the first factor instead
        decomposed = decompose_s1_power(st, f * wedge(a, b))
        assert decomposed is not None
        rhs = f * sharp1_tilde(wedge(a, b), st)
        assert lhs == rhs

    @pytest.mark.parametrize("name", sorted(S1_STRUCTURES))
    @settings(max_examples=25, deadline=None)
    @given(data=hst.data())
    def test_matches_per_combination_oracle(self, name, data):
        # the dual-frame sum against the anti-derivation rule expanded one
        # generator combination at a time; non-members raise in both
        st = S1_STRUCTURES[name]()
        theta = draw_form(data, st.chart)
        try:
            expected = naive_sharp1_tilde(theta, st)
        except MembershipError:
            with pytest.raises(MembershipError):
                sharp1_tilde(theta, st)
            return
        assert sharp1_tilde(theta, st) == expected

    def test_decompose_s1_power_of_a_function(self, red2):
        # (S^1)^{wedge 0} is spanned by the function 1
        x1 = red2.chart.sym("x1")
        decomposition = decompose_s1_power(red2.structure,
                                           Form.scalar_form(red2.chart, x1))
        assert decomposition == {(): scalars.as_scalar(x1)}

    def test_dependent_generators_are_left_out_of_the_frame(self):
        # at n = 1 the level-1 generators are the given ones, which may be
        # dependent: 2 d(y1) repeats d(y1) and gets no dual vector
        ch = Chart(base=["x1"], fiber=["y1"])
        dx, dy = Form.d_coord(ch, "x1"), Form.d_coord(ch, "y1")
        ex = MultiVector.coord_vector(ch, "x1")
        plain = Structure(ch, [dx, dy], [MultiVector.zero(ch, 1), ex])
        doubled = Structure(ch, [dx, dy, 2 * dy], [MultiVector.zero(ch, 1), ex, 2 * ex])
        assert len(doubled.s1_frame[2]) == 2
        for theta in (dy, ch.sym("y1") * wedge(dx, dy)):
            value = sharp1_tilde(theta, doubled)
            assert value == sharp1_tilde(theta, plain)
            assert value == naive_sharp1_tilde(theta, doubled)

    def test_sheared_values_pinned(self):
        # S^1 = T*M with generators that are not single terms: the values
        # rendered before sharp_1~ was computed from the dual frame
        st = sheared()
        pinned = {
            "d(y1)":
                "1 @ @/x1 ^ @/y1 + 1 @ @/x1 ^ @/p1_1 - 1 @ @/x2 ^ @/p1_1",
            "x1 * d(p1_1) + d(p2_1)":
                "(x1 - 1) * 1 @ @/x1 ^ @/y1 + (x1 - 1) * 1 @ @/x1 ^ @/p1_1"
                " + x1 * 1 @ @/x2 ^ @/y1",
            "y1 * d(y1) ^ dX[1]":
                "-y1 * dX[1] @ @/x1 ^ @/y1 - y1 * dX[1] @ @/x1 ^ @/p1_1"
                " + y1 * dX[1] @ @/x2 ^ @/p1_1",
            "d(p1_1) ^ d(p2_1)":
                "-d(p1_1) @ @/x1 ^ @/y1 - d(p1_1) @ @/x1 ^ @/p1_1"
                " - d(p2_1) @ @/x1 ^ @/y1 - d(p2_1) @ @/x1 ^ @/p1_1"
                " - d(p2_1) @ @/x2 ^ @/y1",
            "p2_1 * dX[]": "0",
            "d(y1) ^ dX[] + x2 * d(y1) ^ d(p1_1) ^ dX[2]":
                "dX[] @ @/x1 ^ @/y1 + dX[] @ @/x1 ^ @/p1_1 - dX[] @ @/x2 ^ @/p1_1"
                " - x2 * d(y1) ^ dX[2] @ @/x1 ^ @/y1"
                " - x2 * d(y1) ^ dX[2] @ @/x1 ^ @/p1_1"
                " - x2 * d(y1) ^ dX[2] @ @/x2 ^ @/y1"
                " + x2 * d(p1_1) ^ dX[2] @ @/x1 ^ @/y1"
                " + x2 * d(p1_1) ^ dX[2] @ @/x1 ^ @/p1_1"
                " - x2 * d(p1_1) ^ dX[2] @ @/x2 ^ @/p1_1",
        }
        for text, value in pinned.items():
            assert render(sharp1_tilde(parse_form(text, st.chart), st)) == value

    def test_no_wedge_or_elimination_once_the_frame_is_built(self, red2, monkeypatch):
        top = red2.structure
        st = Structure(top.chart, top.generators(top.n), top.sharp_values(top.n))
        ch = st.chart
        thetas = [Form.d_coord(ch, "p1_1"),
                  ch.sym("y1") * wedge(Form.d_coord(ch, "y1"), Form.d_coord(ch, "x2")),
                  dy_family(ch, 2) + ch.sym("p2_1") * wedge(
                      Form.d_coord(ch, "p1_1"), volume_contraction(ch, []))]
        calls = []

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(linsolve.Echelon, "__init__",
                            counting("Echelon", linsolve.Echelon.__init__))
        sharp1_tilde(thetas[0], st)
        assert calls == ["Echelon"]  # the frame, once per structure
        del calls[:]
        monkeypatch.setattr(extensions, "wedge", counting("wedge", extensions.wedge))
        for module in (extensions, spans):
            if hasattr(module, "decompose_over"):
                monkeypatch.setattr(module, "decompose_over",
                                    counting("decompose_over", module.decompose_over))
        for theta in thetas:
            sharp1_tilde(theta, st)
        assert calls == []


class TestPairingRhs:
    @pytest.mark.parametrize("name", sorted(S1_STRUCTURES) + ["scaled"])
    @settings(max_examples=25, deadline=None)
    @given(data=hst.data())
    def test_matches_contraction_of_sharp1_tilde(self, name, data):
        # iota_{sharp_1~(theta)} alpha_g = (-1)^{a+1} iota_{X_g} theta
        # against the sharp_1~ value contracted with each S^n generator;
        # non-members raise in sharp1_tilde and in solve_sharp_j
        st = scaled() if name == "scaled" else S1_STRUCTURES[name]()
        theta = draw_form(data, st.chart)
        try:
            expected = naive_pairing_rhs(theta, st)
        except MembershipError:
            with pytest.raises(MembershipError):
                sharp1_tilde(theta, st)
            with pytest.raises(MembershipError):
                solve_sharp_j(st, theta, 1)
            return
        assert st.pairing_rhs(theta.data) == expected
        # and for any n-form beta, iota_{sharp_1~(theta)} beta =
        # (-1)^{a+1} iota_{X_beta} theta
        beta = draw_form_of_degree(data, st.chart, st.n)
        signed = theta if theta.degree % 2 else -theta
        assert contract(sharp1_tilde(theta, st), beta) == \
            contract(st.pairing_field(beta), signed)

    def test_scaled_frame_is_not_constant(self):
        # the scaled structure exercises pairing fields with function
        # coefficients, not only rational ones
        fields = scaled().pairing_fields
        assert any(not c.is_rational for x in fields for c in x.data.values())

    def test_pairing_field_refuses_a_form_of_another_degree(self, red2):
        # each pairing is a dot product, which across degrees would be
        # silently zero
        st = red2.structure
        for degree in (0, st.n - 1, st.n + 1):
            beta = Form(st.chart, degree, {tuple(range(degree)): 1})
            with pytest.raises(DegreeError):
                st.pairing_field(beta)

    @pytest.mark.parametrize("name", sorted(S1_STRUCTURES) + ["scaled"])
    @settings(max_examples=20, deadline=None)
    @given(data=hst.data())
    def test_kernel_matches_oracles(self, name, data):
        # multi-term theta of every degree 1..m: the index kernel against
        # one contraction per S^n generator for any theta, and against the
        # sharp_1~ MvForm for theta in (S^1)^{wedge a}, drawn as a
        # combination of the wedge monomials of S^1 with function
        # coefficients
        st = scaled() if name == "scaled" else S1_STRUCTURES[name]()
        ch = st.chart
        a = data.draw(hst.integers(1, ch.m))
        theta = draw_form_of_degree(data, ch, a)
        assert st.pairing_rhs(theta.data) == contract_pairing_rhs(theta, st)
        basis = [f for _, f in s1_wedge_basis(st, a)]
        if not basis:
            return
        member = Form.zero(ch, a)
        for k, c, s, e in data.draw(hst.lists(hst.tuples(
                hst.integers(0, len(basis) - 1), hst.integers(-3, 3),
                hst.integers(0, ch.m - 1), hst.integers(0, 2)), min_size=1, max_size=3)):
            member = member + (c + ch.syms[s] ** e) * basis[k]
        rhs = st.pairing_rhs(member.data)
        assert rhs == contract_pairing_rhs(member, st)
        if member:
            assert rhs == naive_pairing_rhs(member, st)

    @pytest.mark.parametrize("name", sorted(S1_STRUCTURES) + ["scaled", "red3k3", "ym_su2"])
    def test_s1_wedge_basis_matches_wedge_loop(self, name, request):
        # same combinations, order and monomials as one wedge per factor;
        # on the two largest built-in towers up to their S^4 candidates
        if name in ("red3k3", "ym_su2"):
            st, top = request.getfixturevalue(name).structure, 4
        else:
            st = scaled() if name == "scaled" else S1_STRUCTURES[name]()
            top = st.chart.m
        for a in range(top + 1):
            got = s1_wedge_basis(st, a)
            expected = wedge_loop_s1_basis(st, a)
            assert [c for c, _ in got] == [c for c, _ in expected]
            assert all(f == e and list(f.data) == list(e.data)
                       for (_, f), (_, e) in zip(got, expected))

    def test_pairing_fields_are_built_once(self, red2, monkeypatch):
        # the pairing fields are built once per structure; after that the
        # tower and solve_sharp_j make no contract and no wedge call in any
        # module of the package
        top = red2.structure
        st = Structure(top.chart, top.generators(top.n), top.sharp_values(top.n))
        built, contracted, wedged = [], [], []
        real_fields = Structure.pairing_fields.func
        real_contract, real_wedge = forms.contract, forms.wedge

        def counting_fields(structure):
            built.append(structure)
            return real_fields(structure)

        def counting(calls, real):
            def wrapped(*args):
                calls.append(args)
                return real(*args)
            return wrapped

        monkeypatch.setattr(Structure.pairing_fields, "func", counting_fields)
        level = build_span_tower(st, 3, 2, vertical=True)
        assert built == [st]
        modules = [m for name, m in sys.modules.items() if name.startswith("gradira.")]
        for module in modules:
            if vars(module).get("contract") is real_contract:
                monkeypatch.setattr(module, "contract", counting(contracted, real_contract))
            if vars(module).get("wedge") is real_wedge:
                monkeypatch.setattr(module, "wedge", counting(wedged, real_wedge))
        assert extensions.contract is not real_contract and forms.wedge is not real_wedge
        for _ in range(2):
            again = build_span_tower(st, 3, 2, vertical=True)
        for entry in again.entries:
            assert solve_sharp_j(st, entry.form, 2, vertical=True) is not None
        assert [e.form for e in again.entries] == [e.form for e in level.entries]
        assert built == [st]
        assert contracted == []
        assert wedged == []


@cache
def tower_forms(name, a, j, vertical):
    """(admitted generators, candidates) of S^a[j] on a structure of
    ``COMPATIBILITY_STRUCTURES``."""
    level = build_span_tower(COMPATIBILITY_STRUCTURES[name](), a, j, vertical)
    return [e.form for e in level.entries], level.candidates


def is_w_unknown(u):
    return isinstance(u, tuple) and len(u) == 2 and all(isinstance(p, tuple) for p in u)


def row_components(system):
    """The unknowns of each connected component of a pairing system's rows
    (two rows are linked when they share an unknown), each a tuple in
    ``system.unknowns`` order."""
    holders = {}
    for r, coeffs in system.rows.items():
        for u in coeffs:
            holders.setdefault(u, []).append(r)
    seen, out = set(), []
    for start in system.rows:
        if start in seen:
            continue
        seen.add(start)
        stack, held = [start], set()
        while stack:
            for u in system.rows[stack.pop()]:
                held.add(u)
                for r in holders[u]:
                    if r not in seen:
                        seen.add(r)
                        stack.append(r)
        out.append(tuple(u for u in system.unknowns if u in held))
    return out


def row_image(system, w):
    """The right-hand side that the W components ``w`` give: {row key:
    sum_u rows[key][u] * w[u]}."""
    rhs = {}
    for r, coeffs in system.rows.items():
        for u, c in coeffs.items():
            if u in w:
                scalars.accumulate(rhs, r, scalars.smul(c, scalars.as_scalar(w[u])))
    return rhs


PAIRING_ORACLE_STRUCTURES = {
    **COMPATIBILITY_STRUCTURES,
    "ym-su2": cache(lambda: yang_mills(3, "su2").structure),
}

HAMILTONIAN_ORACLE_STRUCTURES = {
    "red2": cache(lambda: reduced_canonical(2, 1).structure),
    "ext2": cache(lambda: extended_canonical(2, 1).structure),
    "red3k2": cache(lambda: reduced_canonical(3, 2).structure),
    "scaled": scaled,
    "sheared": sheared,
}


class TestPairingSystem:
    @pytest.mark.parametrize("name", sorted(COMPATIBILITY_STRUCTURES))
    @settings(max_examples=3, deadline=None)
    @given(data=hst.data())
    def test_solve_sharp_j_matches_naive_solve(self, name, data):
        # at every valid (a, j, vertical), the solve through the structure's
        # pairing system equals a fresh elimination of the W side, both the
        # particular solution and the freedom: on an admitted combination,
        # with or without one candidate added
        st = COMPATIBILITY_STRUCTURES[name]()
        ch = st.chart
        for j in range(1, st.n + 1):
            for a in range(j, ch.m + 1):
                for vertical in (False, True):
                    admitted, candidates = tower_forms(name, a, j, vertical)
                    theta = Form.zero(ch, a)
                    terms = data.draw(hst.lists(hst.tuples(
                        hst.sampled_from(admitted), hst.integers(-3, 3),
                        hst.integers(0, ch.m - 1), hst.integers(0, 2)),
                        max_size=2)) if admitted else []
                    for form, c, s, e in terms:
                        theta = theta + (c + ch.syms[s] ** e) * form
                    if candidates and data.draw(hst.booleans()):
                        theta = theta + data.draw(hst.sampled_from(candidates))
                    got = solve_sharp_j(st, theta, j, vertical)
                    expected = naive_solve_pairing(st, theta, j, vertical)
                    assert (got is None) == (expected is None)
                    if got is not None:
                        assert got[0] == expected[0]
                        assert got[1] == expected[1]

    def test_solve_builds_no_kernel(self, red2, monkeypatch):
        # a solve reads only particular solutions: the candidates of the
        # S^{n+1}[n] system and a Hamiltonian check eliminate components
        # but compute no kernel of any
        top = red2.structure
        st = Structure(top.chart, top.generators(top.n), top.sharp_values(top.n))
        computed = []
        kernel = linsolve.Echelon.kernel.func
        monkeypatch.setattr(linsolve.Echelon, "kernel",
                            property(lambda self: computed.append(self) or kernel(self)))
        system = st.pairing_system(st.n + 1, st.n)
        solved = [system.solve(st.pairing_rhs(theta.data))
                  for _, theta in s1_wedge_basis(st, st.n + 1)]
        assert is_hamiltonian(red2.hamiltonian_form, st)[0]
        assert any(w is not None for w in solved) and system.components._echelons
        assert computed == []

    @pytest.mark.parametrize("vertical", [False, True])
    def test_unknown_budget_is_checked_before_any_row(self, red2, monkeypatch, vertical):
        # the budget counts exactly the W unknowns: a system of the budget's
        # size is built, one past it is refused before its rows are made
        top = red2.structure
        fresh = [Structure(top.chart, top.generators(top.n), top.sharp_values(top.n))
                 for _ in range(3)]
        size = len(fresh[0].pairing_system(2, 1, vertical).unknowns)
        monkeypatch.setattr(structure_module, "MAX_PAIRING_UNKNOWNS", size)
        assert len(fresh[1].pairing_system(2, 1, vertical).unknowns) == size
        monkeypatch.setattr(structure_module, "MAX_PAIRING_UNKNOWNS", size - 1)

        def refused(*args):
            raise AssertionError("the term index was built")

        monkeypatch.setattr(structure_module, "contract_index", refused)
        with pytest.raises(GradiraError, match=f"^the pairing system has {size:,} unknowns, "
                                               f"more than {size - 1:,}$"):
            fresh[2].pairing_system(2, 1, vertical)
        # within the budget the same call builds the index, so the refusal
        # above came before it
        monkeypatch.setattr(structure_module, "MAX_PAIRING_UNKNOWNS", size)
        with pytest.raises(AssertionError, match="^the term index was built$"):
            fresh[2].pairing_system(2, 1, vertical)

    @pytest.mark.parametrize("name", sorted(COMPATIBILITY_STRUCTURES))
    def test_matches_joint_elimination(self, name):
        # at every valid (a, j, vertical): the freedom is the kernel of one
        # elimination of all the rows, vector by vector with its key order,
        # and every solve gives that elimination's particular solution, for
        # the right-hand side of each candidate, the image of a drawn W (with
        # and without a candidate added), a zero entry outside the rows and
        # a nonzero one
        st = COMPATIBILITY_STRUCTURES[name]()
        ch = st.chart
        rng = random.Random(f"{name}-joint")
        outside = (len(st.generators(st.n)), ())
        for j in range(1, st.n + 1):
            for a in range(j, ch.m + 1):
                for vertical in (False, True):
                    system = st.pairing_system(a, j, vertical)
                    joint = linsolve.Echelon(system.rows, system.unknowns)
                    assert [list(f.data.items()) for f in system.freedom] == \
                        [list(vec.items()) for vec in joint.kernel], (a, j, vertical)
                    w = {u: rng.choice([1, -2, 3, ch.syms[rng.randrange(ch.m)]])
                         for u in rng.sample(system.unknowns, min(4, len(system.unknowns)))}
                    image = row_image(system, w)
                    rhs_list = [st.pairing_rhs(theta.data) for _, theta in s1_wedge_basis(st, a)]
                    rhs_list += [image, {**image, outside: scalars.ZERO},
                                 {**image, outside: scalars.ONE}]
                    rhs_list += [{**image, **rhs} for rhs in rhs_list[:3]]
                    for rhs in rhs_list:
                        got, expected = system.solve(rhs), joint.solve(rhs)
                        assert (got is None) == (expected is None), (a, j, vertical, rhs)
                        if got is not None:
                            assert got.data == expected, (a, j, vertical, rhs)

    @pytest.mark.parametrize("name", sorted(HAMILTONIAN_ORACLE_STRUCTURES))
    @settings(max_examples=25, deadline=None)
    @given(data=hst.data())
    def test_hamiltonian_verdict_matches_naive_pairing_route(self, name, data):
        # the verdict and the reason for a random n-form, against the route
        # that decides dH in S^{n+1}[n] by ``naive_solve_pairing``
        st = HAMILTONIAN_ORACLE_STRUCTURES[name]()
        form = draw_form_of_degree(data, st.chart, st.n)
        assert is_hamiltonian(form, st) == naive_is_hamiltonian(form, st)

    def test_hamiltonian_eliminates_only_touched_components(self, ym_su2, monkeypatch):
        # a fresh Yang-Mills Hamiltonian: the (1, 1) rows pair each W unit
        # only with the generator terms it can contract, through the (3, 1)
        # term index, built once with one sign per S^3 term and vector
        # index it holds; the vertical system of the same vector degree
        # reads that index and builds none.  The right-hand side of dH
        # touches 19 components of the system, 55 rows in all
        top = ym_su2.structure
        st = Structure(top.chart, top.generators(top.n), top.sharp_values(top.n))
        pairs, rows = [], []
        real_pair, real_echelon = structure_module.contract_index, linsolve.Echelon.__init__

        def counting_pair(idx, by):
            pairs.append(1)
            return real_pair(idx, by)

        def counting_echelon(self, matrix, unknowns):
            unknowns = list(unknowns)
            if unknowns and all(is_w_unknown(u) for u in unknowns):
                rows.append(len(matrix))
            real_echelon(self, matrix, unknowns)

        monkeypatch.setattr(structure_module, "contract_index", counting_pair)
        monkeypatch.setattr(linsolve.Echelon, "__init__", counting_echelon)
        system = st.pairing_system(st.n + 1, st.n)
        assert len(system.rows) == 1963
        assert len(pairs) <= 2331
        assert len(pairs) == 111
        st.pairing_system(st.n + 1, st.n, vertical=True)
        assert len(pairs) == 111
        Hamiltonian(ym_su2.hamiltonian_form, st)
        assert 0 < sum(rows) <= 55

    @pytest.mark.parametrize("scn, rows, components", [("ym_su2", 55, 19), ("red3k3", 31, 13)])
    def test_hamiltonian_builds_only_the_rows_it_reaches(self, scn, rows, components,
                                                         request, monkeypatch):
        # a Hamiltonian on a fresh structure builds each row of the
        # components its dH touches once, from the index and never through
        # forms._pairing_rows, and eliminates each of those components
        # once; a second Hamiltonian on the same structure builds and
        # eliminates nothing
        scn = request.getfixturevalue(scn)
        top = scn.structure
        st = Structure(top.chart, top.generators(top.n), top.sharp_values(top.n))
        built, eliminated = [], []
        real_row, real_echelon = structure_module.PairingSystem._row, linsolve.Echelon

        def counting_row(self, key):
            built.append(key)
            return real_row(self, key)

        def counting_echelon(matrix, unknowns):
            unknowns = list(unknowns)
            if unknowns and all(is_w_unknown(u) for u in unknowns):
                eliminated.append(len(matrix))
            return real_echelon(matrix, unknowns)

        def refused(*args):
            raise AssertionError("all rows built at once")

        monkeypatch.setattr(structure_module.PairingSystem, "_row", counting_row)
        monkeypatch.setattr(linsolve, "Echelon", counting_echelon)
        monkeypatch.setattr(forms, "_pairing_rows", refused)
        Hamiltonian(scn.hamiltonian_form, st)
        assert len(built) == len(set(built)) == rows
        assert len(eliminated) == components and sum(eliminated) == rows
        del built[:], eliminated[:]
        Hamiltonian(scn.hamiltonian_form, st)
        assert built == [] and eliminated == []

    def test_table_verify_builds_one_term_index(self, red3k3, monkeypatch):
        # loading the reduced_canonical(3, 3) file verifies its 21 table
        # entries with no _bilinear, through the (3, 1) term index: built
        # once, one contract_index per S^3 term and vector index it holds.
        # The vertical S^4[3] tower that follows reads that index and
        # builds none
        doc = dump_scenario(red3k3, extension=canonical_extension_table(red3k3,
                                                                        style="symmetric"))
        bilinear, indexed, verifying = [], [], []
        real_bilinear, real_index = structure_module._bilinear, structure_module.contract_index
        real_verify = ExtensionTable.verify

        def counting_bilinear(*args):
            bilinear.extend(verifying)
            return real_bilinear(*args)

        def counting_index(*args):
            indexed.append(1)
            return real_index(*args)

        def watched_verify(self):
            verifying.append(1)
            real_verify(self)
            verifying.pop()

        monkeypatch.setattr(structure_module, "_bilinear", counting_bilinear)
        monkeypatch.setattr(structure_module, "contract_index", counting_index)
        monkeypatch.setattr(ExtensionTable, "verify", watched_verify)
        sf = load_structure_file(doc)
        st = sf.structure
        assert len(sf.extension.entries) == 21 and bilinear == []
        assert len(indexed) == st.n * sum(len(gen.data) for gen in st.generators(st.n)) == 57
        del indexed[:]
        build_span_tower(st, st.n + 1, st.n, vertical=True)
        assert indexed == []

    @pytest.mark.parametrize("scn", ["red2", "red3"])
    def test_canonical_table_freedom_is_the_naive_kernel(self, scn, request):
        scn = request.getfixturevalue(scn)
        st = scn.structure
        table = canonical_extension_table(scn, style="symmetric")
        _, freedom = naive_solve_pairing(st, Form.zero(st.chart, st.n + 1), st.n,
                                         vertical=True)
        assert freedom and table.freedom == freedom

    def test_one_w_elimination_per_key(self, red2, monkeypatch):
        # two towers, solve_sharp_j on every entry and two Hamiltonian
        # builds: each system eliminates a component of its rows at most
        # once.  A component whose unknowns are all vertical is the same
        # matrix in the vertical and the unrestricted system of one key
        # (a - j, n + 1 - j), so its tuple may be eliminated once in each
        top = red2.structure
        gens, sharps = top.generators(top.n), top.sharp_values(top.n)
        st = Structure(top.chart, gens, sharps)
        eliminated = []
        real = linsolve.Echelon

        def counting(rows, unknowns):
            unknowns = list(unknowns)
            if unknowns and all(is_w_unknown(u) for u in unknowns):
                eliminated.append(tuple(unknowns))
            return real(rows, unknowns)

        for module in [m for name, m in sys.modules.items() if name.startswith("gradira")]:
            if vars(module).get("Echelon") is real:
                monkeypatch.setattr(module, "Echelon", counting)
        keys = [(3, 2, True), (4, 2, False)]
        levels = [build_span_tower(st, a, j, vertical=v) for a, j, v in keys]
        for (a, j, v), level in zip(keys, levels):
            assert level.entries
            for entry in level.entries:
                assert solve_sharp_j(st, entry.form, j, vertical=v) is not None
        systems = [st.pairing_system(a, j, v) for a, j, v in keys]
        # the towers eliminate each component of their systems exactly
        # once, and together cover every unknown that occurs in a row
        towers = list(eliminated)
        assert len(towers) == len(set(towers))
        assert sorted(towers) == sorted(t for s in systems for t in row_components(s))
        assert set().union(*towers) == {u for s in systems for row in s.rows.values()
                                        for u in row}
        # the Hamiltonian eliminates only components of its own system, each
        # once, and a second Hamiltonian eliminates nothing
        Hamiltonian(red2.hamiltonian_form, st)
        system = st.pairing_system(st.n + 1, st.n)
        touched = eliminated[len(towers):]
        assert touched and len(touched) == len(set(touched))
        assert set(touched) <= set(row_components(system))
        Hamiltonian(red2.hamiltonian_form, st)
        assert len(eliminated) == len(towers) + len(touched)
        # no system refers back to its structure, and a second structure
        # from the same generators builds its own
        systems.append(system)
        keys.append((st.n + 1, st.n, False))
        assert all(value is not st for s in systems for value in vars(s).values())
        other = Structure(top.chart, gens, sharps)
        others = [other.pairing_system(a, j, v) for a, j, v in keys]
        assert all(o is not s for o, s in zip(others, systems))
        del eliminated[:]
        for o in others[:2]:
            assert o.freedom
        assert sorted(eliminated) == sorted(towers)

    @pytest.mark.parametrize("vertical", [False, True])
    @pytest.mark.parametrize("name", sorted(COMPATIBILITY_STRUCTURES))
    def test_solves_and_tower_agree_in_either_order(self, name, vertical, monkeypatch):
        # at every valid (a, j): the candidates' solves made before the
        # tower or after it give the same rows, particulars (values and key
        # order), freedom, tower entries and rejected candidates, and one
        # elimination of all the rows answers the same, with the
        # particulars' values; neither order eliminates a component twice
        top = COMPATIBILITY_STRUCTURES[name]()
        gens, sharps = top.generators(top.n), top.sharp_values(top.n)
        eliminated = []
        real = linsolve.Echelon

        def counting(rows, unknowns):
            unknowns = list(unknowns)
            if unknowns and all(is_w_unknown(u) for u in unknowns):
                eliminated.append(tuple(unknowns))
            return real(rows, unknowns)

        monkeypatch.setattr(linsolve, "Echelon", counting)
        for j in range(1, top.n + 1):
            for a in range(j, top.chart.m + 1):
                outcomes = []
                for solve_first in (True, False):
                    st = Structure(top.chart, gens, sharps)
                    system = st.pairing_system(a, j, vertical)
                    rhs_list = [st.pairing_rhs(theta.data) for _, theta in s1_wedge_basis(st, a)]
                    del eliminated[:]
                    solved = [system.solve(rhs) for rhs in rhs_list] if solve_first else None
                    level = build_span_tower(st, a, j, vertical)
                    if not solve_first:
                        solved = [system.solve(rhs) for rhs in rhs_list]
                    assert len(eliminated) == len(set(eliminated)), (a, j, solve_first)
                    joint = real(system.rows, system.unknowns)
                    record = tower_record([(e.form, e.value) for e in level.entries], (),
                                          level.rejected(), level.span.generators)
                    outcomes.append((
                        [(r, list(coeffs.items())) for r, coeffs in system.rows.items()],
                        [w if w is None else _items(w) for w in solved],
                        [_items(f) for f in level.freedom],
                        record,
                        [joint.solve(rhs) for rhs in rhs_list],
                        [list(vec.items()) for vec in joint.kernel]))
                assert outcomes[0] == outcomes[1], (a, j)
                _, particulars, _, _, joint_particulars, _ = outcomes[0]
                assert [w if w is None else dict(w) for w in particulars] == \
                    joint_particulars, (a, j)

    def test_freedom_is_not_shared_with_callers(self, red2):
        top = red2.structure
        st = Structure(top.chart, top.generators(top.n), top.sharp_values(top.n))
        level = build_span_tower(st, 3, 2, vertical=True)
        freedom = list(level.freedom)
        assert freedom
        level.freedom.clear()
        _, solved = solve_sharp_j(st, level.entries[0].form, 2, vertical=True)
        solved.append(solved[0])
        assert build_span_tower(st, 3, 2, vertical=True).freedom == freedom
        assert solve_sharp_j(st, level.entries[0].form, 2, vertical=True)[1] == freedom


@cache
def tilted():
    """On (x1, x2; y1): S^2 = <d^2 x, dy ^ dx1, dy ^ dx2> with sharp values
    0, @/x2, -@/x1.  sharp_1(dy) = -@/x1 ^ @/x2 has a base-base block, so
    X_vol = @/y1 is not zero and a form can pass the semi-basic test of
    ``is_hamiltonian`` and fail the annihilation test (2 y1 d^2 x does).
    Only the Hamiltonian check is asked of it, not the axioms."""
    ch = Chart(base=["x1", "x2"], fiber=["y1"])
    dy = Form.d_coord(ch, "y1")
    gens = [volume_contraction(ch, []), wedge(dy, Form.d_coord(ch, "x1")),
            wedge(dy, Form.d_coord(ch, "x2"))]
    sharps = [MultiVector.zero(ch, 1), MultiVector.coord_vector(ch, "x2"),
              -MultiVector.coord_vector(ch, "x1")]
    return Structure(ch, gens, sharps)


@cache
def named_structure(name):
    structures = {**S1_STRUCTURES, "scaled": scaled, "tilted": tilted}
    return structures[name]()


# A Hamiltonian n-form H0 of each structure (any function may stand in
# front of d^n x) and Hamiltonian (n-1)-forms for the left slot of
# bracket_ext1; on the sheared chart, the canonical ones pulled back along
# y1 -> y1 + x1 + p2_1, p1_1 -> p1_1 - y1.
CANONICAL_H0 = ("(p1_1**2 + p2_1**2 + x1 * y1) * dX[]"
                " - p1_1 * d(y1) ^ dX[1] - p2_1 * d(y1) ^ dX[2]")
CANONICAL_ALPHAS = ["y1 * dX[1]", "y1 * dX[2]", "p1_1 * dX[1] + p2_1 * dX[2]", "x1 * dX[2]"]
ROUTES = {
    "reduced": (CANONICAL_H0, CANONICAL_ALPHAS),
    "scaled": (CANONICAL_H0, CANONICAL_ALPHAS),
    "sheared": (
        "((p1_1 - y1)**2 + p2_1**2) * dX[]"
        " - (p1_1 - y1) * (d(y1) + d(x1) + d(p2_1)) ^ dX[1]"
        " - p2_1 * (d(y1) + d(x1) + d(p2_1)) ^ dX[2]",
        ["(y1 + x1 + p2_1) * dX[1]", "(y1 + x1 + p2_1) * dX[2]",
         "(p1_1 - y1) * dX[1] + p2_1 * dX[2]"]),
    "rank-deficient": ("x1 * x2 * dX[]", ["x1 * dX[1]", "x2 * dX[2]", "x1 * x2 * dX[1]"]),
    "tilted": ("2 * y1 * dX[]", []),
}


def outcome(compute):
    """("ok", value) or (exception type, message): what a call did."""
    try:
        return "ok", compute()
    except (DegreeError, MembershipError, NotHamiltonianError) as exc:
        return type(exc).__name__, str(exc)


@cache
def gamma_tables(name):
    """Level-n tables of the structure: its vertical and unrestricted
    S^{n+1}[n] towers."""
    st = named_structure(name)
    return [build_span_tower(st, st.n + 1, st.n, vertical=v).table() for v in (True, False)]


class TestPairingFieldRoutes:
    """The Hamiltonian check, bracket_ext1 and gamma_H pair through the
    pairing fields X_beta; each must agree with the route through the
    sharp_1~ (or sharp_n~) MvForm in ``tests/naive.py``."""

    def test_hamiltonians_and_left_arguments(self):
        verdicts = {"tilted": (False, ["sharp_1~(dH) does not annihilate semi-basic n-forms"])}
        for name, (h0, alphas) in ROUTES.items():
            st = named_structure(name)
            assert is_hamiltonian(parse_form(h0, st.chart), st) == \
                verdicts.get(name, (True, ["ok"]))
            for text in alphas:
                assert is_hamiltonian_form(parse_form(text, st.chart), st), (name, text)

    @pytest.mark.parametrize("name", sorted(ROUTES))
    @settings(max_examples=30, deadline=None)
    @given(data=hst.data())
    def test_is_hamiltonian_matches_mvform_oracle(self, name, data):
        # the verdict and the diagnostic, including the vertical it names
        st = named_structure(name)
        form = parse_form(ROUTES[name][0], st.chart) + draw_form_of_degree(
            data, st.chart, st.n, min_size=0)
        assert is_hamiltonian(form, st) == naive_is_hamiltonian(form, st)

    @pytest.mark.parametrize("name", sorted(set(ROUTES) - {"tilted"}))
    @settings(max_examples=25, deadline=None)
    @given(data=hst.data())
    def test_bracket_ext1_matches_mvform_oracle(self, name, data):
        st = named_structure(name)
        ch = st.chart
        alpha = Form.zero(ch, st.n - 1)
        for text in ROUTES[name][1]:
            c = data.draw(hst.integers(-2, 2)) * data.draw(
                hst.sampled_from([1, ch.sym("x1"), ch.sym("x2")]))
            alpha = alpha + c * parse_form(text, ch)
        theta = draw_form(data, ch)
        assert outcome(lambda: bracket_ext1(alpha, theta, st)) == \
            outcome(lambda: naive_bracket_ext1(alpha, theta, st))

    @pytest.mark.parametrize("name", sorted(set(ROUTES) - {"tilted"}))
    @settings(max_examples=20, deadline=None)
    @given(data=hst.data())
    def test_gamma_h_matches_mvform_oracle(self, name, data):
        # gamma_H's acceptance, or its rejection and message, on tables
        # whose values are shifted by drawn vertical-valued terms
        # dx^i (x) @/u (unverified tables, so that 1_1 - sharp_n~(dH) can
        # fail to be semi-basic)
        st = named_structure(name)
        ch = st.chart
        h = parse_form(ROUTES[name][0], ch) + draw_form_of_degree(
            data, ch, st.n, min_size=0)
        try:
            ham = Hamiltonian(h, st)
        except NotHamiltonianError:
            return
        table = data.draw(hst.sampled_from(gamma_tables(name)))
        entries = []
        for theta, value in table.entries:
            for i, u, c in data.draw(hst.lists(hst.tuples(
                    hst.integers(0, ch.m - 1), hst.sampled_from(list(fiber_indices(ch))),
                    hst.integers(-1, 1)), max_size=2)):
                value = value + MvForm(ch, 1, 1, {((i,), (u,)): c})
            entries.append((theta, value))
        table = ExtensionTable(st, table.j, entries, verify=False)

        def connection(gamma):
            return lambda: gamma(ham, table).gammas

        assert outcome(connection(gamma_H)) == outcome(connection(naive_gamma_H))


class TestBracketExt1:
    def test_golden_field_evolution(self, red3):
        ch, st = red3.chart, red3.structure
        n = 3
        ham = red3.hamiltonian_form
        vol = volume_contraction(ch, [])
        for mu in range(1, n + 1):
            alpha = Form.scalar_form(ch, ch.sym("y1")) * volume_contraction(
                ch, [mu - 1]
            )
            got = bracket_ext1(alpha, ham, st)
            expected = sympy.Symbol(f"H__p{mu}_1") * vol - wedge(
                Form.d_coord(ch, "y1"), volume_contraction(ch, [mu - 1])
            )
            assert got == expected

    def test_golden_momentum_evolution(self, red3):
        ch, st = red3.chart, red3.structure
        n = 3
        ham = red3.hamiltonian_form
        alpha = Form.zero(ch, n - 1)
        expected = -sympy.Symbol("H__y1") * volume_contraction(ch, [])
        for mu in range(1, n + 1):
            alpha = alpha + Form.scalar_form(ch, ch.sym(f"p{mu}_1")) * \
                volume_contraction(ch, [mu - 1])
            expected = expected - wedge(
                Form.d_coord(ch, f"p{mu}_1"), volume_contraction(ch, [mu - 1])
            )
        assert bracket_ext1(alpha, ham, st) == expected

    def test_closed_alpha_gives_zero(self, red2):
        # locality in the left slot: d alpha = 0 kills the bracket
        ch, st = red2.chart, red2.structure
        closed = exterior_derivative(Form.scalar_form(ch, ch.sym("x1") * ch.sym("y1")))
        assert bracket_ext1(closed, red2.hamiltonian_form, st).is_zero()

    def test_closed_theta_gives_zero(self, red2):
        ch, st = red2.chart, red2.structure
        alpha = Form.scalar_form(ch, ch.sym("y1")) * volume_contraction(ch, [0])
        closed = exterior_derivative(
            Form.scalar_form(ch, ch.sym("p1_1")) * Form.d_coord(ch, "y1")
        )
        assert bracket_ext1(alpha, closed, st).is_zero()

    def test_agrees_with_base_bracket_on_hamiltonian_range(self, red2):
        ch, st = red2.chart, red2.structure
        rng = rng_from_env()
        for _ in range(4):
            alpha = random_hamiltonian_form(rng, red2)
            beta = random_hamiltonian_form(rng, red2)
            assert bracket_ext1(alpha, beta, st) == bracket(alpha, beta, st)


class TestSpanTower:
    def test_vertical_tower_families(self, red2, red3):
        for scn, n in ((red2, 2), (red3, 3)):
            ch, st = scn.chart, scn.structure
            level = build_span_tower(st, n + 1, n, vertical=True)
            vol = volume_contraction(ch, [])
            families = [wedge(Form.d_coord(ch, "y1"), vol)]
            for mu in range(1, n + 1):
                families.append(wedge(Form.d_coord(ch, f"p{mu}_1"), vol))
            families.append(dy_family(ch, n))
            span = level.admitted_span()
            for f in families:
                assert span.contains(f)
            # and exactly those: the admitted span has the same rank
            from gradira.spans import Span, decompose_over

            for entry in level.entries:
                assert decompose_over(families, entry.form) is not None

    def test_rejections(self, red3):
        # dp ^ dp ^ d^{n-1}x is rejected (k = 1, n = 3); the dy ^ dy
        # candidate vanishes identically at one field, so the single-field
        # towers consist of exactly the classical families
        ch, st = red3.chart, red3.structure
        level = build_span_tower(st, 4, 3, vertical=True)
        bad = wedge(
            Form.d_coord(ch, "p1_1"),
            wedge(Form.d_coord(ch, "p2_1"), volume_contraction(ch, [0])),
        )
        assert not level.is_admitted(bad)

    def test_two_field_dy_dy_candidate_is_genuinely_admitted(self, red2k2):
        # With two fields the dy^1 ^ dy^2 ^ d^{n-1}x_alpha candidate is
        # genuinely admitted by the defining pairing, with the explicit
        # vertical witness W = dy^2 (x) d/dp^alpha_1 - dy^1 (x) d/dp^alpha_2
        # (imposing only the volume and field columns would reject it; the
        # momentum column has this solution).
        ch, st = red2k2.chart, red2k2.structure
        theta = wedge(
            Form.d_coord(ch, "y1"),
            wedge(Form.d_coord(ch, "y2"), volume_contraction(ch, [0])),
        )
        witness = MvForm.tensor(
            Form.d_coord(ch, "y2"), MultiVector.coord_vector(ch, "p1_1")
        ) - MvForm.tensor(
            Form.d_coord(ch, "y1"), MultiVector.coord_vector(ch, "p1_2")
        )
        assert pairing_defect(st, theta, w=witness) is None
        level = build_span_tower(st, 3, 2, vertical=True)
        assert level.is_admitted(theta)
        # the momentum pair family stays rejected
        bad = wedge(
            Form.d_coord(ch, "p1_1"),
            wedge(Form.d_coord(ch, "p1_2"), volume_contraction(ch, [0])),
        )
        assert not level.is_admitted(bad)

    def test_unrestricted_tower_admits_traceless_block(self, red3):
        # without the vertical restriction the defining pairing admits the
        # extra generators carried by traceless base-to-base solutions
        # (the classical generator list implicitly assumes vertical values)
        ch, st = red3.chart, red3.structure
        level = build_span_tower(st, 4, 3, vertical=False)
        extra = wedge(
            Form.d_coord(ch, "y1"),
            wedge(Form.d_coord(ch, "p1_1"), volume_contraction(ch, [1])),
        )
        assert level.is_admitted(extra)
        vertical = build_span_tower(st, 4, 3, vertical=True)
        assert not vertical.is_admitted(extra)

    def test_contraction_matrix_rows(self, red3):
        # iota_{sharp_n(alpha)} Theta, the data driving the tower solve
        ch, st = red3.chart, red3.structure
        n = 3
        vol = volume_contraction(ch, [])
        dy_vol = wedge(Form.d_coord(ch, "y1"), vol)
        dp_vol = {mu: wedge(Form.d_coord(ch, f"p{mu}_1"), vol) for mu in (1, 2, 3)}
        gens = {tuple(sorted(g.data)): (g, v) for g, v in
                zip(st.generators(n), st.sharp_values(n))}

        def sharp_of(form):
            return st.derive_sharp(n, form).rep

        for i_mu in (1, 2, 3):
            alpha = wedge(Form.d_coord(ch, "y1"),
                          volume_contraction(ch, [i_mu - 1]))
            # row dy^j ^ d^n x, column dy^i ^ d^{n-1}x_mu: 0
            assert contract(sharp_of(alpha), dy_vol).is_zero()
            # row dp^alpha_j ^ d^n x: delta^alpha_mu d^n x
            for a_ in (1, 2, 3):
                got = contract(sharp_of(alpha), dp_vol[a_])
                if a_ == i_mu:
                    assert got == -vol  # sharp(dy dx_mu) = -d/dp^mu
                else:
                    assert got.is_zero()
        # dp-generator column: iota_{d/dy} (dy^j ^ d^n x) = d^n x
        dpg = Form.zero(ch, n)
        for mu in (1, 2, 3):
            dpg = dpg + wedge(Form.d_coord(ch, f"p{mu}_1"),
                              volume_contraction(ch, [mu - 1]))
        assert contract(sharp_of(dpg), dy_vol) == vol
        # volume column is annihilated
        assert contract(sharp_of(vol), dy_vol).is_zero()

    def test_tower_monotonicity(self, red2):
        # S^a[j+1] is contained in S^a[j]
        st = red2.structure
        lvl2 = build_span_tower(st, 3, 2)
        lvl1 = build_span_tower(st, 3, 1)
        span1 = lvl1.admitted_span()
        for entry in lvl2.entries:
            assert span1.contains(entry.form)

    def test_sheared_tower_pinned(self):
        # on the sheared structure the candidates are the wedge monomials
        # of the coordinate differentials, not of the S^1 generators
        level = build_span_tower(sheared(), 3, 2)
        assert [render(e.form) for e in level.entries] == [
            "-d(y1) ^ d(p1_1) ^ dX[2] - d(y1) ^ d(p2_1) ^ dX[2]"
            " + d(p1_1) ^ d(p2_1) ^ dX[2]",
            "-d(p1_1) ^ dX[] - d(p2_1) ^ dX[]",
            "d(y1) ^ dX[] + d(p2_1) ^ dX[]",
            "-d(y1) ^ d(p2_1) ^ dX[1]",
            "-d(y1) ^ d(p2_1) ^ dX[2] + d(y1) ^ d(p1_1) ^ dX[1]"
            " + d(y1) ^ d(p2_1) ^ dX[1] - d(p1_1) ^ d(p2_1) ^ dX[1]",
            "-d(p2_1) ^ dX[]",
            "d(y1) ^ d(p2_1) ^ dX[2] + d(y1) ^ d(p1_1) ^ dX[1]"
            " + d(y1) ^ d(p2_1) ^ dX[1] - d(p1_1) ^ d(p2_1) ^ dX[1]",
        ]
        assert [render(f) for f in level.rejected()] == [
            "-d(y1) ^ d(p1_1) ^ dX[2]",
            "-d(p1_1) ^ d(p2_1) ^ dX[2]",
            "d(y1) ^ d(p1_1) ^ dX[1]",
            "d(p1_1) ^ d(p2_1) ^ dX[1]",
            "d(y1) ^ d(p1_1) ^ d(p2_1)",
        ]
        assert len(level.freedom) == 3

    @pytest.mark.parametrize("a, j, message", [
        (0, 2, "form degree a=0 below extension level j=2"),
        (-1, 2, "form degree a=-1 below extension level j=2"),
        (1, 2, "form degree a=1 below extension level j=2"),
        (3, 0, "extension level j=0 out of range (1..2)"),
        (3, 7, "extension level j=7 out of range (1..2)"),
        (6, 2, "form degree a=6 above chart dimension 5"),
        (9, 2, "form degree a=9 above chart dimension 5"),
        (6, 1, "form degree a=6 above chart dimension 5"),
    ])
    def test_levels_out_of_range(self, red2, a, j, message):
        # the tower and solve_sharp_j share one range check
        st = red2.structure
        with pytest.raises(DegreeError) as exc:
            build_span_tower(st, a, j)
        assert str(exc.value) == message
        if a > st.chart.m:
            # solve_sharp_j takes a form, and none has a degree above m
            with pytest.raises(DegreeError, match=f"degree {a} out of range"):
                Form.zero(st.chart, a)
        elif a >= 0:
            with pytest.raises(DegreeError) as exc:
                solve_sharp_j(st, Form.zero(st.chart, a), j)
            assert str(exc.value) == message

    @pytest.mark.parametrize("name", sorted(COMPATIBILITY_STRUCTURES))
    def test_candidate_budget_is_checked_before_any_candidate(self, name, monkeypatch):
        # the budget counts C(#factors, a), the products s1_wedge_basis
        # tries: a budget equal to it builds the tower, one less refuses it
        # before s1_wedge_basis runs, and a bad level is still a DegreeError
        st = COMPATIBILITY_STRUCTURES[name]()
        count = comb(len(extensions._s1_factors(st)), 2)
        assert len(build_span_tower(st, 2, 1).candidates) <= count
        calls = []
        basis = extensions.s1_wedge_basis
        monkeypatch.setattr(extensions, "s1_wedge_basis",
                            lambda *args: calls.append(args) or basis(*args))
        monkeypatch.setattr(extensions, "MAX_TOWER_CANDIDATES", count)
        build_span_tower(st, 2, 1)
        assert calls == [(st, 2)]
        monkeypatch.setattr(extensions, "MAX_TOWER_CANDIDATES", count - 1)
        with pytest.raises(GradiraError, match=fr"^the S\^2\[1\] tower has {count:,} "
                                               fr"candidates, more than {count - 1:,}$"):
            build_span_tower(st, 2, 1)
        with pytest.raises(DegreeError, match="^extension level j=0 out of range"):
            build_span_tower(st, 2, 0)
        assert calls == [(st, 2)]

    def test_builtin_towers_are_within_the_candidate_budget(self, ym_su2):
        # the largest built-in tower, Yang-Mills S^4[3], takes C(21, 4)
        # candidates, every one a nonzero product
        st = ym_su2.structure
        count = comb(len(extensions._s1_factors(st)), 4)
        assert count == 5985 < extensions.MAX_TOWER_CANDIDATES
        assert count == len(build_span_tower(st, 4, 3, vertical=True).candidates)

    def test_benchmark_tower_pinned(self):
        # S^4[3] on reduced_canonical(3, 3), rendered as the canon-tower
        # benchmark renders it; digest of the text computed from sharp_1~
        # values and a full pivot scan, before the pairing fields
        level = build_span_tower(reduced_canonical(3, 3).structure, 4, 3,
                                 vertical=True)
        rejected = level.rejected()
        lines = [f"S^4[3] admitted generators ({len(level.entries)}):"]
        lines += [f"  {render(e.form)}" for e in level.entries]
        lines.append(f"rejected candidates ({len(rejected)}):")
        lines += [f"  {render(f)}" for f in rejected]
        lines.append(f"homogeneous freedom dimension: {len(level.freedom)}")
        text = "\n".join(lines) + "\n"
        assert (len(level.entries), len(rejected), len(level.freedom)) == (30, 1344, 24)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "836dc821922705d6d28e55d9be244fed04ae7730c824af771f6c6231f9dc5c5d")

    def test_contraction_lowers_tower(self, red2):
        # iota_X maps S^a[j] into S^{a-1}[j-1]
        ch, st = red2.structure.chart, red2.structure
        lvl = build_span_tower(st, 3, 2)
        x = MultiVector.coord_vector(ch, "p1_1")
        for entry in lvl.entries:
            lowered = contract(x, entry.form)
            if lowered.is_zero():
                continue
            assert solve_sharp_j(st, lowered, 1) is not None

    def test_queries_reuse_one_elimination(self, red2, monkeypatch):
        built = []
        real = linsolve.Echelon.__init__

        def counting(self, rows, unknowns):
            built.append(1)
            real(self, rows, unknowns)

        top = red2.structure
        st = Structure(top.chart, top.generators(top.n), top.sharp_values(top.n))
        level = build_span_tower(st, 3, 2, vertical=True)
        monkeypatch.setattr(linsolve.Echelon, "__init__", counting)
        level.rejected()
        assert len(built) <= 1
        del built[:]
        level.rejected()
        assert built == []
        for a in range(1, st.n + 1):
            gens = st.generators(a)
            st.contains(a, gens[0])
            del built[:]
            for _ in range(2):
                for g in gens:
                    assert st.contains(a, g)
                    st.derive_sharp(a, g)
            assert built == []


def _items(obj):
    return list(obj.data.items())


def tower_record(entries, freedom, rejected, span):
    """A tower's entries (form and value), rejected candidates and span
    generators as coefficient items, key order included, and its freedom
    (the pairing system's, up to 25,740 MvForms on reduced_canonical(3, 2))
    as a list."""
    return {"entries": [(_items(form), _items(value)) for form, value in entries],
            "freedom": list(freedom),
            "rejected": [_items(f) for f in rejected],
            "span": [_items(g) for g in span]}


def tower_and_joint_rows(st, a, j, vertical, monkeypatch):
    """One ``build_span_tower`` call: the level and the row keys, in order,
    of its joint elimination, ("c", candidate index) and ("w", W unknown)."""
    joint, real = [], extensions.Echelon

    def recording(rows, unknowns):
        joint.append(list(rows))
        return real(rows, unknowns)

    with monkeypatch.context() as patch:
        patch.setattr(extensions, "Echelon", recording)
        level = build_span_tower(st, a, j, vertical)
    [keys] = joint
    return level, keys


def check_against_joint_solve(st, a, j, vertical, monkeypatch):
    """``build_span_tower`` equals ``naive_build_span_tower``.  Its lone
    flags and live W columns equal those of ``naive_support_graph``, order
    included, each W column being the negated column of the pairing
    system, and its joint elimination takes the candidates that are not
    lone, a lone one with several terms whose right-hand side is empty,
    then the live W columns.  Returns the level."""
    level, keys = tower_and_joint_rows(st, a, j, vertical, monkeypatch)
    expected = naive_build_span_tower(st, a, j, vertical)
    got = tower_record([(e.form, e.value) for e in level.entries], level.freedom,
                       level.rejected(), level.span.generators)
    assert got == tower_record(**expected), (a, j, vertical)
    candidates, system = level.candidates, st.pairing_system(a, j, vertical)
    lone, w_columns = extensions._live_columns(st, candidates, system)
    expected_lone, expected_w = naive_support_graph(st, candidates, system)
    assert lone == expected_lone, (a, j, vertical)
    assert list(w_columns) == expected_w, (a, j, vertical)
    negated = {}
    for r, coeffs in system.rows.items():
        for wk, c in coeffs.items():
            negated.setdefault(wk, {})[r] = scalars.sneg(c)
    assert all(list(col.items()) == list(negated[wk].items())
               for wk, col in w_columns.items()), (a, j, vertical)
    kept = [not is_lone or (len(theta.data) > 1 and not st.pairing_rhs(theta.data))
            for is_lone, theta in zip(expected_lone, candidates)]
    assert keys == [("c", t) for t, keep in enumerate(kept) if keep] + \
        [("w", wk) for wk in expected_w], (a, j, vertical)
    return level


def oracle_structure(name, request):
    from test_structure import _proportional_top

    builders = {"sheared": sheared, "scaled": scaled, "rank-deficient": rank_deficient,
                "tilted": tilted, "proportional": _proportional_top}
    if name in builders:
        return builders[name]()
    return request.getfixturevalue(name).structure


class TestSpanTowerSupport:
    """The tower eliminates only the live columns: the candidates that are
    not lone (a lone candidate's support keys are counted once over all
    supports and held by no row of the pairing system) and the W columns of
    the pairing-system components that some support touches.  It must equal
    the joint elimination of every candidate, and its lone flags and live W
    columns those of ``naive_support_graph``, which follows shared row keys
    from column to column."""

    @pytest.mark.parametrize("name", ["red2", "red3", "red2k2", "red3k2", "ext2",
                                      "sheared", "scaled", "rank-deficient", "tilted",
                                      "proportional"])
    def test_matches_joint_solve(self, name, request, monkeypatch):
        st = oracle_structure(name, request)
        for j in range(1, st.n + 1):
            for vertical in (True, False):
                check_against_joint_solve(st, st.n + 1, j, vertical, monkeypatch)

    @pytest.mark.parametrize("vertical", [True, False])
    def test_yang_mills_matches_joint_solve(self, ym_su2, vertical, monkeypatch):
        level = check_against_joint_solve(ym_su2.structure, 4, 3, vertical, monkeypatch)
        assert len(level.entries) == (39 if vertical else 47)

    def test_reduced_canonical_3_3_matches_joint_solve(self, red3k3, monkeypatch):
        level = check_against_joint_solve(red3k3.structure, 4, 3, True, monkeypatch)
        assert (len(level.candidates), len(level.entries)) == (1365, 30)

    def test_one_term_factors_take_the_key_path(self, red3k3, monkeypatch):
        # vertical S^4[3] on reduced_canonical(3, 3): every factor is one
        # term, so the candidates are built with no _bilinear and the lone
        # flags with no support.  Only the 165 candidates that are not lone
        # and the 30 entries get a right-hand side
        st = red3k3.structure
        st.pairing_system(4, 3, vertical=True)
        bilinear, by_keys, rhs = [], [], []
        real_bilinear, real_by_keys = extensions._bilinear, extensions._lone_by_keys
        real_rhs = Structure.pairing_rhs
        monkeypatch.setattr(extensions, "_bilinear", lambda *args, **kwargs:
                            bilinear.append(1) or real_bilinear(*args, **kwargs))
        monkeypatch.setattr(extensions, "_lone_by_keys",
                            lambda *args: by_keys.append(1) or real_by_keys(*args))
        monkeypatch.setattr(Structure, "pairing_rhs",
                            lambda self, data: rhs.append(1) or real_rhs(self, data))
        level = build_span_tower(st, 4, 3, vertical=True)
        assert (len(bilinear), len(by_keys), len(rhs)) == (0, 1, 195)
        lone, _ = extensions._live_columns(st, level.candidates, st.pairing_system(4, 3, True))
        assert (len(level.candidates), sum(lone), len(level.rejected())) == (1365, 1200, 1344)

    @pytest.mark.parametrize("builder", [rank_deficient_sheared, oblique])
    def test_multi_term_factors_take_the_generic_path(self, builder, monkeypatch):
        # a factor with two terms: the products go through _bilinear, and
        # the lone flags of S^2[1], which has a two-term candidate, through
        # the supports
        st = builder()
        bilinear, by_keys = [], []
        real_bilinear, real_by_keys = extensions._bilinear, extensions._lone_by_keys
        monkeypatch.setattr(extensions, "_bilinear", lambda *args, **kwargs:
                            bilinear.append(1) or real_bilinear(*args, **kwargs))
        monkeypatch.setattr(extensions, "_lone_by_keys",
                            lambda *args: by_keys.append(1) or real_by_keys(*args))
        level = build_span_tower(st, 2, 1)
        assert any(len(c.data) > 1 for c in level.candidates)
        assert bilinear and not by_keys

    def test_dead_w_columns_stay_out_of_the_elimination(self, red3k2, monkeypatch):
        # vertical S^4[1] on reduced_canonical(3, 2): 540 of the 1,980 W
        # columns sit in components whose rows no candidate support
        # touches, and 330 candidates are not lone.  The joint elimination
        # holds at most the other 1,440 W columns and those candidates
        st = red3k2.structure
        system = st.pairing_system(4, 1, vertical=True)
        assert len({u for row in system.rows.values() for u in row}) == 1980
        _, keys = tower_and_joint_rows(st, 4, 1, True, monkeypatch)
        assert len([key for key in keys if key[0] == "w"]) <= 1440
        assert len(keys) <= 1440 + 330

    def test_work_stays_in_live_components(self, ym_su2, monkeypatch):
        # vertical S^4[3] on Yang-Mills: 432 of the 5,985 candidates share a
        # row key with another column.  Only those get a right-hand side
        # and a membership test; the admitted entries get one more
        # right-hand side each, for their values
        st = ym_su2.structure
        st.pairing_system(4, 3, vertical=True)
        rhs, contains, rows = [], [], []
        real_rhs, real_contains = Structure.pairing_rhs, spans.Span.contains
        real_echelon = linsolve.Echelon.__init__

        def counting_rhs(self, data):
            rhs.append(1)
            return real_rhs(self, data)

        def counting_contains(self, target):
            contains.append(1)
            return real_contains(self, target)

        def counting_echelon(self, matrix, unknowns):
            rows.append(len(matrix))
            real_echelon(self, matrix, unknowns)

        monkeypatch.setattr(Structure, "pairing_rhs", counting_rhs)
        monkeypatch.setattr(spans.Span, "contains", counting_contains)
        monkeypatch.setattr(linsolve.Echelon, "__init__", counting_echelon)
        level = build_span_tower(st, 4, 3, vertical=True)
        rejected = level.rejected()
        assert (len(level.candidates), len(level.entries)) == (5985, 39)
        assert len(rhs) <= 432 + 39
        assert len(contains) <= 432
        assert rows and max(rows) < 1000
        assert level.rejected() == rejected and level.rejected() is not rejected

    @pytest.mark.parametrize("builder", [rank_deficient, rank_deficient_sheared,
                                         oblique, base_valued])
    def test_edge_structures_match_joint_solve(self, builder, monkeypatch):
        st = builder()
        for j in range(1, st.n + 1):
            for a in range(j, st.chart.m + 1):
                for vertical in (True, False):
                    check_against_joint_solve(st, a, j, vertical, monkeypatch)

    @pytest.mark.parametrize("builder, terms", [(rank_deficient, 1),
                                                (rank_deficient_sheared, 2)])
    def test_empty_right_hand_sides_are_admitted(self, builder, terms):
        # zero sharp values: the one candidate d^2 x (sheared, (dx1 + dy1)
        # ^ dx2) pairs to nothing, so it is admitted
        st = builder()
        for j in (1, 2):
            for vertical in (True, False):
                level = build_span_tower(st, 2, j, vertical)
                assert [len(c.data) for c in level.candidates] == [terms]
                assert st.pairing_rhs(level.candidates[0].data) == {}
                assert level.is_admitted(level.candidates[0])
                assert level.rejected() == []

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("vertical", [True, False])
    def test_over_approximated_support_is_admitted(self, j, vertical):
        # (dx1 + dy1) ^ dx2 reaches the index through both of its terms,
        # whose contributions cancel: its right-hand side is empty
        st = oblique()
        ch = st.chart
        theta = wedge(Form.d_coord(ch, "x1") + Form.d_coord(ch, "y1"), Form.d_coord(ch, "x2"))
        level = build_span_tower(st, 2, j, vertical)
        [multi] = [c for c in level.candidates if len(c.data) > 1]
        assert multi.data.keys() == theta.data.keys()
        assert set(st.pairing_index) == {ch.index("x1"), ch.index("y1")}
        assert st.pairing_rhs(multi.data) == {}
        assert level.is_admitted(multi) and multi not in level.rejected()

    @pytest.mark.parametrize("j", [1, 2])
    def test_component_without_w_admits_a_combination(self, j):
        # dx2 ^ dx3 and dx1 ^ dx3 pair to the same key, which no vertical W
        # reaches; each alone is rejected, their difference is admitted
        # with the zero value
        st = base_valued()
        ch = st.chart
        dx = [Form.d_coord(ch, f"x{i}") for i in (1, 2, 3)]
        first, second = wedge(dx[1], dx[2]), wedge(dx[0], dx[2])
        system = st.pairing_system(2, j, vertical=True)
        keys = set(st.pairing_rhs(first.data)) | set(st.pairing_rhs(second.data))
        assert st.pairing_rhs(first.data) and st.pairing_rhs(second.data)
        assert not keys & set(system.rows)
        level = build_span_tower(st, 2, j, vertical=True)
        assert not level.is_admitted(first) and not level.is_admitted(second)
        assert level.is_admitted(first - second)
        assert [e.value.is_zero() for e in level.entries] == [True]
        assert len(level.rejected()) == 3


class TestExtensionTable:
    def test_symmetric_table_validates(self, red2):
        table = canonical_extension_table(red2, style="symmetric")
        assert table.j == 2
        assert len(table.entries) == 4

    def test_corrupted_entry_rejected(self, red2):
        table = canonical_extension_table(red2, style="symmetric")
        theta, value = table.entries[0]
        with pytest.raises(MembershipError):
            ExtensionTable(red2.structure, table.j, [(theta, 2 * value)])

    def test_apply_decomposes_over_entries(self, red2):
        table = canonical_extension_table(red2, style="symmetric")
        ham = red2.hamiltonian_form
        w = table.apply(exterior_derivative(ham))
        assert w.vec_slot_vertical()

    def test_compat_lower_identity(self, red2):
        table = canonical_extension_table(red2, style="symmetric")
        assert compat_lower(table, table.j) is table

    def test_compat_lower_reproduces_sharp1(self, red2):
        # i = 1 reproduces sharp1_tilde modulo K_n on every entry
        st = red2.structure
        table = canonical_extension_table(red2, style="symmetric")
        lowered = compat_lower(table, 1)
        for theta, value in lowered.entries:
            diff = value - sharp1_tilde(theta, st)
            assert st.coset_is_zero(diff, st.n)

    def test_compat_lower_pairing_scale(self, red3):
        # iota_{sharp_i~} gamma = C(j-1, j-i)^{-1} iota_{sharp_j~} gamma
        # for gamma in S^{n+1-i} (the scale the construction forces)
        st = red3.structure
        table = canonical_extension_table(red3, style="symmetric")
        j = table.j
        i = 2
        lowered = compat_lower(table, i)
        scale = sympy.Rational(1, sympy.binomial(j - 1, j - i))
        for (theta, w_j), (_, w_i) in zip(table.entries, lowered.entries):
            for gamma in st.generators(st.n + 1 - i):
                assert contract(w_i, gamma) == scale * contract(w_j, gamma)

    @pytest.mark.parametrize("name", ["red2", "red3", "sheared", "scaled",
                                      "rank-deficient"])
    @settings(max_examples=10, deadline=None)
    @given(data=hst.data())
    def test_compatibility_follows_from_the_defining_pairing(self, name, data):
        # iota_{W ^ 1_{j-1}} alpha = iota_W alpha for every S^n generator
        # alpha and W in Lambda^{a-j} (x) V_{n+1-j}, at every valid (j, a):
        # a table entry that passes the defining pairing is compatible with
        # sharp_1~, so ``ExtensionTable.verify`` checks only the former
        st = COMPATIBILITY_STRUCTURES[name]()
        ch, n = st.chart, st.n
        for j in range(1, n + 1):
            one = identity_tensor(ch, j - 1)
            for a in range(j, ch.m + 1):
                fkeys = list(combinations(range(ch.m), a - j))
                vkeys = list(combinations(range(ch.m), n + 1 - j))
                w = MvForm.zero(ch, a - j, n + 1 - j)
                for f, v, c, s, e in data.draw(hst.lists(hst.tuples(
                        hst.sampled_from(fkeys), hst.sampled_from(vkeys),
                        hst.integers(-3, 3), hst.integers(0, ch.m - 1),
                        hst.integers(0, 2)), min_size=1, max_size=3)):
                    w = w + MvForm(ch, a - j, n + 1 - j, {(f, v): c + ch.syms[s] ** e})
                assert st.pairing(wedge(w, one), n) == st.pairing(w, n)

    @pytest.mark.parametrize("name", sorted(PAIRING_ORACLE_STRUCTURES))
    @settings(max_examples=25, deadline=None)
    @given(data=hst.data())
    def test_pairing_matches_one_contract_per_generator(self, name, data):
        # Structure.pairing of a multivector and of a multivector valued
        # form at every level p and vector degree 1..p (p < n is how
        # dynamics._solve_constant asks), against one contract per level-p
        # generator; compared as dicts, since key order is not part of the
        # result.  Vector indices are drawn mostly from those a generator
        # term holds, so that the pairing is rarely empty
        st = PAIRING_ORACLE_STRUCTURES[name]()
        ch = st.chart
        for p in range(1, st.n + 1):
            for q in range(1, p + 1):
                held = sorted({v for gen in st.generators(p) for key in gen.data
                               for v in combinations(key, q)})
                vkeys = hst.one_of(hst.sampled_from(held),
                                   hst.sampled_from(list(combinations(range(ch.m), q))))
                fdeg = data.draw(hst.integers(0, 2))
                coeffs = hst.tuples(hst.integers(-3, 3), hst.integers(0, ch.m - 1),
                                    hst.integers(0, 2))
                w, u = MvForm.zero(ch, fdeg, q), MultiVector.zero(ch, q)
                for f, v, (c, s, e) in data.draw(hst.lists(hst.tuples(
                        hst.sampled_from(list(combinations(range(ch.m), fdeg))), vkeys,
                        coeffs), min_size=1, max_size=3)):
                    w = w + MvForm(ch, fdeg, q, {(f, v): c + ch.syms[s] ** e})
                for v, (c, s, e) in data.draw(hst.lists(hst.tuples(vkeys, coeffs),
                                                        min_size=1, max_size=3)):
                    u = u + MultiVector(ch, q, {v: c + ch.syms[s] ** e})
                for obj in (w, u):
                    assert st.pairing(obj, p) == naive_pairing(st, obj, p), (p, q, obj)

    def test_serialization_roundtrip(self, red2):
        from gradira.structfile import dump_extension, parse_extension

        table = canonical_extension_table(red2, style="symmetric")
        text = dump_extension(table)
        back = parse_extension(text, red2.structure)
        assert back.j == table.j
        for (t1, v1), (t2, v2) in zip(table.entries, back.entries):
            assert t1 == t2
            assert v1 == v2


    def test_compat_lower_refuses_a_table_off_the_pairing(self, red2):
        # the lowered table is verified: an entry off the defining pairing
        # at level j is off it at every level i < j
        table = canonical_extension_table(red2, style="symmetric")
        theta, value = table.entries[0]
        table.entries[0] = TowerEntry(theta, 2 * value)
        with pytest.raises(MembershipError, match="fails the defining pairing"):
            compat_lower(table, 1)

    @pytest.mark.parametrize("style", ["symmetric", "solved"])
    @pytest.mark.parametrize("name", ["red2", "red3", "red3k2"])
    def test_compat_lower_tables_verify(self, request, name, style):
        # every level i < j of either canonical table passes the defining
        # pairing, which compat_lower checks at construction
        table = canonical_extension_table(request.getfixturevalue(name), style=style)
        for i in range(1, table.j):
            lowered = compat_lower(table, i)
            assert (lowered.j, len(lowered.entries)) == (i, len(table.entries))

    @pytest.mark.parametrize("vertical", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    def test_compat_lower_yang_mills_tables_verify(self, n, vertical):
        st = yang_mills(n, "abelian").structure
        table = build_span_tower(st, st.n + 1, st.n, vertical).table()
        for i in range(1, table.j):
            assert compat_lower(table, i).j == i


class TestOneEntryShape:
    # towers and tables hold one entry type, TowerEntry(form, value), and a
    # tower's table takes its entries as they are

    @pytest.mark.parametrize("vertical", [False, True])
    def test_tower_table_holds_the_tower_entries(self, red3k2, vertical):
        st = red3k2.structure
        level = build_span_tower(st, st.n + 1, st.n, vertical)
        table = level.table()
        assert table.entries == level.entries and table.entries is not level.entries
        assert all(type(e) is TowerEntry for e in level.entries + table.entries)

    @pytest.mark.parametrize("style", ["symmetric", "solved"])
    def test_canonical_and_loaded_tables_hold_tower_entries(self, red2, style):
        table = canonical_extension_table(red2, style=style)
        loaded = load_structure_file(dump_scenario(red2, extension=table)).extension
        assert [(render(t), render(v)) for t, v in loaded.entries] == \
            [(render(e.form), render(e.value)) for e in table.entries]
        for held in (table, loaded, compat_lower(table, 1), table.perturbed()):
            assert all(type(e) is TowerEntry for e in held.entries)

    def test_solved_style_serves_yang_mills(self, ym_abelian):
        # the solved table reads no scenario parameter: it is the table of
        # the vertical S^{n+1}[n] tower on any scenario
        st = ym_abelian.structure
        table = canonical_extension_table(ym_abelian, style="solved")
        level = build_span_tower(st, st.n + 1, st.n, vertical=True)
        assert (table.j, table.entries) == (st.n, level.entries)

    @pytest.mark.parametrize("build", [lambda: yang_mills(2, "abelian"),
                                       lambda: extended_canonical(2, 1)],
                             ids=["yang-mills", "extended-canonical"])
    def test_symmetric_style_refuses_other_scenarios(self, build):
        # the symmetric values are the reduced-canonical ones; elsewhere they
        # raised a bare KeyError (no "fields") or a MembershipError
        scn = build()
        with pytest.raises(GradiraError) as raised:
            canonical_extension_table(scn, style="symmetric")
        assert type(raised.value) is GradiraError
        assert str(raised.value) == ("the symmetric extension table serves the "
                                     f"reduced-canonical scenario, not {scn.name}")


class TestSharpLowered:
    def test_prop_31_binomial_ladder(self, red2, red3):
        # iota_{sharp_a(beta)} gamma = C(b + c - (n+1), b - a) iota_{sharp_b(beta)} gamma
        # holds exactly at the representative level, since
        # sharp_a = sharp_b ^ 1_{b-a} and iota_{1_k} scales by a binomial.
        for scn in (red2, red3):
            st = scn.structure
            n = st.n
            for b in range(1, n + 1):
                for a in range(1, b + 1):
                    for beta in st.generators(b):
                        low = sharp_lowered(st, b, a, beta)
                        for c in range(n + 1 - a, n + 1):
                            factor = sympy.binomial(b + c - (n + 1), b - a)
                            for gamma in st.generators(c):
                                lhs = contract(low, gamma)
                                rhs = factor * contract(
                                    st.derive_sharp(b, beta).rep, gamma
                                )
                                assert lhs == rhs


class TestBracketExtJ:
    def test_matches_ext1_on_top_degree(self, red2):
        st, ch = red2.structure, red2.chart
        table = canonical_extension_table(red2, style="symmetric")
        ham = red2.hamiltonian_form
        for _, alpha in red2.hamiltonian_generators:
            assert bracket_extj(alpha, ham, table) == bracket_ext1(alpha, ham, st)

    def test_zero_form_golden(self, red2):
        # {y, H}_{sharp_n~} = dH/dp^mu dx^mu - dy
        st, ch = red2.structure, red2.chart
        table = canonical_extension_table(red2, style="symmetric")
        alpha = Form.scalar_form(ch, ch.sym("y1"))
        got = bracket_extj(alpha, red2.hamiltonian_form, table)
        expected = -Form.d_coord(ch, "y1")
        for mu in (1, 2):
            expected = expected + sympy.Symbol(f"H__p{mu}_1") * Form.d_coord(
                ch, f"x{mu}"
            )
        assert got == expected

    def test_closed_theta(self, red2):
        st, ch = red2.structure, red2.chart
        table = canonical_extension_table(red2, style="symmetric")
        alpha = Form.scalar_form(ch, ch.sym("y1"))
        closed = exterior_derivative(
            random_form(rng_from_env(), ch, st.n - 1, terms=2)
        )
        value = bracket_extj(alpha, closed, table)
        assert value.is_zero()


class TestExtensionProperties:
    def test_report_passes_on_samples(self, red2):
        st, ch = red2.structure, red2.chart
        rng = rng_from_env()
        table = canonical_extension_table(red2, style="symmetric")
        ham = red2.hamiltonian_form
        alphas = [(label, f) for label, f in red2.hamiltonian_generators[:3]]
        pairs = [
            (random_hamiltonian_form(rng, red2), random_hamiltonian_form(rng, red2))
            for _ in range(3)
        ]
        x = MultiVector.coord_vector(ch, "x1")
        # an x1-independent n-form, so contraction by d/dx1 is a symmetry
        sym_theta = Form.zero(ch, 2)
        for mu in (1, 2):
            sym_theta = sym_theta - Form.scalar_form(ch, ch.sym(f"p{mu}_1")) * wedge(
                Form.d_coord(ch, "y1"), volume_contraction(ch, [mu - 1])
            )
        thetas = [ham]
        samples = {
            "pairs": pairs,
            "alphas": alphas,
            "symmetries": [(x, sym_theta)],
            "leibniz": [
                (alphas[0][1], Form.scalar_form(ch, ch.sym("y1")),
                 Form.scalar_form(ch, ch.sym("p1_1"))),
            ],
            "jacobi": [
                (pairs[0][0], pairs[0][1], ham),
                (alphas[0][1], alphas[1][1], ham),
            ],
            "thetas": thetas,
        }
        report = check_extension_properties(st, table, samples)
        assert report.passed, report.render()

    def test_basic_closed_theta_trivial(self, red2):
        st, ch = red2.structure, red2.chart
        alpha = red2.hamiltonian_generators[0][1]
        theta = volume_contraction(ch, [0])  # basic closed
        assert bracket_ext1(alpha, theta, st).is_zero()


class TestExtensionPropertiesN3:
    def test_report_passes_at_order_three(self, red3):
        st, ch = red3.structure, red3.chart
        rng = rng_from_env()
        table = canonical_extension_table(red3, style="symmetric")
        ham = red3.hamiltonian_form
        alphas = red3.hamiltonian_generators[:3]
        pairs = [
            (random_hamiltonian_form(rng, red3), random_hamiltonian_form(rng, red3))
            for _ in range(2)
        ]
        sym_theta = Form.zero(ch, 3)
        for mu in (1, 2, 3):
            sym_theta = sym_theta - Form.scalar_form(ch, ch.sym(f"p{mu}_1")) * \
                wedge(Form.d_coord(ch, "y1"), volume_contraction(ch, [mu - 1]))
        samples = {
            "pairs": pairs,
            "alphas": alphas,
            "symmetries": [(MultiVector.coord_vector(ch, "x1"), sym_theta)],
            "leibniz": [(alphas[0][1], Form.scalar_form(ch, ch.sym("y1")),
                         Form.scalar_form(ch, ch.sym("p2_1")))],
            "jacobi": [(pairs[0][0], pairs[0][1], ham)],
            "thetas": [ham],
        }
        report = check_extension_properties(st, table, samples)
        assert report.passed, report.render()
