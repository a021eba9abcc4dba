import random

import pytest
import sympy

from gradira import dynamics, extensions, forms, structure
from gradira import (
    Form,
    Hamiltonian,
    MultiVector,
    Section,
    bracket,
    bracket_ext1,
    bracket_extj,
    build_span_tower,
    check_evolution,
    check_subalgebra_condition,
    contract,
    exterior_derivative,
    gamma_H,
    hdw_residuals,
    is_hamiltonian,
    is_special_hamiltonian,
    reduced_canonical,
    volume_contraction,
    wedge,
)
from gradira import is_hamiltonian_form
from gradira.errors import DegreeError, NotHamiltonianError
from gradira.sampling import random_hamiltonian_form
from gradira.scenarios import canonical_extension_table
from gradira.structfile import dump_scenario, load_structure_file


class TestIsHamiltonian:
    def test_canonical_hamiltonian(self, red2, red3):
        for scn in (red2, red3):
            ok, diag = is_hamiltonian(scn.hamiltonian_form, scn.structure)
            assert ok, diag

    def test_yang_mills_hamiltonian(self, ym_su2):
        ok, diag = is_hamiltonian(ym_su2.hamiltonian_form, ym_su2.structure)
        assert ok, diag

    def test_zero_is_not_hamiltonian(self, red2):
        ok, diag = is_hamiltonian(Form.zero(red2.chart, 2), red2.structure)
        assert not ok
        assert "semi-basic" in diag[0]

    def test_wrong_sign_momentum_term_fails(self, red2):
        # H d^n x + p dy ^ d^{n-1}x (plus instead of minus) is rejected
        ch = red2.chart
        bad = Form.scalar_form(ch, sympy.Symbol("H")) * volume_contraction(ch, [])
        for mu in (1, 2):
            bad = bad + Form.scalar_form(ch, ch.sym(f"p{mu}_1")) * wedge(
                Form.d_coord(ch, "y1"), volume_contraction(ch, [mu - 1])
            )
        ok, _ = is_hamiltonian(bad, red2.structure)
        assert not ok


class TestHamiltonianState:
    def test_bracket_with_matches_bracket_ext1(self, red2, red3, ym_su2):
        rng = random.Random(11)
        for scn in (red2, red3, ym_su2):
            st = scn.structure
            ham = Hamiltonian(scn.hamiltonian_form, st)
            alphas = [alpha for _, alpha in scn.hamiltonian_generators]
            if scn is not ym_su2:
                alphas += [random_hamiltonian_form(rng, scn) for _ in range(4)]
            for alpha in alphas:
                assert ham.bracket_with(alpha) == bracket_ext1(
                    alpha, scn.hamiltonian_form, st)

    def test_bracket_with_rejects_like_bracket_ext1(self, red2):
        st = red2.structure
        ham = Hamiltonian(red2.hamiltonian_form, st)
        ch = red2.chart
        bad = Form.scalar_form(ch, ch.sym("y1")) * Form.d_coord(ch, "p2_1")
        zero_form = Form.scalar_form(ch, ch.sym("y1"))
        for alpha, error in ((zero_form, DegreeError), (bad, NotHamiltonianError)):
            with pytest.raises(error) as want:
                bracket_ext1(alpha, red2.hamiltonian_form, st)
            with pytest.raises(error) as got:
                ham.bracket_with(alpha)
            assert str(got.value) == str(want.value)

    def test_each_sharp1_tilde_value_is_computed_once(self, red2, monkeypatch):
        # the engine pairs sharp_1~ with n-forms through the pairing fields
        # and builds no sharp_1~ value: not in the tower, the Hamiltonian
        # check, the brackets, hdw or table loading
        calls = []

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        for name in ("sharp1_tilde", "contract_form_slot"):
            for module in (forms, structure, extensions, dynamics):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counting(name, getattr(module, name)))
        # nor does building a Hamiltonian test K-cosets in the form slot
        monkeypatch.setattr(structure.Structure, "coset_is_zero", counting(
            "coset_is_zero", structure.Structure.coset_is_zero))
        build_span_tower(red2.structure, 3, 2, vertical=True)
        assert "sharp1_tilde" not in calls
        del calls[:]
        ham = Hamiltonian(red2.hamiltonian_form, red2.structure)
        assert calls == []
        for _, alpha in red2.hamiltonian_generators:
            ham.bracket_with(alpha)
            bracket_ext1(alpha, red2.hamiltonian_form, red2.structure)
        hdw_residuals(ham, Section(red2.chart), red2.hamiltonian_generators)
        assert calls == []
        table = canonical_extension_table(red2, style="symmetric")
        doc = dump_scenario(red2, extension=table)
        del calls[:]
        loaded = load_structure_file(doc).extension
        assert len(loaded.entries) == len(table.entries)
        assert "sharp1_tilde" not in calls

    def test_each_hamiltonian_check_takes_d_once(self, red2, monkeypatch):
        calls = []
        real = structure.exterior_derivative

        def counting(form):
            calls.append(form)
            return real(form)

        for module in (structure, extensions, dynamics):
            monkeypatch.setattr(module, "exterior_derivative", counting)
        st = red2.structure
        ham = Hamiltonian(red2.hamiltonian_form, st)
        gens = red2.hamiltonian_generators
        (_, alpha), (_, beta) = gens[0], gens[1]
        del calls[:]
        bracket(alpha, beta, st)
        assert len(calls) == 2
        del calls[:]
        hdw_residuals(ham, Section(red2.chart), gens)
        assert len(calls) == len(gens)


class TestSection:
    def test_pullback_rules(self, red2):
        psi = Section(red2.chart)
        ch = red2.chart
        base = psi.base_chart
        assert psi.pullback(Form.d_coord(ch, "x1")) == Form.d_coord(base, "x1")
        du = psi.pullback(Form.d_coord(ch, "y1"))
        assert du.data == {
            (0,): sympy.Symbol("y1__x1"),
            (1,): sympy.Symbol("y1__x2"),
        }

    def test_pullback_is_multiplicative(self, red2):
        psi = Section(red2.chart)
        ch = red2.chart
        a = Form.scalar_form(ch, ch.sym("p1_1")) * Form.d_coord(ch, "y1")
        b = Form.d_coord(ch, "x2")
        assert psi.pullback(wedge(a, b)) == wedge(psi.pullback(a), psi.pullback(b))


class TestHDW:
    def test_canonical_equations_verbatim(self, red2):
        ham = Hamiltonian(red2.hamiltonian_form, red2.structure)
        psi = Section(red2.chart)
        res = hdw_residuals(ham, psi, red2.hamiltonian_generators)
        base = psi.base_chart
        vol = volume_contraction(base, [])
        by_label = {label: (lhs, rhs) for label, _, lhs, rhs in res}
        for mu in (1, 2):
            lhs, rhs = by_label[f"y1 dX[{mu}]"]
            assert lhs == sympy.Symbol(f"y1__x{mu}") * vol
            assert rhs == sympy.Symbol(f"H__p{mu}_1") * vol
        lhs, rhs = by_label["p^mu_y1 dX[mu]"]
        assert lhs == (sympy.Symbol("p1_1__x1") + sympy.Symbol("p2_1__x2")) * vol
        assert rhs == -sympy.Symbol("H__y1") * vol
        # basic generators evolve trivially
        for mu in (1, 2):
            lhs, rhs = by_label[f"dX[{mu}]"]
            assert lhs.is_zero() and rhs.is_zero()

    def test_residuals_invariant_under_closed_basic_shift(self, red2):
        ch = red2.chart
        ham1 = Hamiltonian(red2.hamiltonian_form, red2.structure)
        shift = Form.scalar_form(ch, ch.sym("x1") ** 2) * volume_contraction(ch, [])
        ham2 = Hamiltonian(red2.hamiltonian_form + shift, red2.structure)
        psi = Section(ch)
        res1 = hdw_residuals(ham1, psi, red2.hamiltonian_generators)
        res2 = hdw_residuals(ham2, psi, red2.hamiltonian_generators)
        for (l1, r1, *_), (l2, r2, *_) in zip(res1, res2):
            assert l1 == l2 and r1 == r2

    def test_non_hamiltonian_generator_rejected(self, red2):
        ham = Hamiltonian(red2.hamiltonian_form, red2.structure)
        psi = Section(red2.chart)
        ch = red2.chart
        bad = Form.scalar_form(ch, ch.sym("y1")) * Form.d_coord(ch, "p2_1")
        with pytest.raises(NotHamiltonianError):
            hdw_residuals(ham, psi, [("bad", bad)])


class TestGamma:
    def test_symmetric_table_lift(self, red2):
        # lift of d/dx^mu has d/dy-coefficient dH/dp^mu and the symmetric
        # -1/n dH/dy on the momentum trace
        table = canonical_extension_table(red2, style="symmetric")
        ham = Hamiltonian(red2.hamiltonian_form, red2.structure)
        h = gamma_H(ham, table)
        for mu in (1, 2):
            assert h.gammas["y1"][mu] == sympy.Symbol(f"H__p{mu}_1")
            row = h.gammas[f"p{mu}_1"]
            assert row.get(mu) == -sympy.Rational(1, 2) * sympy.Symbol("H__y1")
            assert set(row) == {mu}

    def test_lift_pairs_with_horizontal_differentials(self, red2):
        # iota_{lift(mu)} h^*(dx^i) = dx^i(lift(mu)) for every coordinate:
        # delta on the base, Gamma^u_mu on the fiber
        ch = red2.chart
        table = canonical_extension_table(red2, style="symmetric")
        h = gamma_H(Hamiltonian(red2.hamiltonian_form, red2.structure), table)
        for mu in range(1, ch.n + 1):
            lift = h.lift(mu)
            assert any(i >= ch.n for (i,) in lift.data)
            for name in ch.coords:
                dxi = Form.d_coord(ch, name)
                assert contract(lift, h.pullback(dxi)) == contract(lift, dxi)

    @pytest.mark.parametrize("n, k", [(2, 1), (2, 2)])
    def test_symmetric_table_with_custom_momentum_names(self, n, k):
        # the table reads the momenta off the chart's fiber order, so any
        # momentum naming gives a table that verifies and an evolution
        # identity that holds
        scn = reduced_canonical(n, k, momentum_name=lambda u, mu: f"q{mu}_{u[1:]}")
        ch = scn.chart
        table = canonical_extension_table(scn, style="symmetric")
        table.verify()
        ham = Hamiltonian(scn.hamiltonian_form, scn.structure)
        h = gamma_H(ham, table)
        for mu in range(1, n + 1):
            assert h.gammas["y1"][mu] == sympy.Symbol(f"H__q{mu}_1")
        forms = [("y1", Form.scalar_form(ch, ch.sym("y1")))] + scn.hamiltonian_generators
        report = check_evolution(ham, table, h, forms)
        assert report.passed, report.render()

    def test_fiber_independent_hamiltonian_gives_flat_momentum_lift(self):
        red2 = reduced_canonical(2, 1)  # its own: G is declared on its chart
        ch = red2.chart
        ch.declare_function("G", ["x1", "x2", "p1_1", "p2_1"])
        g = Form.scalar_form(ch, sympy.Symbol("G")) * volume_contraction(ch, [])
        for mu in (1, 2):
            g = g - Form.scalar_form(ch, ch.sym(f"p{mu}_1")) * wedge(
                Form.d_coord(ch, "y1"), volume_contraction(ch, [mu - 1])
            )
        table = canonical_extension_table(red2, style="symmetric")
        ham = Hamiltonian(g, red2.structure)
        h = gamma_H(ham, table)
        for mu in (1, 2):
            assert not h.gammas[f"p{mu}_1"]
            assert h.gammas["y1"][mu] == sympy.Symbol(f"G__p{mu}_1")

    def test_abelian_yang_mills_flow(self, ym_abelian):
        # with f = 0 the A-lift reproduces the abelian flow A_mu,nu-part:
        # h^*(dA^i_mu) = -pt_{mu nu} dx^nu (flat all-plus metric)
        from gradira.extensions import build_span_tower

        st = ym_abelian.structure
        ch = st.chart
        table = build_span_tower(st, 4, 3, vertical=True).table()
        ham = Hamiltonian(ym_abelian.hamiltonian_form, st)
        h = gamma_H(ham, table)

        def pt(mu, nu):
            if mu == nu:
                return sympy.Integer(0)
            if mu < nu:
                return ch.sym(f"pt{mu}{nu}_1")
            return -ch.sym(f"pt{nu}{mu}_1")

        # the field equation pins the antisymmetric part of the lift:
        # Gamma^{A_mu}_nu - Gamma^{A_nu}_mu = -pt_{mu nu}
        for mu in (1, 2, 3):
            for nu in (1, 2, 3):
                lhs = h.gammas[f"A1_{mu}"].get(nu, sympy.Integer(0)) - \
                    h.gammas[f"A1_{nu}"].get(mu, sympy.Integer(0))
                assert sympy.cancel(lhs + pt(mu, nu)) == 0


class TestEvolution:
    def test_evolution_identity(self, red2, red3):
        for scn in (red2, red3):
            ch = scn.chart
            table = canonical_extension_table(scn, style="symmetric")
            ham = Hamiltonian(scn.hamiltonian_form, scn.structure)
            h = gamma_H(ham, table)
            forms = [("y1", Form.scalar_form(ch, ch.sym("y1")))]
            forms += scn.hamiltonian_generators
            report = check_evolution(ham, table, h, forms)
            assert report.passed, report.render()

    def test_solved_table_also_works(self, red2):
        table = canonical_extension_table(red2, style="solved")
        ham = Hamiltonian(red2.hamiltonian_form, red2.structure)
        h = gamma_H(ham, table)
        report = check_evolution(ham, table, h, red2.hamiltonian_generators)
        assert report.passed


class TestSpecialForms:
    def test_all_top_hamiltonian_forms_are_special(self, red2):
        for _, alpha in red2.hamiltonian_generators:
            assert is_special_hamiltonian(alpha, red2.structure)

    def test_field_zero_forms_special_momentum_not(self, red2, red3):
        for scn in (red2, red3):
            ch = scn.chart
            assert is_special_hamiltonian(
                Form.scalar_form(ch, ch.sym("y1")), scn.structure
            )
            assert not is_special_hamiltonian(
                Form.scalar_form(ch, ch.sym("p1_1")), scn.structure
            )

    def test_mid_degree_families_n3(self, red3):
        ch = red3.structure.chart
        # y d^1x_{mu nu} is special; p^mu d^1x_{mu nu} is not
        good = Form.scalar_form(ch, ch.sym("y1")) * volume_contraction(ch, [0, 1])
        assert is_special_hamiltonian(good, red3.structure)
        # a momentum-bearing Hamiltonian 1-form (a contraction of the
        # trace generator) whose wedges leave the trace pattern
        from gradira import contract

        bad = Form.zero(ch, 1)
        for mu in (1, 2, 3):
            bad = bad + Form.scalar_form(ch, ch.sym(f"p{mu}_1")) * contract(
                MultiVector.coord_vector(ch, "x3"), volume_contraction(ch, [mu - 1])
            )
        assert is_hamiltonian_form(bad, red3.structure)
        assert not is_special_hamiltonian(bad, red3.structure)

    def test_ym_families(self, ym_su2):
        ch = ym_su2.chart
        st = ym_su2.structure
        # A-antisymmetrized forms are special; pt-bearing 1-forms of the
        # trace shape are special; a lone low-degree pt form is Hamiltonian
        # but not special
        alpha = Form.scalar_form(ch, ch.sym("A1_1")) * volume_contraction(ch, [1]) \
            - Form.scalar_form(ch, ch.sym("A1_2")) * volume_contraction(ch, [0])
        assert is_special_hamiltonian(alpha, st)

        def pt(mu, nu, i):
            if mu == nu:
                return sympy.Integer(0)
            if mu < nu:
                return ch.sym(f"pt{mu}{nu}_{i}")
            return -ch.sym(f"pt{nu}{mu}_{i}")

        beta = Form.zero(ch, 1)
        for mu in (1, 2, 3):
            for nu in (1, 2, 3):
                if mu != nu:
                    beta = beta + pt(mu, nu, 1) * volume_contraction(
                        ch, [mu - 1, nu - 1]
                    )
        assert is_special_hamiltonian(beta, st)
        # degree n-1 forms are all special; a lone low-degree pt-bearing
        # candidate is Hamiltonian but not special
        lone = Form.scalar_form(ch, ch.sym("pt12_1")) * volume_contraction(
            ch, [0, 2]
        )
        assert is_hamiltonian_form(lone, st)
        assert not is_special_hamiltonian(lone, st)


class TestSubalgebra:
    def test_canonical_field_form_n2(self, red2):
        # alpha = y (0-form): U = 1/(n+1-a) sum_j (-1)^{j-1} d/dp^{mu_j} ^ d/dx^{...}
        ch, st = red2.chart, red2.structure
        alpha = Form.scalar_form(ch, ch.sym("y1"))
        u = sympy.Rational(1, 2) * (
            wedge(MultiVector.coord_vector(ch, "p1_1"),
                  MultiVector.coord_vector(ch, "x2"))
            - wedge(MultiVector.coord_vector(ch, "p2_1"),
                    MultiVector.coord_vector(ch, "x1"))
        )
        report = check_subalgebra_condition(alpha, u, st)
        assert report.passed, report.render()

    def test_canonical_field_form_n3(self, red3):
        # n odd flips the overall sign of the classical multivector (the
        # sharp_1 table carries (-1)^n); the normalization 1/(n+1-a) and
        # the epsilon-compatibility are what the condition tests.
        ch, st = red3.chart, red3.structure
        alpha = Form.scalar_form(ch, ch.sym("y1"))
        u = MultiVector.zero(ch, 3)
        mus = [1, 2, 3]
        for j, mu in enumerate(mus):
            rest = [m for m in mus if m != mu]
            term = wedge(
                MultiVector.coord_vector(ch, f"p{mu}_1"),
                wedge(MultiVector.coord_vector(ch, f"x{rest[0]}"),
                      MultiVector.coord_vector(ch, f"x{rest[1]}")),
            )
            u = u + (sympy.Rational(1, 3) * ((-1) ** j)) * term
        sign = -1  # (-1)^n for n = 3
        report = check_subalgebra_condition(alpha, sign * u, st)
        assert report.passed, report.render()

    def test_top_degree_vacuous(self, red2):
        ch, st = red2.chart, red2.structure
        alpha = Form.scalar_form(ch, ch.sym("y1")) * volume_contraction(ch, [0])
        u = st.derive_sharp(2, exterior_derivative(alpha)).rep
        report = check_subalgebra_condition(alpha, u, st)
        assert report.passed

    def test_ym_momentum_form(self, ym_su2):
        ch, st = ym_su2.chart, ym_su2.structure

        def pt(mu, nu, i):
            if mu == nu:
                return sympy.Integer(0)
            if mu < nu:
                return ch.sym(f"pt{mu}{nu}_{i}")
            return -ch.sym(f"pt{nu}{mu}_{i}")

        beta = Form.zero(ch, 1)
        for mu in (1, 2, 3):
            for nu in (1, 2, 3):
                if mu != nu:
                    beta = beta + pt(mu, nu, 1) * volume_contraction(
                        ch, [mu - 1, nu - 1]
                    )
        u = MultiVector.zero(ch, 2)
        for alpha_ in (1, 2, 3):
            u = u + wedge(
                MultiVector.coord_vector(ch, f"A1_{alpha_}"),
                MultiVector.coord_vector(ch, f"x{alpha_}"),
            )
        report = check_subalgebra_condition(beta, u, st)
        assert report.passed, report.render()


class TestExtensionIndependence:
    def test_special_bracket_is_table_independent(self, red2):
        # for special alpha the evolution bracket agrees
        # across admissible vertical tables
        st, ch = red2.structure, red2.chart
        t1 = canonical_extension_table(red2, style="symmetric")
        t2 = canonical_extension_table(red2, style="solved")
        t3 = t1.perturbed()
        ham = red2.hamiltonian_form
        alpha = Form.scalar_form(ch, ch.sym("y1"))
        values = {bracket_extj(alpha, ham, t) for t in (t1, t2, t3)}
        assert len(values) == 1

    def test_non_special_bracket_depends_on_table(self, red2):
        st, ch = red2.structure, red2.chart
        t1 = canonical_extension_table(red2, style="symmetric")
        t2 = canonical_extension_table(red2, style="solved")
        ham = red2.hamiltonian_form
        alpha = Form.scalar_form(ch, ch.sym("p1_1"))
        assert bracket_extj(alpha, ham, t1) != bracket_extj(alpha, ham, t2)


class TestSpecialClosure:
    def test_pairwise_brackets_stay_special_wedge_compatible(self, red2):
        # {special, special} keeps the special wedge property on the
        # generator families (instance-wise subalgebra conclusion)
        ch, st = red2.chart, red2.structure
        specials = [
            Form.scalar_form(ch, ch.sym("y1")),
            Form.scalar_form(ch, ch.sym("y1")) * volume_contraction(ch, [0]),
            Form.scalar_form(ch, ch.sym("y1")) * volume_contraction(ch, [1]),
        ]
        specials.append(
            Form.scalar_form(ch, ch.sym("p1_1")) * volume_contraction(ch, [0])
            + Form.scalar_form(ch, ch.sym("p2_1")) * volume_contraction(ch, [1])
        )
        for a in specials:
            assert is_special_hamiltonian(a, st)
        for a in specials:
            for b in specials:
                if a.degree + b.degree < st.n - 1:
                    continue
                value = bracket(a, b, st)
                if value.is_zero() or value.degree > st.n - 1:
                    continue
                assert is_special_hamiltonian(value, st)


class TestGeneratedByHamiltonianDifferentials:
    def test_sn_is_generated_by_exact_hamiltonian_forms(self, red2, ym_abelian):
        # precondition for classifying vertical extensions, per scenario
        from gradira.spans import Span

        for scn in (red2, ym_abelian):
            st = scn.structure
            ch = st.chart
            exacts = [exterior_derivative(f) for _, f in scn.hamiltonian_generators]
            base = Form.zero(ch, st.n - 1)
            for mu in range(1, st.n + 1):
                exacts.append(
                    exterior_derivative(
                        Form.scalar_form(ch, ch.sym(f"x{mu}"))
                        * volume_contraction(ch, [mu - 1])
                    )
                )
            span = Span(ch, st.n, [e for e in exacts if not e.is_zero()])
            for g in st.generators(st.n):
                assert span.contains(g)
