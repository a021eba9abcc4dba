import pytest
import sympy

from gradira import (
    AffineEmbedding,
    Chart,
    Form,
    MultiVector,
    SubmersionDrop,
    check_dirac_map,
    pullback,
    pushforward,
    volume_contraction,
    wedge,
)
from gradira import scalars
from gradira.errors import ChartError, MapSpecError, UndefinedScalarError
from gradira.parser import parse_form, parse_multivector
from gradira.structure import verify_axioms


class TestPushforward:
    def test_extended_to_reduced_table(self, ext2):
        drop = SubmersionDrop(ext2.chart, ["p"])
        red = pushforward(ext2.structure, drop)
        ch = red.chart
        assert red.derive_sharp(2, volume_contraction(ch, [])).rep.is_zero()
        for mu in (1, 2):
            form = wedge(Form.d_coord(ch, "y1"), volume_contraction(ch, [mu - 1]))
            assert red.derive_sharp(2, form).rep == -MultiVector.coord_vector(
                ch, f"p{mu}_1"
            )
        dp = Form.zero(ch, 2)
        for mu in (1, 2):
            dp = dp + wedge(
                Form.d_coord(ch, f"p{mu}_1"), volume_contraction(ch, [mu - 1])
            )
        assert red.derive_sharp(2, dp).rep == MultiVector.coord_vector(ch, "y1")

    def test_identity_drop(self, red2):
        drop = SubmersionDrop(red2.chart, [])
        out = pushforward(red2.structure, drop)
        span_in = red2.structure.span(2)
        span_out = out.structure if hasattr(out, "structure") else out
        for g in span_out.generators(2):
            assert span_in.contains(
                Form(red2.chart, 2, {k: v for k, v in g.data.items()})
            )
        assert len(out.generators(2)) == len(red2.structure.generators(2))

    def test_dropping_a_field_coordinate(self, red2):
        # Dropping y1 kills the dy-family; the fiber-independence
        # conditions hold (all coefficients constant), so the quotient
        # exists, exactly as for the canonical drop of p, with the
        # momentum generator mapped to zero.
        drop = SubmersionDrop(red2.chart, ["y1"])
        out = pushforward(red2.structure, drop)
        ch = out.chart
        assert "y1" not in ch.coords
        dp = Form.zero(ch, 2)
        for mu in (1, 2):
            dp = dp + wedge(
                Form.d_coord(ch, f"p{mu}_1"), volume_contraction(ch, [mu - 1])
            )
        rep = out.derive_sharp(2, dp)
        assert rep.rep.is_zero()

    def test_base_coordinate_cannot_drop(self, red2):
        with pytest.raises(ChartError):
            SubmersionDrop(red2.chart, ["x1"])

    @pytest.mark.parametrize("kind, text, message", [
        ("vector", "y1 * @/x1 + @/p1_1", "pushed sharp value depends on dropped "
         "coordinates: {}"),
        ("form", "-dX[2] + d(y1)", "form {} has components along dropped coordinates"),
        ("form", "-y1 * dX[2]", "coefficients of {} depend on dropped coordinates"),
    ], ids=["vector-coefficient", "form-component", "form-coefficient"])
    def test_dropped_content_raises_with_its_witness(self, red2, kind, text, message):
        # the texts are canonical, so each message quotes its input
        drop = SubmersionDrop(red2.chart, ["y1"])
        if kind == "vector":
            value, push = parse_multivector(text, red2.chart), drop.push_vector
        else:
            value, push = parse_form(text, red2.chart), drop.restrict_form
        with pytest.raises(MapSpecError) as err:
            push(value)
        assert str(err.value) == message.format(text)
        assert err.value.witness is value


class TestPullback:
    def test_identity_embedding(self, red2):
        ch = red2.chart
        adapted = Chart(base=ch.base_coords, fiber=ch.fiber_coords)
        emb = AffineEmbedding(ch, adapted, {})
        out = pullback(red2.structure, emb)
        assert len(out.generators(2)) == len(red2.structure.generators(2))
        vol = volume_contraction(out.chart, [])
        assert out.derive_sharp(2, vol).rep.is_zero()

    def test_yang_mills_generator_list(self, ym_abelian):
        # S~^n on N is generated by d^n x, the antisymmetrized dA-forms and
        # the dpt-forms; the induced sharp values match the adapted tables.
        st = ym_abelian.structure
        ch = st.chart
        span = st.span(3)
        vol = volume_contraction(ch, [])
        assert span.contains(vol)
        assert st.derive_sharp(3, vol).rep.is_zero()
        for mu in range(1, 4):
            for nu in range(mu + 1, 4):
                form = wedge(
                    Form.d_coord(ch, f"A1_{mu}"), volume_contraction(ch, [nu - 1])
                ) - wedge(
                    Form.d_coord(ch, f"A1_{nu}"), volume_contraction(ch, [mu - 1])
                )
                rep = st.derive_sharp(3, form)
                assert rep.rep == -MultiVector.coord_vector(ch, f"pt{mu}{nu}_1")
        # single unsymmetrized dA ^ d^{n-1}x is NOT pulled back
        lone = wedge(Form.d_coord(ch, "A1_1"), volume_contraction(ch, [1]))
        assert not span.contains(lone)

    def test_yang_mills_momentum_values(self, ym_abelian):
        st = ym_abelian.structure
        ch = st.chart

        def pt(mu, nu):
            if mu < nu:
                return Form.d_coord(ch, f"pt{mu}{nu}_1")
            return -Form.d_coord(ch, f"pt{nu}{mu}_1")

        for mu in range(1, 4):
            form = Form.zero(ch, 3)
            for nu in range(1, 4):
                if nu == mu:
                    continue
                form = form + wedge(pt(mu, nu), volume_contraction(ch, [nu - 1]))
            assert st.derive_sharp(3, form).rep == MultiVector.coord_vector(
                ch, f"A1_{mu}"
            )

    def test_pullback_with_nonzero_k1(self):
        # S^1 = <dx1, dx2> misses dy1, so K_1 = <d/dy1> joins the tangency
        # unknowns: along y1 -> z + x1 the one generator d^2x survives with
        # sharp value 0
        from test_extensions import rank_deficient

        st = rank_deficient()
        assert [k.data for k in st.annihilator_span(1)] == [{(2,): 1}]
        adapted = Chart(base=["x1", "x2"], fiber=["z"])
        x1, z = sympy.symbols("x1 z")
        out = pullback(st, AffineEmbedding(st.chart, adapted, {"y1": z + x1}))
        assert out.generators(2) == [volume_contraction(adapted, [])]
        assert out.sharp_values(2) == [MultiVector.zero(adapted, 1)]
        assert verify_axioms(out).passed


class TestSubstitution:
    """The evaluation branch of ``scalars.substitute``, through an
    embedding of (x1; y1) into (x1; y1, y2) along y1 -> y1 + x1,
    y2 -> 2 y1 + 1, against sympy's simultaneous ``subs``."""

    @staticmethod
    def _embedding():
        ambient = Chart(base=["x1"], fiber=["y1", "y2"])
        ambient.declare_function("H", ["x1"])
        adapted = Chart(base=["x1"], fiber=["y1"])
        x1, y1 = sympy.symbols("x1 y1")
        return AffineEmbedding(ambient, adapted, {"y1": y1 + x1, "y2": 2 * y1 + 1})

    @pytest.mark.parametrize("text", [
        "(y1*y2 + x1**2)/(1 + y2**2)",
        "y2**3 - y1/(x1 + 2)",
        "1/(y1 - x1)",
        "H*y2/(1 + x1**2) + y1",
        "x1**2 + 3",
    ])
    def test_restriction_matches_sympy_subs(self, text):
        emb = self._embedding()
        x1, y1, y2 = sympy.symbols("x1 y1 y2")
        expr = sympy.sympify(text, locals={"H": sympy.Symbol("H")})
        expected = sympy.cancel(expr.subs({y1: y1 + x1, y2: 2 * y1 + 1},
                                          simultaneous=True))
        assert emb.restrict_scalar(scalars.as_scalar(expr)) == scalars.as_scalar(expected)
        # dx1 is not substituted, so the pulled 1-form is expected dx1
        form = Form(emb.target_chart, 1, {(0,): expr})
        assert emb.pull_form(form) == Form(emb.source_chart, 1, {(0,): expected})

    def test_pole_on_the_image_raises(self):
        emb = self._embedding()
        x1, y1, y2 = sympy.symbols("x1 y1 y2")
        pole = 1 / (y2 - 2 * y1 + 2 * x1 - 1)  # the denominator vanishes on the image
        with pytest.raises(UndefinedScalarError):
            emb.restrict_scalar(scalars.as_scalar(pole))
        with pytest.raises(UndefinedScalarError):
            emb.pull_form(Form(emb.target_chart, 0, {(): pole}))


class TestDiracMap:
    def _samples(self, ext2):
        ch = ext2.chart  # the reduced forms are pulled through the drop
        return None

    def test_extended_to_reduced_preserves_brackets(self, ext2, red2):
        drop = SubmersionDrop(ext2.chart, ["p"])
        target = pushforward(ext2.structure, drop)
        ch = target.chart
        alpha = Form.scalar_form(ch, ch.sym("y1")) * volume_contraction(ch, [0])
        beta = Form.zero(ch, 1)
        for mu in (1, 2):
            beta = beta + Form.scalar_form(ch, ch.sym(f"p{mu}_1")) * \
                volume_contraction(ch, [mu - 1])
        report = check_dirac_map(drop, ext2.structure, target,
                                 [(alpha, beta), (alpha, alpha)])
        assert report.passed

    def test_identity_map_trivial(self, red2):
        drop = SubmersionDrop(red2.chart, [])
        target = pushforward(red2.structure, drop)
        ch = target.chart
        alpha = Form.scalar_form(ch, ch.sym("y1")) * volume_contraction(ch, [0])
        report = check_dirac_map(drop, red2.structure, target, [(alpha, alpha)])
        assert report.passed

    def test_pullback_off_the_hamiltonian_degrees_is_reported(self, red2):
        drop = SubmersionDrop(red2.chart, [])
        target = pushforward(red2.structure, drop)
        ch = target.chart
        alpha = Form.scalar_form(ch, ch.sym("y1")) * volume_contraction(ch, [0])
        report = check_dirac_map(drop, red2.structure, target,
                                 [(volume_contraction(ch, []), alpha)])
        assert [(c.name, c.passed, c.detail) for c in report.checks] == [
            ("dirac-map pair 0", False, "pullback is not Hamiltonian")]

    def test_corrupted_target_reported(self, ext2):
        from gradira import Structure

        drop = SubmersionDrop(ext2.chart, ["p"])
        target = pushforward(ext2.structure, drop)
        ch = target.chart
        gens = target.generators(2)
        values = [-v if not v.is_zero() else v for v in target.sharp_values(2)]
        corrupted = Structure(ch, gens, values)
        alpha = Form.scalar_form(ch, ch.sym("y1")) * volume_contraction(ch, [0])
        beta = Form.zero(ch, 1)
        for mu in (1, 2):
            beta = beta + Form.scalar_form(ch, ch.sym(f"p{mu}_1")) * \
                volume_contraction(ch, [mu - 1])
        report = check_dirac_map(drop, ext2.structure, corrupted,
                                 [(alpha, beta)])
        assert not report.passed
