import re
import sys

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gradira import Chart, Form, MultiVector, MvForm, parse_expression, parse_form, wedge
from gradira import parser
from gradira.errors import ParseError, UndefinedScalarError
from gradira.parser import MAX_DEPTH, MAX_DIGITS, MAX_EXPONENT, _tokenize, parse_multivector
from gradira.render import render, render_form
from gradira.structfile import dump_scenario, load_structure_file

from naive import naive_parse_expression


@pytest.fixture
def chart():
    ch = Chart(base=["x1", "x2"], fiber=["y1", "p1_1", "p2_1"])
    ch.declare_function("H", ["x1", "y1", "p1_1"])
    return ch


class TestGrammar:
    def test_dy_wedge_volume_contraction(self, chart):
        # d(y1) ^ dX[1] is dy ^ iota_{d/dx1} d^2x = dy ^ dx^2
        value = parse_expression("d(y1) ^ dX[1]", chart)
        assert value == wedge(Form.d_coord(chart, "y1"), Form.d_coord(chart, "x2"))

    def test_function_application_times_volume(self, chart):
        value = parse_expression("H(x1,y1,p1_1) * dX[]", chart)
        assert isinstance(value, Form)
        assert value.degree == 2
        assert value.data[(0, 1)] == sympy.Symbol("H")

    def test_wedge_square_accepted_and_zero(self, chart):
        value = parse_expression("d(y1) ^ d(y1)", chart)
        assert value.is_zero()

    def test_precedence_star_tighter_than_wedge(self, chart):
        value = parse_expression("p1_1 * d(y1) ^ dX[2]", chart)
        expected = wedge(
            chart.sym("p1_1") * Form.d_coord(chart, "y1"),
            -Form.d_coord(chart, "x1"),
        )
        assert value == expected

    def test_sum_and_minus(self, chart):
        value = parse_expression("d(y1) ^ dX[1] - 2 * d(p1_1) ^ dX[2]", chart)
        assert value.degree == 2
        assert len(value.data) == 2

    def test_multivector_atoms(self, chart):
        value = parse_expression("@/x1 ^ @/p1_1", chart)
        assert value == wedge(
            MultiVector.coord_vector(chart, "x1"),
            MultiVector.coord_vector(chart, "p1_1"),
        )

    def test_tensor_operator(self, chart):
        value = parse_expression("d(x1) @ @/y1", chart)
        assert isinstance(value, MvForm)
        assert value.form_degree == 1 and value.vec_degree == 1

    def test_partial_symbols(self, chart):
        value = parse_expression("D(H,y1)", chart)
        assert value == sympy.Symbol("H__y1")
        value = parse_expression("D(H,y1,x1)", chart)
        assert value == sympy.Symbol("H__x1__y1")

    def test_scalar_arithmetic(self, chart):
        value = parse_expression("3/2 * x1**2 - 1/2", chart)
        assert value == sympy.Rational(3, 2) * chart.sym("x1") ** 2 - sympy.Rational(1, 2)


class TestErrors:
    def test_unknown_coordinate(self, chart):
        with pytest.raises(ParseError) as err:
            parse_expression("d(z9)", chart)
        assert "z9" in str(err.value)

    def test_location_reported(self, chart):
        with pytest.raises(ParseError) as err:
            parse_expression("d(y1) ^\n  d(??)", chart)
        assert err.value.line == 2

    def test_degree_mismatch_in_wedge(self, chart):
        with pytest.raises(ParseError):
            parse_expression("dX[] ^ d(y1) ^ d(p1_1) ^ d(p2_1) ^ d(x1)", chart)

    def test_product_of_forms_rejected(self, chart):
        with pytest.raises(ParseError):
            parse_expression("d(y1) * d(x1)", chart)

    def test_out_of_range_volume_index(self, chart):
        with pytest.raises(ParseError):
            parse_expression("dX[3]", chart)

    def test_function_argument_mismatch(self, chart):
        with pytest.raises(ParseError):
            parse_expression("H(x1,x2,y1)", chart)

    def test_trailing_input(self, chart):
        with pytest.raises(ParseError):
            parse_expression("d(y1) d(x1)", chart)

    @pytest.mark.parametrize("text", ["1/0", "0/0"])
    def test_division_by_zero_rejected(self, chart, text):
        # zoo and nan are not elements of the exact scalar field
        with pytest.raises(UndefinedScalarError):
            parse_form(text, chart)

    @pytest.mark.parametrize("text, column", [
        ("1/0", 2), ("x1/(x1 - x1)", 3), ("d(x1) / (y1 - y1)", 7)])
    def test_division_by_zero_is_located(self, chart, text, column):
        with pytest.raises(UndefinedScalarError) as err:
            parse_form(text, chart)
        assert str(err.value) == f"1:{column}: division by zero"


class TestScalarProducts:
    def test_scalar_wedge_is_the_field_product(self, chart):
        wedged = parse_expression("(x1+1) ^ (x1-1)", chart)
        assert wedged == parse_expression("(x1+1) * (x1-1)", chart)
        assert render(wedged) == "x1**2 - 1"
        x = chart.sym("x1")
        assert wedge(x + 1, x - 1) == x**2 - 1


    @pytest.mark.parametrize("name", ["E", "I", "N", "S", "pi"])
    def test_function_named_like_a_sympy_constant(self, name):
        ch = Chart(base=["x1", "x2"], fiber=["y1"])
        ch.declare_function(name, ["x1", "y1"])
        value = parse_expression(f"{name} * x1 + D({name},y1)", ch)
        assert render(value) == f"{name}*x1 + D({name},y1)"
        assert parse_expression(render(value), ch) == value


class TestRoundTrip:
    CORPUS = [
        "d(y1) ^ dX[1]",
        "3/2 * d(y1) ^ dX[2]",
        "H * dX[] - p1_1 * d(y1) ^ dX[1] - p2_1 * d(y1) ^ dX[2]",
        "D(H,p1_1) * dX[] - d(y1) ^ dX[1]",
        "@/x1 ^ @/p2_1 - 2 * @/y1 ^ @/p1_1",
        "d(p1_1) ^ d(y1) ^ dX[1]",
        "(x1 + y1**2) * d(p2_1)",
        "dX[2]",
        "d(x1) @ @/y1 + dX[1] @ @/p1_1",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_render_fixed_point(self, chart, text):
        value = parse_expression(text, chart)
        canonical = render(value)
        again = parse_expression(canonical, chart)
        assert again == value
        assert render(again) == canonical

    def test_zero_renders_and_parses(self, chart):
        z = parse_form("0", chart, degree=2)
        assert z.is_zero()
        assert render_form(z) == "0"


FUZZ_CHART = Chart(base=["x1", "x2"], fiber=["y1", "p1_1", "p2_1"])
FUZZ_CHART.declare_function("H", ["x1", "y1", "p1_1"])
# operators, brackets, the atom heads, small ints, every coordinate, the
# declared function and an unknown name
FUZZ_TOKENS = ["+", "-", "*", "/", "^", "@", "**", "(", ")", "[", "]", ",",
               "d", "dX", "D", "@/", "0", "1", "2", "3",
               "x1", "x2", "y1", "p1_1", "p2_1", "H", "z9"]
tokens = st.sampled_from(FUZZ_TOKENS)
# a token may run into the next one ("d" "x1" is the name dx1, "*" "*" is "**")
token_strings = st.lists(st.tuples(tokens, st.sampled_from(["", " "])), max_size=12).map(
    lambda pairs: "".join(tok + sep for tok, sep in pairs))


@st.composite
def corpus_edits(draw):
    """A corpus text with one token inserted, deleted or replaced."""
    words = [tok.text for tok in _tokenize(draw(st.sampled_from(TestRoundTrip.CORPUS)))][:-1]
    k = draw(st.integers(0, len(words) - 1))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    if edit == "insert":
        words.insert(k, draw(tokens))
    elif edit == "delete":
        del words[k]
    else:
        words[k] = draw(tokens)
    return " ".join(words)


def outcome(parse, text):
    """(type, value) of a parse, or (type, text) of the exception it raised."""
    try:
        value = parse(text, FUZZ_CHART)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


class TestAgainstTheNaiveParser:
    """The parser against the oracle ``naive_parse_expression``: equal
    values of one type, or the same exception type and text, so every
    error keeps its message, line and column.  An input that ever fails
    joins HAND_PICKED, mostly malformed atoms."""

    HAND_PICKED = [
        "D()", "D(H)", "D(H x1)", "D(H,)", "D(H,,x1)", "D(,x1)", "D(x1,y1)", "D(3,x1)",
        "D(H,z9)", "D(H,x2)", "D(H,y1,x2)", "D(H,y1", "D", "D H",
        "dX[1,]", "dX[,1]", "dX[1 2]", "dX[0]", "dX[3]", "dX[1,1]", "dX[x1]", "dX[",
        "dX", "dX[]]", "H()", "H(x1,y1)", "H(x1,y1,p1_1", "H(x1 y1 p1_1)",
        "H(x1,y1,)", "H(,)", "H(1)", "H(z9)", "H", "d()", "d(1)", "d(z9)", "d(x1",
        "d(x1,y1)", "d", "@/", "@/1", "@/z9", "@/(x1)", "H__y1", "z9", "x1 ** x1",
        "1/0", "-(d(x1))", "- - x1", "x1 - - d(x1)", "1 / @/x1", "d(x1) ** 2",
        "dX[] ^ d(y1) ^ d(p1_1) ^ d(p2_1) ^ d(x1)", "d(x1) + @/x1", "x1 + @/x1",
        "@/x1 @ d(x1)", "2 @ 3", "(x1 + 1) / (x1 - 1) * d(y1)", "d(x1) / 2",
    ]

    @pytest.mark.parametrize("text", HAND_PICKED)
    def test_hand_picked(self, text):
        assert outcome(parse_expression, text) == outcome(naive_parse_expression, text)

    @settings(max_examples=400, deadline=2000)
    @given(token_strings)
    def test_token_strings(self, text):
        assert outcome(parse_expression, text) == outcome(naive_parse_expression, text)

    @settings(max_examples=300, deadline=2000)
    @given(corpus_edits())
    def test_corpus_edits(self, text):
        assert outcome(parse_expression, text) == outcome(naive_parse_expression, text)


class TestTypedHelpers:
    def test_parse_form_degree_check(self, chart):
        with pytest.raises(ParseError):
            parse_form("d(y1)", chart, degree=2)

    def test_parse_multivector(self, chart):
        v = parse_multivector("@/y1", chart)
        assert v == MultiVector.coord_vector(chart, "y1")
        with pytest.raises(ParseError):
            parse_multivector("d(y1)", chart)

    def test_parse_multivector_reads_a_scalar_as_a_0_vector(self, chart):
        u = MultiVector(chart, 0, {(): chart.sym("x1") + 1})
        assert parse_multivector(render(u), chart, degree=0) == u
        assert parse_multivector("0", chart, degree=0) == MultiVector.zero(chart, 0)
        with pytest.raises(ParseError, match="expected a multivector, got Scalar"):
            parse_multivector("x1 + 1", chart)

    def test_parse_multivector_checks_the_degree(self, chart):
        bivector = parse_multivector("@/x1 ^ @/y1", chart)
        assert bivector.degree == 2
        assert parse_multivector("@/x1 ^ @/y1", chart, degree=2) == bivector
        with pytest.raises(ParseError) as err:
            parse_multivector("@/x1 ^ @/y1", chart, degree=1)
        assert str(err.value) == "1:1: expected a degree 1 multivector, got 2"
        with pytest.raises(ParseError, match="expected a degree 0 multivector, got 1"):
            parse_multivector("@/y1", chart, degree=0)
        # unchanged: a scalar at degree 0, 0 at any degree, a non-multivector
        assert parse_multivector("x1", chart, degree=0).degree == 0
        for degree in (0, 1, 3):
            assert parse_multivector("0", chart, degree=degree) == \
                MultiVector.zero(chart, degree)
        with pytest.raises(ParseError, match="expected a multivector, got Form"):
            parse_multivector("d(y1)", chart, degree=1)


class TestInputCaps:
    def test_long_literal_is_located(self, chart):
        text = "d(y1) + " + "1" * (MAX_DIGITS + 1) + " * d(x1)"
        with pytest.raises(ParseError) as err:
            parse_expression(text, chart)
        assert (err.value.line, err.value.column) == (1, 9)
        assert "digits" in str(err.value)

    @pytest.mark.parametrize("text, column, reason", [
        ("2**100000000 * d(x1)", 4, "exponent 100000000 exceeds"),
        ("x1**1001", 5, "exponent 1001 exceeds"),
        ("((x1 + 1)**2)**1000", 16, "degree 2000"),
        ("(x1 + y1 + 1)**44", 16, "1035 terms"),
        ("(2**1000)**1000", 12, "1001000-bit"),
    ], ids=["exponent", "degree", "nested-degree", "terms", "nested-bits"])
    def test_costly_power_is_located(self, chart, text, column, reason):
        with pytest.raises(ParseError) as err:
            parse_expression(text, chart)
        assert (err.value.line, err.value.column) == (1, column)
        assert reason in str(err.value)

    @pytest.mark.parametrize("text, column, reason", [
        ("x1**1000 * x1**1000", 10, "'*' result too large: degree 2000"),
        ("(10**90)**10 * (10**90)**10", 14, "5980-bit"),
        ("(x1 + y1 + 1)**20 * (x1 + y1 + p1_1)**20", 19, "53361 terms"),
        ("x1**600 / (1/x1**600)", 9, "'/' result too large: degree 1200"),
        ("x1**600 - 1/y1**600", 9, "'-' result too large: degree 1200"),
        ("(x1 + y1)**500 * d(x1) + (x1 - y1)**500 / y1 * d(x1)", 24,
         "'+' result too large: degree 501, 1002 terms"),
        ("(x1 + 1)**600 * d(x1) ^ (y1 + 1)**600 * d(y1)", 23,
         "'^' result too large: degree 1200"),
        ("x1**600 * d(x1) @ y1**600 * @/y1", 17, "'@' result too large: degree 1200"),
    ], ids=["degree", "bits", "terms", "divide", "minus", "plus", "wedge", "tensor"])
    def test_costly_operator_is_located(self, chart, text, column, reason):
        with pytest.raises(ParseError) as err:
            parse_expression(text, chart)
        assert (err.value.line, err.value.column) == (1, column)
        assert reason in str(err.value)

    def test_operators_at_the_cap_are_accepted_and_parse_back(self, chart):
        x = chart.sym("x1")
        for text in ("x1**500 * x1**500", "x1**1000 - x1**1000 + 2",
                     "(10**90)**10 * 10**2 * d(y1) ^ dX[1]"):
            value = parse_expression(text, chart)
            assert parse_expression(render(value), chart) == value
        assert parse_expression("x1**500 * x1**500", chart) == x**MAX_EXPONENT

    def test_powers_at_the_cap_are_accepted(self, chart):
        x = chart.sym("x1")
        assert parse_expression(f"x1**{MAX_EXPONENT}", chart) == x**MAX_EXPONENT
        assert parse_expression("2**1000", chart) == sympy.Integer(2)**1000

    @pytest.mark.parametrize("text", [
        "(" * 150 + "y1" + ")" * 150 + " * dX[1]",
        "-" * 20000 + "x1",
        "-(" * 100 + "x1" + ")" * 100,
    ], ids=["parentheses", "minus-signs", "both"])
    def test_deep_nesting_is_located(self, chart, text):
        # the first parenthesis or minus sign past the cap, not a RecursionError
        with pytest.raises(ParseError) as err:
            parse_expression(text, chart)
        assert (err.value.line, err.value.column) == (1, MAX_DEPTH + 1)
        assert str(err.value) == f"1:{MAX_DEPTH + 1}: nesting deeper than {MAX_DEPTH} levels"

    def test_nesting_at_the_cap_is_accepted(self, chart):
        x = chart.sym("x1")
        deep = "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH
        assert parse_expression(deep, chart) == x
        assert parse_expression("-" * MAX_DEPTH + "x1", chart) == (-1) ** MAX_DEPTH * x
        # closed groups do not add up
        assert parse_expression(" + ".join([deep] * 3), chart) == 3 * x

    def test_the_cap_is_well_inside_the_recursion_limit(self, chart):
        # parentheses cost the most frames per level; a parse at the cap
        # still succeeds with a third of the recursion limit already used
        deep = "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH

        def nested(frames):
            return nested(frames - 1) if frames else parse_expression(deep, chart)

        assert nested(sys.getrecursionlimit() // 3) == chart.sym("x1")

    def test_suite_inputs_stay_well_under_the_depth_cap(self, monkeypatch, chart, red2, red3,
                                                        ext2, ym_su2):
        monkeypatch.setattr(parser, "MAX_DEPTH", MAX_DEPTH // 10)
        for text in TestRoundTrip.CORPUS:
            parse_expression(text, chart)
        for scn in (red2, red3, ext2, ym_su2):
            load_structure_file(dump_scenario(scn))

    def test_suite_inputs_stay_under_the_cap(self, red2, red3, ext2, ym_su2):
        texts = list(TestRoundTrip.CORPUS)
        for scn in (red2, red3, ext2, ym_su2):
            doc = dump_scenario(scn)
            texts += doc["sn"] + doc["sharp_n"] + [doc.get("hamiltonian", "")]
            texts += [form for _, form in doc.get("generators", [])]
            load_structure_file(doc)
        digits = max(len(m) for t in texts for m in re.findall(r"\d+", t))
        powers = [int(m) for t in texts for m in re.findall(r"\*\*\s*(\d+)", t)]
        assert digits <= MAX_DIGITS
        assert max(powers, default=0) <= MAX_EXPONENT
