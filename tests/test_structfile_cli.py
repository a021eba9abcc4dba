import contextlib
import errno
import io
import json
import os
import resource
import subprocess
import sys

import pytest

from gradira.cli import main
from gradira.errors import ParseError
from gradira.extensions import build_span_tower
from gradira.forms import identity_tensor, wedge
from gradira.render import render_mvform
from gradira.scenarios import canonical_extension_table
from gradira.structfile import (dump_extension, dump_scenario, load_structure_file,
                                parse_extension)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _forbid_builds(monkeypatch):
    """Make any tower or scenario build in the CLI fail the test."""
    from gradira import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("the CLI built a tower or scenario")

    monkeypatch.setattr(cli, "build_span_tower", forbidden)
    monkeypatch.setattr(cli, "make_scenario", forbidden)


class TestStructureFile:
    def test_scenario_roundtrip(self, red2, tmp_path):
        doc = dump_scenario(red2)
        sf = load_structure_file(doc)
        assert sf.structure.n == 2
        assert sf.hamiltonian is not None
        # the reloaded structure reproduces the sharp table
        from gradira import Form, MultiVector, volume_contraction, wedge

        ch = sf.chart
        vol = volume_contraction(ch, [])
        assert sf.structure.derive_sharp(2, vol).rep.is_zero()
        got = sf.structure.derive_sharp(
            2, wedge(Form.d_coord(ch, "y1"), volume_contraction(ch, [0]))
        )
        assert got.rep == -MultiVector.coord_vector(ch, "p1_1")

    def test_extension_block_roundtrip(self, red2, tmp_path):
        from gradira.scenarios import canonical_extension_table

        table = canonical_extension_table(red2, style="symmetric")
        doc = dump_scenario(red2, extension=table)
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(doc))
        sf = load_structure_file(str(path))
        assert sf.extension is not None
        assert sf.extension.j == 2

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("# only a comment", 1),
        ("extend d(y1) ^ dX[] => x1", 1),
        ("# a form is not a table value\nextend d(y1) ^ dX[] => d(x1)", 2),
    ], ids=["empty", "comment-only", "scalar-value", "form-value"])
    def test_malformed_extension_block_is_parse_error(self, red2, text, line):
        with pytest.raises(ParseError) as exc:
            parse_extension(text, red2.structure)
        assert exc.value.line == line

    # every (a, j, vertical) key whose tower table has a zero value (a <= n + 1)
    @pytest.mark.parametrize("scenario, a, j", [
        ("red2", 1, 1), ("red2", 2, 1), ("red2", 2, 2),
        ("red3k2", 1, 1), ("red3k2", 2, 1), ("red3k2", 2, 2),
        ("red3k2", 3, 1), ("red3k2", 3, 2), ("red3k2", 3, 3)])
    @pytest.mark.parametrize("vertical", [False, True])
    def test_zero_extension_values_round_trip(self, request, scenario, a, j, vertical):
        # a zero value is written as 0, which carries no grading; the
        # reader takes the table's level from its other values
        scn = request.getfixturevalue(scenario)
        table = build_span_tower(scn.structure, a, j, vertical=vertical).table()
        assert any(value.is_zero() for _, value in table.entries)
        for back in (parse_extension(dump_extension(table), scn.structure),
                     load_structure_file(dump_scenario(scn, extension=table)).extension):
            assert (back.j, back.entries) == (table.j, table.entries)

    def test_all_zero_extension_values_leave_the_level_undetermined(self, red2):
        undetermined = "every extension value is 0, so the level j of the table is undetermined"
        with pytest.raises(ParseError) as exc:
            parse_extension("# level?\nextend dX[1] => 0\nextend dX[2] => 0", red2.structure)
        assert str(exc.value) == f"2:16: {undetermined}"
        doc = {**dump_scenario(red2), "extension": [["dX[1]", "0"], ["dX[2]", "0"]]}
        with pytest.raises(ParseError) as exc:
            load_structure_file(doc)
        assert str(exc.value) == f"1:1: {undetermined}"

    def test_extension_entry_error_located_at_block_line(self, red2):
        with pytest.raises(ParseError) as exc:
            parse_extension("\n\nextend d(y1) ^ dx1 ^ dx2 => d(x1)", red2.structure)
        assert (exc.value.line, exc.value.column) == (3, 16)

    def test_extension_entry_error_located_at_entry_number(self, red2):
        table = canonical_extension_table(red2, style="symmetric")
        doc = dump_scenario(red2, extension=table)
        doc["extension"][1][0] = "d(y1) ^ dx1"
        with pytest.raises(ParseError) as exc:
            load_structure_file(doc)
        assert (exc.value.line, exc.value.column) == (2, 9)

    def test_mismatched_sections_rejected(self, red2):
        doc = dump_scenario(red2)
        doc["sharp_n"] = doc["sharp_n"][:-1]
        with pytest.raises(Exception):
            load_structure_file(doc)

    def test_su2_yang_mills_roundtrip_preserves_equations(self, ym_su2):
        # the parser handles the full su(2) scenario: reloading the dumped
        # file reproduces the field equations symbol for symbol
        from gradira import Hamiltonian, Section, hdw_residuals

        doc = dump_scenario(ym_su2)
        sf = load_structure_file(doc)
        ham1 = Hamiltonian(ym_su2.hamiltonian_form, ym_su2.structure)
        res1 = hdw_residuals(ham1, Section(ym_su2.chart),
                             ym_su2.hamiltonian_generators)
        ham2 = Hamiltonian(sf.hamiltonian, sf.structure)
        res2 = hdw_residuals(ham2, Section(sf.chart), sf.generators)
        assert len(res1) == len(res2)
        for (l1, r1, lhs1, rhs1), (l2, r2, lhs2, rhs2) in zip(res1, res2):
            assert l1 == l2
            assert lhs1.data == lhs2.data
            assert rhs1.data == rhs2.data


class TestCli:
    def test_scenario_verify_flow(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        code, out, _ = run_cli(
            ["scenario", "reduced-canonical", "--n", "2", "--fields", "1",
             "--out", out_file], capsys)
        assert code == 0
        code, out, _ = run_cli(["verify", "-f", out_file], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.startswith("PASS")

    def test_verify_determinism(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        _, out1, _ = run_cli(["verify", "-f", out_file, "--samples", "2"], capsys)
        _, out2, _ = run_cli(["verify", "-f", out_file, "--samples", "2"], capsys)
        assert out1 == out2

    def test_negative_sample_count_exit_2(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        for count in ("-3", "three"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "-f", out_file, "--samples", count])
            out = capsys.readouterr()
            assert (exc.value.code, out.out) == (2, "")
            assert out.err.endswith(
                f"error: argument --samples: expected an integer >= 0, got '{count}'\n")

    def test_extended_verify_fails_fibered(self, tmp_path, capsys):
        out_file = str(tmp_path / "ext.json")
        run_cli(["scenario", "extended-canonical", "--out", out_file], capsys)
        code, out, _ = run_cli(["verify", "-f", out_file], capsys)
        assert code == 1
        assert "FAIL horizontal" in out

    def test_bracket_subcommand(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        code, out, _ = run_cli(
            ["bracket", "-f", out_file, "-a", "y1 * dX[1]",
             "-b", "p1_1 * dX[1] + p2_1 * dX[2]"], capsys)
        assert code == 0
        assert out.strip() == "dX[1]"

    def test_bracket_top_form_first(self, tmp_path, capsys):
        # an n-form on the left goes through the first extension with the
        # graded skew-symmetry sign
        from gradira.extensions import bracket_ext1_signed
        from gradira.parser import parse_form
        from gradira.render import render_form

        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        sf = load_structure_file(out_file)
        top = json.loads(open(out_file).read())["hamiltonian"]
        low = "y1 * dX[1]"
        code, out, err = run_cli(
            ["bracket", "-f", out_file, "-a", top, "-b", low], capsys)
        assert (code, err) == (0, "")
        expected = bracket_ext1_signed(parse_form(top, sf.chart),
                                       parse_form(low, sf.chart), sf.structure)
        assert out == render_form(expected) + "\n"

    def test_bracket_non_hamiltonian_exit_2(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        code, out, err = run_cli(
            ["bracket", "-f", out_file, "-a", "y1 * d(p2_1)", "-b", "y1 * dX[1]"],
            capsys)
        assert code == 2
        assert "error" in err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        code, _, err = run_cli(["special", "-f", out_file, "-a", "d(zz)"], capsys)
        assert code == 2
        assert "zz" in err

    def test_costly_power_exit_2(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        code, out, err = run_cli(
            ["hamiltonian", "-f", out_file, "-H", "2**100000000 * dX[]"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: 1:4: exponent")

    def test_tower_and_extend(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        code, out, _ = run_cli(["tower", "-f", out_file], capsys)
        assert code == 0
        assert "admitted generators (4)" in out
        code, out, _ = run_cli(["extend", "-f", out_file], capsys)
        assert code == 0
        assert out.count("extend ") == 4

    def test_extend_out_writes_the_stdout(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        code, text, err = run_cli(["extend", "-f", out_file], capsys)
        assert (code, err) == (0, "")
        ext_file = tmp_path / "extension.txt"
        code, out, err = run_cli(["extend", "-f", out_file, "--out", str(ext_file)],
                                 capsys)
        assert (code, out, err) == (0, f"wrote {ext_file}\n", "")
        assert ext_file.read_text() == text
        table = parse_extension(ext_file.read_text(), load_structure_file(out_file).structure)
        table.verify()
        assert len(table.entries) == 4

    @pytest.mark.parametrize("command, message", [
        ("hamiltonian", "no Hamiltonian: pass -H or use a file with one"),
        ("hdw", "structure file has no Hamiltonian"),
        ("evolution", "structure file has no Hamiltonian"),
    ])
    def test_file_without_hamiltonian_exit_2(self, tmp_path, capsys, command, message):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "extended-canonical", "--out", out_file], capsys)
        code, out, err = run_cli([command, "-f", out_file], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("args, message", [
        (["tower", "-a", "0"], "form degree a=0 below extension level j=2"),
        (["extend", "-a", "0"], "form degree a=0 below extension level j=2"),
        (["tower", "-a", "-1"], "form degree a=-1 below extension level j=2"),
        (["tower", "-j", "7"], "extension level j=7 out of range (1..2)"),
        (["tower", "-a", "1", "-j", "2"], "form degree a=1 below extension level j=2"),
        (["tower", "-j", "0"], "extension level j=0 out of range (1..2)"),
        (["tower", "-a", "6"], "form degree a=6 above chart dimension 5"),
        (["tower", "-a", "9"], "form degree a=9 above chart dimension 5"),
        (["extend", "-a", "6"], "form degree a=6 above chart dimension 5"),
    ], ids=["tower-a0", "extend-a0", "tower-a-1", "tower-j7", "tower-a1j2", "tower-j0",
            "tower-a6", "tower-a9", "extend-a6"])
    def test_tower_level_out_of_range_exit_2(self, tmp_path, capsys, args, message):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        code, out, err = run_cli([args[0], "-f", out_file, *args[1:]], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_hamiltonian_and_special_and_evolution(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file,
                 "--with-extension"], capsys)
        code, out, _ = run_cli(["hamiltonian", "-f", out_file], capsys)
        assert code == 0
        code, out, _ = run_cli(["special", "-f", out_file, "-a", "y1"], capsys)
        assert code == 0
        code, out, _ = run_cli(["special", "-f", out_file, "-a", "p1_1"], capsys)
        assert code == 1
        code, out, _ = run_cli(["evolution", "-f", out_file], capsys)
        assert code == 0

    def test_hdw_yang_mills(self, tmp_path, capsys):
        out_file = str(tmp_path / "ym.json")
        code, _, _ = run_cli(
            ["scenario", "yang-mills", "--n", "3", "--algebra", "abelian",
             "--out", out_file], capsys)
        assert code == 0
        code, out, _ = run_cli(["hdw", "-f", out_file], capsys)
        assert code == 0
        assert "==" in out

    def test_bracket_undefined_scalar_exit_2(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        code, out, err = run_cli(
            ["bracket", "-f", out_file, "-a", "y1 * dX[1]", "-b", "1/0"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        # located at the '/', one line, no traceback
        for text, column in (("1/0", 2), ("x1/(x1 - x1)", 3)):
            code, out, err = run_cli(
                ["bracket", "-f", out_file, "-a", "y1 * dX[1]", "-b", text], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: 1:{column}: division by zero\n"

    def test_costly_product_exit_2_located(self, tmp_path, capsys):
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        big = " * ".join(["(10**90)**10"] * 6)
        code, out, err = run_cli(
            ["bracket", "-f", out_file, "-a", f"{big} * y1 * dX[1]",
             "-b", "p1_1 * dX[1] + p2_1 * dX[2]"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: 1:14: '*' result too large: degree 0, 1 terms, 5980-bit integers\n"

    def test_partial_name_as_function_exit_2(self, red2, tmp_path, capsys):
        # H__y1 is the derived name of D(H,y1), not a declarable function
        doc = dump_scenario(red2)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, "functions": {
            **doc["functions"], "H__y1": ["x1", "x2", "y1", "p1_1", "p2_1"]}}))
        code, out, err = run_cli(["verify", "-f", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err
        assert "'__'" in err

    def test_function_name_ending_in_underscore_exit_2(self, red2, tmp_path, capsys):
        doc = dump_scenario(red2)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, "functions": {
            **doc["functions"], "h_": ["x1", "y1"]}}))
        code, out, err = run_cli(["verify", "-f", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: function name 'h_' may not end in '_'\n"

    @pytest.mark.parametrize("args", [
        ["reduced-canonical", "--n", "1"],
        ["reduced-canonical", "--n", "1", "--with-extension"],
        ["extended-canonical", "--n", "1", "--fields", "2"],
        ["yang-mills", "--n", "1", "--algebra", "abelian"],
    ])
    def test_sampled_verify_at_order_1_exit_0(self, tmp_path, capsys, args):
        # no (n-2)-form exists at n = 1: the samples have no exact part
        # and there is no sampled-locality check
        out_file = str(tmp_path / "structure.json")
        assert run_cli(["scenario", *args, "--out", out_file], capsys)[0] == 0
        proc = subprocess.run(
            [sys.executable, "-m", "gradira.cli", "verify", "-f", out_file, "--samples", "3"],
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        sampled = [line for line in proc.stdout.splitlines() if "sampled" in line]
        assert sampled == [f"PASS sampled-skew {k}" for k in range(3)]

    @pytest.mark.parametrize("section, edit, message", [
        ("sn", lambda doc: doc["sn"].__setitem__(1, "d(y1) ^ d(z9)"),
         "2:11: unknown coordinate 'z9'"),
        ("sharp_n", lambda doc: doc["sharp_n"].__setitem__(1, "@/x1 ^ @/y1"),
         "2:1: expected a degree 1 multivector, got 2"),
        ("generators", lambda doc: doc["generators"][2].__setitem__(1, "y1 * dX[3]"),
         "3:9: base index 3 out of range 1..2"),
    ], ids=["sn", "sharp_n", "generators"])
    def test_entry_error_located_at_entry_number(self, red2, tmp_path, capsys, section,
                                                 edit, message):
        # the line of the location is the entry number, as for extension entries
        doc = dump_scenario(red2)
        edit(doc)
        with pytest.raises(ParseError) as err:
            load_structure_file(doc)
        assert str(err.value) == message
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["verify", "-f", str(path)], capsys) == (2, "", f"error: {message}\n")

    DEEP = "(" * 150 + "y1" + ")" * 150 + " * dX[1]"
    MINUS = "-" * 20000 + "y1 * dX[1]"

    @pytest.mark.parametrize("args, column", [
        (["bracket", "-a", DEEP, "-b", "p1_1 * dX[1] + p2_1 * dX[2]"], 51),
        (["bracket", "-a", "y1 * dX[1]", "-b", MINUS], 51),
        (["special", "-a", DEEP], 51),
        (["hamiltonian", "-H", "H * dX[] + " + DEEP], 62),
    ], ids=["bracket", "bracket-minus", "special", "hamiltonian"])
    def test_deep_nesting_exit_2_located(self, red2, tmp_path, capsys, args, column):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(dump_scenario(red2)))
        command, *rest = args
        assert run_cli([command, "-f", str(path), *rest], capsys) == (
            2, "", f"error: 1:{column}: nesting deeper than 50 levels\n")

    def test_deep_structure_file_entry_exit_2_located(self, red2, tmp_path, capsys):
        doc = dump_scenario(red2)
        doc["sn"][2] = "(" * 60 + "y1" + ")" * 60 + " * dX[1]"
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["verify", "-f", str(path)], capsys) == (
            2, "", "error: 3:51: nesting deeper than 50 levels\n")

    def test_bivector_sharp_value_is_a_parse_error(self, red2, tmp_path, capsys):
        doc = dump_scenario(red2)
        doc["sharp_n"][0] = "@/x1 ^ @/y1"
        with pytest.raises(ParseError) as err:
            load_structure_file(doc)
        assert str(err.value) == "1:1: expected a degree 1 multivector, got 2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify", "-f", str(path)], capsys)
        assert (code, out, err) == (2, "", "error: 1:1: expected a degree 1 multivector, got 2\n")

    def test_sharp_depending_on_the_decomposition_exit_2(self, red2, tmp_path, capsys):
        # generator 0 twice, the copy's sharp value off by @/x1
        doc = dump_scenario(red2)
        doc["sn"].append(doc["sn"][0])
        doc["sharp_n"].append(doc["sharp_n"][0] + " + @/x1")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify", "-f", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: sharp_2 depends on the decomposition; "
                       "offending relation @/x1\n")

    FIBERLESS = ("error: no fiber coordinate on Chart(base=['x1', 'x2'], fiber=[]): "
                 "d H of an n-form H is an (n+1)-form, so a structure needs chart "
                 "dimension m > n\n")

    @pytest.mark.parametrize("args", [
        ["reduced-canonical", "--n", "2", "--fields", "0"],
        ["yang-mills", "--n", "2", "--algebra", "abelian", "--fields", "0"],
    ], ids=["reduced-canonical", "yang-mills"])
    def test_fiberless_scenario_exit_2(self, tmp_path, capsys, args):
        # no (n+1)-form exists on an n-dimensional chart: the structure is
        # refused before any file is written
        out_file = tmp_path / "structure.json"
        code, out, err = run_cli(["scenario", *args, "--out", str(out_file)], capsys)
        assert (code, out, err) == (2, "", self.FIBERLESS)
        assert not out_file.exists()

    @pytest.mark.parametrize("command", ["verify", "hamiltonian", "hdw"])
    def test_fiberless_structure_file_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "fiberless.json"
        path.write_text(json.dumps({
            "chart": {"base": ["x1", "x2"], "fiber": []},
            "functions": {"H": ["x1", "x2"]},
            "generators": [["dX[1]", "dX[1]"], ["dX[2]", "dX[2]"]],
            "hamiltonian": "H * dX[]",
            "sharp_n": ["0"],
            "sn": ["-dX[]"],
        }))
        code, out, err = run_cli([command, "-f", str(path)], capsys)
        assert (code, out, err) == (2, "", self.FIBERLESS)

    @pytest.mark.parametrize("args", [
        ["verify", "-f", "{dir}"],
        ["scenario", "reduced-canonical", "--out", "{dir}"],
        ["extend", "-f", "{file}", "--out", "{dir}"],
    ], ids=["verify-file", "scenario-out", "extend-out"])
    def test_directory_path_exit_2(self, red2, tmp_path, capsys, monkeypatch, args):
        # a directory where a file is read or written is an input error,
        # found before any tower or scenario is built
        _forbid_builds(monkeypatch)
        directory = tmp_path / "dir"
        directory.mkdir()
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(dump_scenario(red2)))
        argv = [a.format(dir=directory, file=path) for a in args]
        code, out, err = run_cli(argv, capsys)
        message = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(directory))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("args", [
        ["scenario", "reduced-canonical", "--out", "{out}"],
        ["extend", "-f", "{file}", "--out", "{out}"],
    ], ids=["scenario-out", "extend-out"])
    @pytest.mark.parametrize("out, code", [
        ("missing/structure.json", errno.ENOENT),
        ("structure.json/out.json", errno.ENOTDIR),
    ], ids=["missing-parent", "file-parent"])
    def test_unwritable_out_exit_2_before_any_build(self, red2, tmp_path, capsys,
                                                    monkeypatch, args, out, code):
        # the error open() would give at the end, given before the build
        _forbid_builds(monkeypatch)
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(dump_scenario(red2)))
        target = str(tmp_path / out)
        argv = [a.format(out=target, file=path) for a in args]
        message = OSError(code, os.strerror(code), target)
        assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
    def test_failed_build_leaves_out_untouched(self, red2, tmp_path, capsys, exists):
        # a build that fails neither creates nor truncates --out
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(dump_scenario(red2)))
        target = tmp_path / "table.txt"
        if exists:
            target.write_text("kept\n")
        code, out, err = run_cli(["extend", "-f", str(path), "-a", "9",
                                  "--out", str(target)], capsys)
        assert (code, out) == (2, "") and err.startswith("error: ")
        if exists:
            assert target.read_text() == "kept\n"
        else:
            assert not target.exists()

    @pytest.mark.parametrize("command", ["verify", "hdw", "evolution"])
    @pytest.mark.parametrize("entry, value, message", [
        (2, "mixed", "table entry 2 for d(p1_1) ^ dX[]: value grading (2, 2) "
                     "is not (1, 1), that of level j=2"),
        (1, "d(y1) @ 1", "table entry 1 for d(y1) ^ dX[]: value grading (1, 0) "
                         "is at level j=3, outside 1..2"),
        (1, "@/y1 ^ @/p1_1 ^ @/p2_1", "table entry 1 for d(y1) ^ dX[]: value "
                                      "grading (0, 3) is at level j=0, outside 1..2"),
        (1, "d(x1) ^ d(y1) @ @/p1_1", "table entry 1 for d(y1) ^ dX[]: value "
                                      "grading (2, 1) is not (1, 1), that of level j=2"),
    ], ids=["mixed-levels", "vector-degree-0", "vector-degree-3", "form-degree-2"])
    def test_extension_value_off_its_grading_exit_2(self, red2, tmp_path, capsys,
                                                    command, entry, value, message):
        # each table value must have the grading (deg theta - j, n + 1 - j)
        # of one level 1 <= j <= n; "mixed" is entry 2's W ^ 1_1, which
        # pairs with every n-form as W does
        table = canonical_extension_table(red2, style="symmetric")
        if value == "mixed":
            value = render_mvform(wedge(table.entries[1][1], identity_tensor(red2.chart, 1)))
        doc = dump_scenario(red2, extension=table)
        doc["extension"][entry - 1][1] = value
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([command, "-f", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_file_exit_2(self, red2, tmp_path, capsys):
        code, _, err = run_cli(["verify", "-f", "/nonexistent.json"], capsys)
        assert code == 2
        # sections of the wrong JSON shape are input errors as well
        good = dump_scenario(red2)
        bad_sections = [
            ("chart", ["x1", "x2"]),
            ("chart", {"base": "x1", "fiber": []}),
            ("chart", {"base": ["x1", "x2"], "fiber": [1]}),
            ("functions", ["H"]),
            ("functions", {"H": "x1"}),
            ("sn", 5),
            ("sharp_n", [1]),
            ("generators", [["label"]]),
            ("generators", [["label", 3]]),
            ("extension", [["dX[1]"]]),
            ("extension", "dX[1] => 0"),
        ]
        path = tmp_path / "bad.json"
        for key, value in bad_sections:
            path.write_text(json.dumps({**good, key: value}))
            code, out, err = run_cli(["verify", "-f", str(path)], capsys)
            assert (key, code, out) == (key, 2, "")
            assert err.startswith("error:")

    @pytest.mark.parametrize("scenario, verdict", [("reduced-canonical", 0),
                                                   ("extended-canonical", 1)])
    def test_closed_stdout_exits_with_the_verdict(self, tmp_path, capsys, scenario,
                                                  verdict):
        # ``verify ... | head -1``: the reader leaving is not an input error
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", scenario, "--out", out_file], capsys)
        with contextlib.redirect_stdout(ClosedPipe()):
            code = main(["verify", "-f", out_file])
        assert (code, capsys.readouterr().err) == (verdict, "")

    def test_closed_stdout_descriptor_goes_to_devnull(self, tmp_path, capsys):
        # a stdout on a pipe whose read end is closed: the flush at exit
        # must find os.devnull behind the descriptor, not the pipe
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stream, contextlib.redirect_stdout(stream):
            code = main(["verify", "-f", out_file])
            stream.write("more than the pipe took\n")
        assert (code, capsys.readouterr().err) == (0, "")

    def test_closed_stdout_pipe_prints_nothing_at_exit(self, tmp_path, capsys):
        # the read end is closed before the child writes: no error line,
        # no traceback and no "Exception ignored" message from the exit flush
        out_file = str(tmp_path / "structure.json")
        run_cli(["scenario", "reduced-canonical", "--out", out_file], capsys)
        proc = subprocess.Popen(
            [sys.executable, "-m", "gradira.cli", "verify", "-f", out_file],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")

    def test_console_entry_point(self, tmp_path):
        out_file = str(tmp_path / "structure.json")
        proc = subprocess.run(
            [sys.executable, "-m", "gradira.cli", "scenario",
             "reduced-canonical", "--out", out_file],
            capture_output=True, text=True)
        assert proc.returncode == 0

    def test_oversized_pairing_system_exit_2_at_once(self, tmp_path):
        # m = 19: the S^5[1] pairing system would have 15,019,500 unknowns;
        # the budget refuses it before any row is made, so a 1 GB address
        # space and 60 s are plenty
        out_file = str(tmp_path / "structure.json")
        subprocess.run(
            [sys.executable, "-m", "gradira.cli", "scenario", "reduced-canonical",
             "--n", "4", "--fields", "3", "--out", out_file], check=True, capture_output=True)
        proc = subprocess.run(
            [sys.executable, "-m", "gradira.cli", "tower", "-f", out_file, "-a", "5", "-j", "1"],
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: the pairing system has 15,019,500 unknowns, "
                               "more than 1,000,000\n")

    @pytest.mark.parametrize("command", ["tower", "extend"])
    def test_oversized_tower_exit_2_at_once(self, tmp_path, command):
        # m = 302: the default S^3[2] tower would take C(302, 3) candidates,
        # about 6 GB; the candidate budget refuses it before any candidate
        # is built, so a 1 GB address space and 60 s are plenty
        out_file = str(tmp_path / "structure.json")
        subprocess.run(
            [sys.executable, "-m", "gradira.cli", "scenario", "reduced-canonical",
             "--n", "2", "--fields", "100", "--out", out_file], check=True,
            capture_output=True)
        proc = subprocess.run(
            [sys.executable, "-m", "gradira.cli", command, "-f", out_file],
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: the S^3[2] tower has 4,545,100 candidates, "
                               "more than 300,000\n")

    def test_nulled_optional_sections_read_as_absent(self, red2, tmp_path, capsys):
        # a JSON null in an optional section is the section left out: the
        # same stdout, stderr and exit code for every command that reads it
        optional = ["functions", "hamiltonian", "generators", "extension", "scenario"]
        doc = dump_scenario(red2, extension=canonical_extension_table(red2))
        absent, nulled = tmp_path / "absent.json", tmp_path / "nulled.json"
        absent.write_text(json.dumps({k: v for k, v in doc.items() if k not in optional}))
        nulled.write_text(json.dumps({**doc, **dict.fromkeys(optional)}))
        expected = {
            "verify": 0,
            "tower": 0,
            "hamiltonian": "error: no Hamiltonian: pass -H or use a file with one\n",
            "hdw": "error: structure file has no Hamiltonian\n",
            "evolution": "error: structure file has no Hamiltonian\n",
        }
        for command, outcome in expected.items():
            results = [run_cli([command, "-f", str(path)], capsys) for path in (absent, nulled)]
            assert results[0] == results[1], command
            code, out, err = results[0]
            if outcome == 0:
                assert (code, err) == (0, "") and out, command
            else:
                assert (code, out, err) == (2, "", outcome), command

    @pytest.mark.parametrize("args, text", [
        (["reduced-canonical", "--n", "30"],
         "(2^30 - 1) * 33 horizontal coordinate forms (order 30, 62 coordinates)"),
        (["reduced-canonical", "--n", "9"],
         "6,132 horizontal coordinate forms (order 9, 20 coordinates)"),
        (["reduced-canonical", "--n", "30", "--fields", "-2"],
         "(2^30 - 1) * 2 horizontal coordinate forms (order 30, 31 coordinates)"),
        (["yang-mills", "--algebra", "abelian", "--fields", "1000000000"],
         "18,000,000,006 horizontal coordinate forms (order 2, 6,000,000,003 coordinates)"),
    ])
    def test_oversized_scenario_exit_2_at_once(self, tmp_path, args, text):
        # refused from its parameters before any chart is built, so a
        # 1 GB address space and 60 s are plenty
        out_file = tmp_path / "structure.json"
        proc = subprocess.run(
            [sys.executable, "-m", "gradira.cli", "scenario", *args, "--out", str(out_file)],
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: the scenario has {text}, more than 5,000\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("name, params, extended_m", [
        ("reduced-canonical", {"n": 2, "fields": 1}, lambda scn: scn.extended.chart.m),
        ("extended-canonical", {"n": 3, "fields": 2}, lambda scn: scn.chart.m),
        # the ambient reduced chart drops the extended chart's p
        ("yang-mills", {"n": 3, "algebra": "su2"}, lambda scn: scn.ambient.chart.m + 1),
    ])
    def test_scenario_budget_is_checked_before_the_chart(self, monkeypatch, name, params,
                                                         extended_m):
        # a budget equal to the scenario's (2^n - 1)(m - n + 1) on its
        # extended chart builds it; one less refuses it before a chart exists
        from gradira import scenarios
        from gradira.errors import ChartError

        n = params["n"]
        size = (2 ** n - 1) * (extended_m(scenarios.scenario(name, **params)) - n + 1)
        monkeypatch.setattr(scenarios, "MAX_SCENARIO_FORMS", size)
        scenarios.scenario(name, **params)

        def forbidden(*args, **kwargs):
            raise AssertionError("a chart was built")

        monkeypatch.setattr(scenarios, "MAX_SCENARIO_FORMS", size - 1)
        monkeypatch.setattr(scenarios, "_canonical_chart", forbidden)
        with pytest.raises(ChartError, match=f"has {size:,} horizontal"):
            scenarios.scenario(name, **params)

    def test_cross_process_byte_identical_reports(self, tmp_path):
        out_file = str(tmp_path / "structure.json")
        subprocess.run(
            [sys.executable, "-m", "gradira.cli", "scenario",
             "reduced-canonical", "--out", out_file], check=True,
            capture_output=True)
        runs = [
            subprocess.run(
                [sys.executable, "-m", "gradira.cli", "verify", "-f", out_file],
                capture_output=True, text=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode == 0


# stdout of `extend` and `tower --no-vertical` as recorded before the tower
# solve moved onto one elimination per matrix: the admitted generators and
# the particular sharp_j~ values printed must not change
SCENARIOS = {
    "red21": ["reduced-canonical", "--n", "2", "--fields", "1"],
    "ext21": ["extended-canonical", "--n", "2", "--fields", "1"],
}
COMMANDS = {"extend": ["extend"], "towernv": ["tower", "--no-vertical"]}
GOLDEN = {
    ("red21", "extend"): [
        'extend -d(p1_1) ^ dX[] => -dX[2] @ @/y1',
        'extend d(y1) ^ dX[] => -dX[2] @ @/p1_1',
        'extend -d(p2_1) ^ dX[] => dX[1] @ @/y1',
        'extend d(y1) ^ d(p2_1) ^ dX[2] + d(y1) ^ d(p1_1) ^ dX[1] => d(y1) @ @/y1 + d(p1_1) @ @/p1_1 + d(p2_1) @ @/p2_1',
    ],
    ("red21", "towernv"): [
        'S^3[2] admitted generators (7):',
        '  -d(y1) ^ d(p1_1) ^ dX[2]',
        '  -d(p1_1) ^ dX[]',
        '  d(y1) ^ dX[]',
        '  -d(y1) ^ d(p2_1) ^ dX[1]',
        '  -d(y1) ^ d(p2_1) ^ dX[2] + d(y1) ^ d(p1_1) ^ dX[1]',
        '  -d(p2_1) ^ dX[]',
        '  d(y1) ^ d(p2_1) ^ dX[2] + d(y1) ^ d(p1_1) ^ dX[1]',
        'rejected candidates (3):',
        '  d(p1_1) ^ d(p2_1) ^ dX[1]',
        '  d(p1_1) ^ d(p2_1) ^ dX[2]',
        '  d(y1) ^ d(p1_1) ^ d(p2_1)',
        'homogeneous freedom dimension: 3',
    ],
    ("ext21", "extend"): [
        'extend -2 * d(y1) ^ dX[] => dX[2] @ @/p1_1 - dX[1] @ @/p2_1 + d(y1) @ @/p',
    ],
    ("ext21", "towernv"): [
        'S^3[2] admitted generators (2):',
        '  -2 * d(y1) ^ dX[]',
        '  -2 * d(p) ^ dX[] + 2 * d(y1) ^ d(p2_1) ^ dX[2] + 2 * d(y1) ^ d(p1_1) ^ dX[1]',
        'rejected candidates (19):',
        '  d(p) ^ d(p2_1) ^ dX[1]',
        '  d(y1) ^ d(p) ^ d(p2_1)',
        '  -d(p) ^ d(p1_1) ^ d(p2_1)',
        '  d(p) ^ d(p2_1) ^ dX[2]',
        '  -d(y1) ^ d(p) ^ dX[1]',
        '  d(p) ^ d(p1_1) ^ dX[1]',
        '  -d(p) ^ dX[]',
        '  d(y1) ^ d(p) ^ d(p1_1)',
        '  d(y1) ^ d(p) ^ dX[2]',
        '  -d(p) ^ d(p1_1) ^ dX[2]',
        '  -d(y1) ^ d(p2_1) ^ dX[1]',
        '  -d(p1_1) ^ d(p2_1) ^ dX[1]',
        '  -d(p2_1) ^ dX[]',
        '  -d(y1) ^ d(p1_1) ^ d(p2_1)',
        '  d(y1) ^ d(p2_1) ^ dX[2]',
        '  d(p1_1) ^ d(p2_1) ^ dX[2]',
        '  d(y1) ^ d(p1_1) ^ dX[1]',
        '  -d(p1_1) ^ dX[]',
        '  d(y1) ^ d(p1_1) ^ dX[2]',
        'homogeneous freedom dimension: 0',
    ],
}


@pytest.mark.parametrize("scenario, command", sorted(GOLDEN))
def test_tower_reports_match_golden(scenario, command, tmp_path, capsys):
    out_file = str(tmp_path / "structure.json")
    run_cli(["scenario", *SCENARIOS[scenario], "--out", out_file], capsys)
    code, out, err = run_cli([*COMMANDS[command], "-f", out_file], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == GOLDEN[(scenario, command)]
