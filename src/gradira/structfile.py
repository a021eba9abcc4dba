"""Structure-definition files.

The container is a JSON document with named sections; every expression
inside is a string in the FormExpr grammar:

    {
      "chart":      {"base": [...], "fiber": [...]},
      "functions":  {"H": ["x1", "y1", "p1_1"]},          (optional)
      "sn":         ["<n-form expr>", ...],
      "sharp_n":    ["<vector expr>", ...],               (parallel to sn)
      "hamiltonian": "<n-form expr>",                     (optional)
      "generators": [["label", "<(n-1)-form expr>"], ...] (optional)
      "extension":  [["<form expr>", "<mvform expr>"], ...] (optional)
      "scenario":   {"name": ..., params...}              (optional, metadata)
    }

An error in an entry of the ``sn``, ``sharp_n``, ``generators`` or
``extension`` list is located as (entry number, column), entries counted
from 1.

Extension tables also round-trip through a line-oriented text block
`extend <form> => <mvform>` via dump_extension/parse_extension.  A zero
value renders as 0, which carries no grading: both readers give it the
grading (deg Theta - j, n + 1 - j) of the table's level j, which the first
other value fixes, and a table whose values are all 0 is a ParseError.
"""

from __future__ import annotations

import json

from .chart import Chart
from .errors import ParseError
from .extensions import ExtensionTable
from .parser import parse_expression, parse_form, parse_multivector
from .render import render_form, render_mv, render_mvform
from .forms import Form, MultiVector, MvForm
from .structure import Structure

__all__ = ["load_structure_file", "dump_scenario", "StructureFile",
           "dump_extension", "parse_extension"]


class StructureFile:
    def __init__(self, chart, structure, hamiltonian=None, generators=None,
                 extension=None, meta=None):
        self.chart = chart
        self.structure = structure
        self.hamiltonian = hamiltonian
        self.generators = generators or []
        self.extension = extension
        self.meta = meta or {}


def _is_strings(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_string_pairs(value):
    return isinstance(value, list) and all(
        _is_strings(p) and len(p) == 2 for p in value
    )


def _is_function_table(value):
    return isinstance(value, dict) and all(
        isinstance(k, str) and _is_strings(v) for k, v in value.items()
    )


def _section(doc, key, ok, shape, default):
    """doc[key] once its JSON shape is checked; ``default`` when it is
    absent or null.  A file is outside input, so a wrong shape is a
    ParseError, never a TypeError deep inside the loader."""
    value = doc.get(key)
    if value is None:
        return default
    if not ok(value):
        raise ParseError(f"section {key!r} must be {shape}")
    return value


def load_structure_file(path_or_dict):
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("structure file must be a JSON object")
    chart_doc = doc.get("chart")
    if not isinstance(chart_doc, dict) or chart_doc.get("base") is None:
        raise ParseError("missing chart section: need an object with a 'base' list")
    strings = "a list of strings"
    chart = Chart(base=_section(chart_doc, "base", _is_strings, strings, None),
                  fiber=_section(chart_doc, "fiber", _is_strings, strings, []))
    functions = _section(doc, "functions", _is_function_table,
                         "an object mapping names to lists of strings", {})
    for fname, args in functions.items():
        chart.declare_function(fname, args)
    n = chart.n
    sn = _section(doc, "sn", _is_strings, strings, [])
    sharp_n = _section(doc, "sharp_n", _is_strings, strings, [])
    if len(sn) != len(sharp_n):
        raise ParseError("sn and sharp_n sections differ in length")
    gens = [parse_form(text, chart, degree=n, start=(k, 1)) for k, text in enumerate(sn, 1)]
    values = [parse_multivector(text, chart, degree=1, start=(k, 1))
              for k, text in enumerate(sharp_n, 1)]
    structure = Structure(chart, gens, values)
    hamiltonian = None
    text = _section(doc, "hamiltonian", lambda v: isinstance(v, str), "a string", "")
    if text:
        hamiltonian = parse_form(text, chart, degree=n)
    generators = []
    for k, (label, text) in enumerate(_section(doc, "generators", _is_string_pairs,
                                               "a list of [label, form] string pairs", []), 1):
        generators.append((label, parse_form(text, chart, degree=n - 1, start=(k, 1))))
    extension = None
    extension_doc = _section(doc, "extension", _is_string_pairs,
                             "a list of [form, value] string pairs", [])
    if extension_doc:
        extension = _extension_table(structure, [
            (ftext, (k, 1), wtext, (k, 1))
            for k, (ftext, wtext) in enumerate(extension_doc, 1)])
    return StructureFile(chart, structure, hamiltonian, generators, extension,
                         meta=doc.get("scenario", {}))


def _extension_table(structure, located):
    """The ExtensionTable of (form text, start, value text, start)
    entries, read in order, with errors located at the (line, column)
    where each text starts: the line of a text block, the entry number in
    a structure file.  A multivector value u is read as 1 (x) u, and a
    value 0 as the zero multivector valued form of the table's level j,
    which the first other value fixes; any other value that is not a
    multivector valued form is a ParseError."""
    chart, n = structure.chart, structure.n
    entries = []
    for ftext, fstart, wtext, wstart in located:
        theta = parse_form(ftext, chart, start=fstart)
        value = parse_expression(wtext, chart, start=wstart)
        if isinstance(value, MultiVector):
            value = MvForm.tensor(Form.scalar_form(chart, 1), value)
        if not isinstance(value, MvForm) and (isinstance(value, Form) or value):
            raise ParseError("extension values must be multivector valued forms",
                             *wstart)
        entries.append((theta, value, wstart))
    if not entries:
        raise ParseError("no `extend <form> => <mvform>` entries")
    levels = [n + 1 - value.vec_degree for _, value, _ in entries
              if isinstance(value, MvForm)]
    if not levels:
        raise ParseError("every extension value is 0, so the level j of the "
                         "table is undetermined", *entries[0][2])
    j = levels[0]
    return ExtensionTable(structure, j, [
        (theta, value if isinstance(value, MvForm)
         else MvForm.zero(chart, max(theta.degree - j, 0), n + 1 - j))
        for theta, value, _ in entries])


def dump_scenario(scn, extension=None):
    """Serialize a Scenario into the JSON container."""
    chart = scn.chart
    doc = {
        "chart": {"base": list(chart.base_coords), "fiber": list(chart.fiber_coords)},
        "functions": {k: list(v) for k, v in chart.functions.items()},
        "sn": [render_form(g) for g in scn.structure.generators(scn.structure.n)],
        "sharp_n": [render_mv(v) for v in scn.structure.sharp_values(scn.structure.n)],
        "scenario": {"name": scn.name, **{k: (list(v) if isinstance(v, tuple) else v)
                                          for k, v in scn.params.items()}},
    }
    if scn.hamiltonian_form is not None:
        doc["hamiltonian"] = render_form(scn.hamiltonian_form)
    if scn.hamiltonian_generators:
        doc["generators"] = [
            [label, render_form(f)] for label, f in scn.hamiltonian_generators
        ]
    if extension is not None:
        doc["extension"] = [
            [render_form(theta), render_mvform(value)]
            for theta, value in extension.entries
        ]
    return doc


def dump_extension(table):
    """Line-oriented `extend <form> => <mvform>` text block."""
    lines = []
    for theta, value in table.entries:
        lines.append(f"extend {render_form(theta)} => {render_mvform(value)}")
    return "\n".join(lines)


def parse_extension(text, structure):
    """Parse a text block produced by dump_extension."""
    def located():
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not line.startswith("extend ") or "=>" not in line:
                raise ParseError("expected `extend <form> => <mvform>`", lineno, 1)
            fcol = len(raw) - len(raw.lstrip()) + len("extend ") + 1
            ftext, wtext = line[len("extend "):].split("=>", 1)
            yield ftext, (lineno, fcol), wtext, (lineno, fcol + len(ftext) + len("=>"))

    return _extension_table(structure, located())
