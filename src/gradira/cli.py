"""Command line interface.

Exit codes: 0 all checks pass, 1 check failures, 2 input errors.  Reports
are line oriented (`PASS|FAIL <check-id>: <detail>`) and byte-identical
for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .errors import GradiraError
from .calculus import exterior_derivative
from .dynamics import (
    Hamiltonian,
    Section,
    check_evolution,
    gamma_H,
    hdw_residuals,
    is_hamiltonian,
    is_special_hamiltonian,
    render_residual_equation,
)
from .extensions import bracket_ext1_signed, build_span_tower, default_table
from .forms import Form
from .parser import parse_form
from .render import render_form
from .report import Report
from .scenarios import canonical_extension_table, scenario as make_scenario
from .structfile import dump_extension, dump_scenario, load_structure_file
from .structure import bracket, verify_axioms, verify_fibered


def _count(text):
    """An argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _load(args):
    return load_structure_file(args.file)


def _check_out(path):
    """Raise, before any work is done, the OSError that opening ``path``
    for writing would raise; the file is neither created nor truncated."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.exists(path):
        open(path, "a").close()
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def _emit_report(report):
    """Print the report; the exit code is its verdict, also when the reader
    of stdout has left (``verify ... | head -1``)."""
    try:
        print(report.render(), flush=True)
    except BrokenPipeError:
        _drop_stdout()
    return 0 if report.passed else 1


def _drop_stdout():
    """Point the stdout file descriptor at os.devnull, so that the flush
    at interpreter exit writes what is left in the buffer nowhere instead
    of raising BrokenPipeError again.  A stream without a descriptor is
    left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def cmd_scenario(args):
    _check_out(args.out)
    params = {"n": args.n, "fields": args.fields}
    if args.algebra:
        params["algebra"] = args.algebra
    if args.signature:
        params["signature"] = tuple(int(s) for s in args.signature.split(","))
    scn = make_scenario(args.name, **params)
    extension = None
    if args.with_extension:
        style = "symmetric" if scn.name == "reduced-canonical" else "solved"
        extension = canonical_extension_table(scn, style=style)
    doc = dump_scenario(scn, extension=extension)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({scn.name})")
    return 0


def cmd_verify(args):
    sf = _load(args)
    report = verify_axioms(sf.structure)
    report.extend(verify_fibered(sf.structure))
    if args.samples:
        from .sampling import rng_from_env, random_hamiltonian_form
        from .scenarios import Scenario

        rng = rng_from_env()
        scn = Scenario(name="file", structure=sf.structure, params={},
                       hamiltonian_form=sf.hamiltonian,
                       hamiltonian_generators=sf.generators)
        from .sampling import random_form

        n = sf.structure.n
        for k in range(args.samples):
            alpha = random_hamiltonian_form(rng, scn)
            beta = random_hamiltonian_form(rng, scn)
            # both sides are (n-1)-forms of homogeneity degree 0
            lhs = bracket(alpha, beta, sf.structure)
            rhs = bracket(beta, alpha, sf.structure)
            report.add(f"sampled-skew {k}", lhs == -rhs)
            if n >= 2:  # locality pairs beta with d of an (n-2)-form
                closed = exterior_derivative(random_form(rng, sf.chart, n - 2))
                report.add(
                    f"sampled-locality {k}",
                    bracket(closed, beta, sf.structure).is_zero(),
                )
    return _emit_report(report)


def cmd_bracket(args):
    sf = _load(args)
    st = sf.structure
    n = st.n
    alpha = parse_form(args.a, sf.chart)
    beta = parse_form(args.b, sf.chart)
    if beta.degree <= n - 1 and alpha.degree <= n - 1:
        value = bracket(alpha, beta, st)
    else:
        value = bracket_ext1_signed(alpha, beta, st)
    print(render_form(value))
    return 0


def _tower(args):
    """The S^a[j] tower of ``tower`` and ``extend``, a = n + 1 and j = n by default."""
    st = _load(args).structure
    a = args.a if args.a is not None else st.n + 1
    j = args.j if args.j is not None else st.n
    return build_span_tower(st, a, j, vertical=args.vertical)


def _hamiltonian_file(args):
    """The structure file of ``hdw`` and ``evolution``, which need a Hamiltonian."""
    sf = _load(args)
    if sf.hamiltonian is None:
        raise GradiraError("structure file has no Hamiltonian")
    return sf


def cmd_tower(args):
    level = _tower(args)
    print(f"S^{level.a}[{level.j}] admitted generators ({len(level.entries)}):")
    for entry in level.entries:
        print(f"  {render_form(entry.form)}")
    rejected = level.rejected()
    print(f"rejected candidates ({len(rejected)}):")
    for form in rejected:
        print(f"  {render_form(form)}")
    print(f"homogeneous freedom dimension: {len(level.freedom)}")
    return 0


def cmd_extend(args):
    if args.out:
        _check_out(args.out)
    text = dump_extension(_tower(args).table())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_hamiltonian(args):
    sf = _load(args)
    form = sf.hamiltonian
    if args.H:
        form = parse_form(args.H, sf.chart, degree=sf.structure.n)
    if form is None:
        raise GradiraError("no Hamiltonian: pass -H or use a file with one")
    ok, diagnostics = is_hamiltonian(form, sf.structure)
    report = Report()
    report.add("hamiltonian", ok, "; ".join(diagnostics))
    return _emit_report(report)


def cmd_hdw(args):
    sf = _hamiltonian_file(args)
    ham = Hamiltonian(sf.hamiltonian, sf.structure)
    section = Section(sf.chart)
    entries = hdw_residuals(ham, section, sf.generators)
    for entry in entries:
        print(render_residual_equation(entry))
    return 0


def cmd_special(args):
    sf = _load(args)
    alpha = parse_form(args.a, sf.chart)
    verdict = is_special_hamiltonian(alpha, sf.structure)
    report = Report()
    report.add(f"special {args.a}", verdict)
    return _emit_report(report)


def cmd_evolution(args):
    sf = _hamiltonian_file(args)
    st = sf.structure
    table = sf.extension or default_table(st)
    ham = Hamiltonian(sf.hamiltonian, st)
    connection = gamma_H(ham, table)
    forms = list(sf.generators)
    for u in sf.chart.fiber_coords:
        forms.append((u, Form.scalar_form(sf.chart, sf.chart.sym(u))))
    report = check_evolution(ham, table, connection, forms)
    return _emit_report(report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradira",
        description="Exact computations with graded Dirac structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="write a built-in scenario file")
    p.add_argument("name", choices=["extended-canonical", "reduced-canonical",
                                    "yang-mills"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--fields", type=int, default=1)
    p.add_argument("--algebra", choices=["abelian", "su2"], default=None)
    p.add_argument("--signature", default=None,
                   help="comma separated +-1 entries, e.g. 1,-1,-1")
    p.add_argument("--out", default="structure.json")
    p.add_argument("--with-extension", action="store_true")
    p.set_defaults(func=cmd_scenario)

    def add_file(p):
        p.add_argument("-f", "--file", default="structure.json")

    p = sub.add_parser("verify", help="axiom and fiberedness report")
    add_file(p)
    p.add_argument("--samples", type=_count, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bracket", help="graded Poisson bracket of two forms")
    add_file(p)
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.set_defaults(func=cmd_bracket)

    def add_tower(p):
        add_file(p)
        p.add_argument("-a", type=int, default=None)
        p.add_argument("-j", type=int, default=None)
        p.add_argument("--vertical", action=argparse.BooleanOptionalAction,
                       default=True)

    p = sub.add_parser("tower", help="compute S^a[j]")
    add_tower(p)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("extend", help="solve and print an extension table")
    add_tower(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("hamiltonian", help="validate a Hamiltonian n-form")
    add_file(p)
    p.add_argument("-H", default=None)
    p.set_defaults(func=cmd_hamiltonian)

    p = sub.add_parser("hdw", help="Hamilton-De Donder-Weyl equations")
    add_file(p)
    p.set_defaults(func=cmd_hdw)

    p = sub.add_parser("special", help="special Hamiltonian verdict")
    add_file(p)
    p.add_argument("-a", required=True)
    p.set_defaults(func=cmd_special)

    p = sub.add_parser("evolution", help="verify the evolution identity")
    add_file(p)
    p.set_defaults(func=cmd_evolution)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GradiraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
