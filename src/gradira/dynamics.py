"""Hamiltonians, De Donder-Weyl equations, connections and the algebra of
special Hamiltonian forms."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import scalars
from .calculus import exterior_derivative
from .chart import Chart
from .errors import DegreeError, MembershipError, NotHamiltonianError
from .extensions import (
    bracket_ext1_formula,
    require_ext1_left,
    require_extj_left,
    require_s1_power,
)
from .forms import (
    Form,
    MultiVector,
    contract,
    contract_form,
    substitute_differentials,
    wedge,
)
from .linsolve import Echelon
from .render import render, render_form, render_scalar
from .report import Report
from .structure import bracket_formula, hamiltonian_sharp, require_hamiltonian

__all__ = [
    "Hamiltonian",
    "is_hamiltonian",
    "Section",
    "Connection",
    "hdw_residuals",
    "gamma_H",
    "check_evolution",
    "is_special_hamiltonian",
    "check_subalgebra_condition",
]


def _not_semibasic_along(chart, forms):
    """The coordinate vector of the lowest fiber index that occurs in
    ``forms``, i.e. the first vertical v with iota_v of one of them
    nonzero, or None when every form is semi-basic."""
    fiber = [i for form in forms for key in form.data for i in key if i >= chart.n]
    return MultiVector.coord_vector(chart, chart.coords[min(fiber)]) if fiber else None


def is_hamiltonian(form, structure):
    """Decide whether an n-form is a Hamiltonian; returns (bool, diagnostics).

    Conditions: d H decomposes over wedge powers of S^1 and lies in
    S^{n+1}[n]; 1_n - sharp_1~(d H) is semi-basic modulo K_n; and
    sharp_1~(d H) annihilates every semi-basic n-form.  Since
    iota_{sharp_1~(dH)} beta = (-1)^n iota_{X_beta} dH (``Structure.pairing_field``),
    these last two ask that every alpha_g - (-1)^n iota_{X_g} dH (alpha_g in
    S^n) be semi-basic, naming the lowest vertical one fails along, and
    that iota_{X_vol} dH = 0 for the base volume d^n x.
    """
    _, failure = _hamiltonian_data(form, structure)
    return (False, [failure]) if failure else (True, ["ok"])


def _hamiltonian_data(form, structure):
    """(d H, failure): failure is None when the form meets every condition
    of ``is_hamiltonian``, else the first one it fails."""
    n = structure.n
    chart = structure.chart
    if form.degree != n:
        return None, f"degree {form.degree} != n"
    dh = exterior_derivative(form)
    try:
        require_s1_power(dh, structure)
    except MembershipError:
        return dh, "dH is not in the wedge power (S^1)^(n+1)"
    if not (dh.is_zero() or structure.pairing_system(n + 1, n).solve(
            structure.pairing_rhs(dh.data)) is not None):
        return dh, "dH is not in S^{n+1}[n]"
    signed = -dh if n % 2 else dh  # (-1)^n dH
    v = _not_semibasic_along(chart, [gen.form - contract(x, signed) for gen, x
                                     in zip(structure.levels[n], structure.pairing_fields)])
    if v is not None:
        return dh, (f"1_n - sharp_1~(dH) is not semi-basic: fails "
                    f"along {render(v)}")
    vol = Form(chart, n, {tuple(range(n)): scalars.ONE}, _normalized=True)
    if contract(structure.pairing_field(vol), dh):
        return dh, "sharp_1~(dH) does not annihilate semi-basic n-forms"
    return dh, None


@dataclass
class Hamiltonian:
    """A validated Hamiltonian n-form with its derivative."""

    form: Form
    structure: object
    dform: Form = field(init=False)

    def __post_init__(self):
        self.dform, failure = _hamiltonian_data(self.form, self.structure)
        if failure:
            raise NotHamiltonianError(failure)

    def bracket_with(self, alpha):
        """{alpha, H} through the first extension."""
        return bracket_ext1_formula(require_ext1_left(alpha, self.structure),
                                    self.dform, self.structure)


class Section:
    """A local section of the fibration: every fiber coordinate becomes a
    formal function of the base coordinates."""

    def __init__(self, chart):
        self.chart = chart
        self.base_chart = Chart(base=chart.base_coords, fiber=[])
        for u in chart.fiber_coords:
            self.base_chart.declare_function(u, args=self.base_chart.coords)
        for fname, args in chart.functions.items():
            # formal functions survive with their fiber arguments composed
            self.base_chart.functions.setdefault(fname, tuple(args))

    def partial(self, fiber_name, mu):
        """The formal derivative symbol d(fiber)/d(x^mu), 1-based mu."""
        return self.base_chart.partial_symbol(
            fiber_name, self.base_chart.coords[mu - 1]
        )

    def pullback(self, form):
        """psi^* of a form: du -> sum du/dx^mu dx^mu, coefficients kept as
        formal functions of the base point."""
        return substitute_differentials(form, self.base_chart, lambda c: c,
                                        self._one_form)

    def _one_form(self, i):
        """psi^* dx^i: dx^i on the base, sum_mu du/dx^mu dx^mu on the fiber."""
        if i < self.chart.n:
            return Form.d_coord(self.base_chart, self.chart.coords[i])
        name = self.chart.coords[i]
        return Form(self.base_chart, 1, {(mu - 1,): self.partial(name, mu)
                                         for mu in range(1, self.chart.n + 1)})


def hdw_residuals(ham, section, generators):
    """Hamilton-De Donder-Weyl residuals psi^*(d alpha) - (d alpha + {alpha, H}) o psi.

    ``generators`` is a list of (label, Form) pairs of Hamiltonian
    (n-1)-forms; the section solves the field equations iff every residual
    is the zero n-form on the base.
    """
    out = []
    for label, alpha in generators:
        dalpha = require_ext1_left(alpha, ham.structure, label)
        evolution = dalpha + bracket_ext1_formula(dalpha, ham.dform, ham.structure)
        if not evolution.is_semibasic():
            raise MembershipError(
                f"evolution of {label} is not semi-basic: {render(evolution)}"
            )
        lhs = section.pullback(dalpha)
        rhs = section.pullback(evolution)
        out.append((label, lhs - rhs, lhs, rhs))
    return out


def render_residual_equation(entry):
    """Text rendering `lhs == rhs` of one residual in base coordinates."""
    label, residual, lhs, rhs = entry
    return f"{label}: {render_form(lhs)} == {render_form(rhs)}"


@dataclass
class Connection:
    """A horizontal lift x^mu -> d/dx^mu + Gamma^u_mu d/du (modulo K_1)."""

    chart: Chart
    gammas: dict  # fiber coordinate name -> {mu (1-based) -> scalar}

    def lift(self, mu):
        data = {(mu - 1,): scalars.ONE}
        for u, row in self.gammas.items():
            c = row.get(mu)
            if c is not None and c != 0:
                data[(self.chart.index(u),)] = c
        return MultiVector(self.chart, 1, data)

    def horizontal_one_form(self, i):
        """h^* of the i-th coordinate differential."""
        chart = self.chart
        if i < chart.n:
            return Form(chart, 1, {(i,): scalars.ONE}, _normalized=True)
        name = chart.coords[i]
        row = self.gammas.get(name, {})
        return Form(chart, 1, {(mu - 1,): c for mu, c in row.items()})

    def pullback(self, form):
        """Pullback through the connection: substitute every differential
        by its horizontal part."""
        return substitute_differentials(form, self.chart, lambda c: c,
                                        self.horizontal_one_form)


def gamma_H(ham, table):
    """The connection induced by a vertical-valued extension at level n:
    dualize theta -> theta - iota_{sharp_n~(dH)} theta on S^1.  1_1 - t is
    semi-basic modulo K_1 iff every g - iota_t g (g in S^1) is semi-basic."""
    structure = ham.structure
    chart = structure.chart
    n = structure.n
    if table.j != n:
        raise DegreeError("gamma_H needs an extension table at level n")
    t = table.apply(ham.dform)
    if not t.vec_slot_vertical():
        raise MembershipError("sharp_n~(dH) is not vertical valued")
    if _not_semibasic_along(chart, [g.form - contract(t, g.form)
                                    for g in structure.levels[1]]) is not None:
        raise MembershipError(
            "1_1 - sharp_n~(dH) is not semi-basic; the table does not "
            "induce a connection"
        )
    gammas = {}
    for u in chart.fiber_coords:
        du = Form.d_coord(chart, u)
        b = du - contract(t, du)
        if not b.is_semibasic():
            raise MembershipError(
                f"horizontal part of d({u}) is not semi-basic: {render(b)}"
            )
        gammas[u] = {mu: b.data[(mu - 1,)] for mu in range(1, n + 1)
                     if (mu - 1,) in b.data}
    return Connection(chart, gammas)


def check_evolution(ham, table, connection, forms):
    """Verify h^*(d alpha) = d alpha + {alpha, H}_{sharp_n~} for the given
    Hamiltonian forms of degree <= n-1."""
    report = Report()
    structure = ham.structure
    w = table.apply(ham.dform)
    for label, alpha in forms:
        dalpha = require_extj_left(alpha, structure, table.j)
        lhs = connection.pullback(dalpha)
        rhs = dalpha + bracket_formula(w, dalpha, ham.form, structure.n)
        ok = lhs == rhs
        report.add(
            f"evolution {label}",
            ok,
            "" if ok else f"h*(d alpha) = {render(lhs)} vs {render(rhs)}",
        )
    return report


def basic_constant_forms(chart, degree):
    """All constant-coefficient basic forms dx^I of the given degree."""
    out = []
    for idx in combinations(range(chart.n), degree):
        out.append(Form(chart, degree, {idx: scalars.ONE}, _normalized=True))
    return out


def is_special_hamiltonian(alpha, structure):
    """Special Hamiltonian: alpha ^ epsilon stays Hamiltonian for every
    closed basic (n-1-a)-form epsilon; constant-coefficient basic forms
    suffice because span membership is a module condition."""
    n = structure.n
    dalpha = require_hamiltonian(alpha, structure)
    for eps in basic_constant_forms(structure.chart, n - 1 - alpha.degree):
        if not structure.contains(n, wedge(dalpha, eps)):
            return False
    return True


def check_subalgebra_condition(alpha, u_alpha, structure):
    """The sufficient subalgebra condition: sharp_{a+1}(d alpha) = U mod K,
    and for every constant basic b-form epsilon there is a nonzero constant
    C with sharp_{a+b+1}(d alpha ^ epsilon) = C iota_epsilon U mod K."""
    report = Report()
    n = structure.n
    a = alpha.degree
    dalpha, rep = hamiltonian_sharp(alpha, structure)
    ok = rep.equiv(u_alpha)
    report.add(
        "sharp(d alpha) = U",
        ok,
        "" if ok else f"{rep!r} vs {render(u_alpha)}",
    )
    for b in range(1, n - 1 - a + 1):
        for eps in basic_constant_forms(structure.chart, b):
            label = f"epsilon={render(eps)}"
            target = wedge(dalpha, eps)
            iota_u = contract_form(eps, u_alpha)
            if target.is_zero():
                ok = structure.coset_is_zero(iota_u, n - a - b) if iota_u else True
                report.add(label, ok, "" if ok else "zero wedge, nonzero iota")
                continue
            coefficients = structure.span(a + b + 1).decompose(target)
            if coefficients is None:
                report.add(label, False, "d alpha ^ epsilon left the tower")
                continue
            rep2 = structure.sharp_from(a + b + 1, coefficients)
            c_val = _solve_constant(structure, rep2.rep, iota_u, n - a - b)
            ok = c_val is not None and c_val != 0
            report.add(
                label,
                ok,
                f"C = {render_scalar(c_val)}" if ok else "no nonzero constant matches",
            )
    return report


def _solve_constant(structure, rep, iota_u, p):
    """The scalar C with rep = C * iota_u modulo K_p, or None: the
    contractions with every S^p generator must agree: the pairing of rep
    is expressed by the one row, the pairing of iota_u."""
    row = structure.pairing(iota_u, p)
    coefficients = Echelon([row], sorted(row)).express(structure.pairing(rep, p))
    return None if coefficients is None else coefficients.get(0, scalars.ZERO)
