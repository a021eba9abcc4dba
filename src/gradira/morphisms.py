"""Structure-preserving maps: quotient by a fiber-coordinate drop and
restriction to an affine submanifold in adapted coordinates.

Both constructions work at level n (a graded Dirac structure is determined
by its top level) and rebuild the lower tower on the new chart.
"""

from __future__ import annotations

from . import scalars
from .chart import Chart
from .errors import ChartError, MapSpecError
from .calculus import exterior_derivative
from .forms import (Form, MultiVector, _full_contraction, linear_combination,
                    substitute_differentials)
from .linsolve import nullspace
from .render import render
from .report import Report
from .spans import Span, generator_echelon
from .structure import Structure, bracket, is_hamiltonian_form

__all__ = ["SubmersionDrop", "AffineEmbedding", "pushforward", "pullback",
           "check_dirac_map"]


class SubmersionDrop:
    """The projection forgetting some fiber coordinates of a chart."""

    def __init__(self, source_chart, dropped):
        self.source_chart = source_chart
        self.dropped = tuple(dropped)
        for name in self.dropped:
            if source_chart.index(name) < source_chart.n:
                raise ChartError(f"cannot drop base coordinate {name!r}")
        kept_fiber = [c for c in source_chart.fiber_coords if c not in self.dropped]
        if len(kept_fiber) != len(source_chart.fiber_coords) - len(self.dropped):
            raise ChartError("dropped coordinates must be distinct fiber coordinates")
        self.target_chart = Chart(base=source_chart.base_coords, fiber=kept_fiber)
        for fname, args in source_chart.functions.items():
            if not set(args) & set(self.dropped):
                self.target_chart.declare_function(fname, args)
        self._to_source = tuple(
            source_chart.index(c) for c in self.target_chart.coords
        )
        self._from_source = {j: i for i, j in enumerate(self._to_source)}
        self._dropped_idx = tuple(source_chart.index(c) for c in self.dropped)
        self._dropped = set(self.dropped)

    def pull_form(self, form):
        """Injection of a target-chart form into the source chart."""
        data = {
            tuple(self._to_source[i] for i in idx): c for idx, c in form.data.items()
        }
        return Form(self.source_chart, form.degree, data)

    def push_vector(self, vec):
        """d(pi) applied to a source vector field; kept components must not
        involve the dropped coordinates."""
        data = {}
        for (i,), c in vec.data.items():
            if i in self._dropped_idx:
                continue
            if not self._dropped.isdisjoint(c.generators):
                raise MapSpecError(
                    f"pushed sharp value depends on dropped coordinates: {render(vec)}",
                    witness=vec,
                )
            data[(self._from_source[i],)] = c
        return MultiVector(self.target_chart, 1, data)

    def restrict_form(self, form):
        """Re-express a source form with no dropped content on the target chart."""
        data = {}
        for idx, c in form.data.items():
            if any(i in self._dropped_idx for i in idx):
                raise MapSpecError(
                    f"form {render(form)} has components along dropped coordinates",
                    witness=form,
                )
            if not self._dropped.isdisjoint(c.generators):
                raise MapSpecError(
                    f"coefficients of {render(form)} depend on dropped coordinates",
                    witness=form,
                )
            data[tuple(self._from_source[i] for i in idx)] = c
        return Form(self.target_chart, form.degree, data)


class AffineEmbedding:
    """An affine submanifold in adapted coordinates.

    ``substitutions`` expresses every ambient coordinate as an affine
    expression in the adapted coordinates (identity entries may be
    omitted for shared names).
    """

    def __init__(self, ambient_chart, adapted_chart, substitutions):
        self.source_chart = adapted_chart  # N, the domain of the embedding
        self.target_chart = ambient_chart  # M
        allowed = set(adapted_chart.coords)
        subs = {}
        for name in ambient_chart.coords:
            # an omitted name must be an adapted coordinate (sym raises)
            value = scalars.as_scalar(substitutions[name] if name in substitutions
                                      else adapted_chart.sym(name))
            if not allowed.issuperset(value.generators):
                raise ChartError(f"substitution for {name} uses unknown symbols")
            if not scalars.is_polynomial(value, adapted_chart) or any(
                    sum(exps) > 1 for _, exps in scalars.poly_monomials(value, adapted_chart)):
                raise ChartError(f"substitution for {name} is not affine")
            subs[name] = value
        self.substitutions = subs
        for fname, args in ambient_chart.functions.items():
            mapped = [scalars.generator_name(subs[a]) for a in args]
            if (all(m in adapted_chart.coords for m in mapped)
                    and fname not in adapted_chart.functions):
                adapted_chart.declare_function(fname, mapped)
        # d(ambient coord) = sum_j (d expr / d adapted_j) d(adapted_j), constant
        self._jacobian = {ambient_chart.index(name): scalars.diff(value, adapted_chart)
                          for name, value in subs.items()}
        self._images = {name: value for name, value in subs.items()
                        if value != ambient_chart.sym(name)}

    def restrict_scalar(self, value):
        return scalars.substitute(value, self._images)

    def pull_form(self, form):
        """i^* of an ambient form: substitute coefficients and expand each
        ambient differential through the constant Jacobian."""
        return substitute_differentials(
            form, self.source_chart, self.restrict_scalar,
            lambda i: Form(self.source_chart, 1,
                           {(j,): v for j, v in self._jacobian[i].items()}),
        )

    def constraint_functions(self):
        """Affine functions on the ambient chart vanishing on the image."""
        m = self.target_chart.m
        # unknowns: lambda_i per ambient coordinate plus a constant
        unknowns = list(range(m + 1))
        rows = {}
        for i, name in enumerate(self.target_chart.coords):
            for coeff, exps in scalars.poly_monomials(self.substitutions[name],
                                                      self.source_chart):
                rows.setdefault(exps, {})[i] = coeff
        rows.setdefault(tuple([0] * self.source_chart.m), {})[m] = scalars.ONE
        basis = nullspace(list(rows.values()), unknowns)
        out = []
        for vec in basis:
            phi = scalars.ZERO
            for i, c in vec.items():
                phi = phi + c * (self.target_chart.syms[i] if i < m else 1)
            out.append(phi)
        return out

    def tangent_pushforwards(self):
        """The images of the adapted coordinate vectors, as ambient vectors."""
        out = []
        for j in range(self.source_chart.m):
            data = {}
            for i, row in self._jacobian.items():
                if j in row:
                    data[(i,)] = row[j]
            out.append(MultiVector(self.target_chart, 1, data))
        return out


def pushforward(structure, spec):
    """Quotient structure under a fiber-coordinate drop; the symbolic
    fiber-independence checks carry a witness on failure."""
    if spec.source_chart != structure.chart:
        raise ChartError("drop spec chart mismatch")
    gens = structure.generators(structure.n)
    values = structure.sharp_values(structure.n)
    dropped_idx = set(spec._dropped_idx)
    # combinations with no component along a dropped differential
    keys = sorted({k for g in gens for k in g.data if set(k) & dropped_idx})
    rows = [{i: g.data[k] for i, g in enumerate(gens) if k in g.data} for k in keys]
    basis = nullspace(rows, list(range(len(gens))))
    new_gens = []
    new_vals = []
    for vec in basis:
        form = linear_combination(((c, gens[i]) for i, c in vec.items()),
                                  Form.zero(structure.chart, structure.n))
        value = linear_combination(((c, values[i]) for i, c in vec.items()),
                                   MultiVector.zero(structure.chart, 1))
        new_gens.append(spec.restrict_form(form))
        new_vals.append(spec.push_vector(value))
    return Structure(spec.target_chart, new_gens, new_vals)


def pullback(structure, spec):
    """Restriction to an affine submanifold: generators with sharp value
    tangent to the image, pulled back, with sharp re-expressed in the
    adapted chart (modulo the ambient K_1 when it is nonzero)."""
    if spec.target_chart != structure.chart:
        raise ChartError("embedding chart mismatch")
    n = structure.n
    gens = structure.generators(n)
    values = structure.sharp_values(n)
    constraints = spec.constraint_functions()
    # unknowns: a coefficient per sharp value and, when K_1 is nonzero
    # (S^1 has rank below m), per K_1 generator
    vectors = {("f", i): v for i, v in enumerate(values)}
    if len(structure.span(1).echelon.pivots) < structure.chart.m:
        vectors.update((("k", l), kv)
                       for l, kv in enumerate(structure.annihilator_span(1)))
    # a row per constraint phi: d phi (v) restricted to the image, per v
    rows = []
    for phi in constraints:
        dphi = exterior_derivative(Form.scalar_form(structure.chart, phi)).data
        coeffs = {}
        for key, v in vectors.items():
            value = _full_contraction(v.data, dphi)
            if value and (acc := spec.restrict_scalar(value[()])):
                coeffs[key] = acc
        if coeffs:
            rows.append(coeffs)
    basis = nullspace(rows, list(vectors))
    # the tangent matrix, eliminated once: row j is the push of the j-th
    # adapted coordinate vector
    pushed = spec.tangent_pushforwards()
    tangent = generator_echelon(pushed)
    new_gens = []
    new_vals = []
    for vec in basis:
        if all(key[0] != "f" for key in vec):
            continue
        value = linear_combination(((c, vectors[key]) for key, c in vec.items()),
                                   MultiVector.zero(structure.chart, 1))
        form = linear_combination(((c, gens[i]) for (kind, i), c in vec.items()
                                   if kind == "f"), Form.zero(structure.chart, n))
        pulled = spec.pull_form(form)
        if pulled.is_zero():
            continue
        new_gens.append(pulled)
        new_vals.append(_express_tangent(spec, tangent, value))
    kept = Span(spec.source_chart, n, new_gens).reduced()[1]
    new_gens = [new_gens[i] for i in kept]
    new_vals = [new_vals[i] for i in kept]
    return Structure(spec.source_chart, new_gens, new_vals)


def _express_tangent(spec, tangent, value):
    """Solve push(W) = value (restricted to the image) for an adapted-chart
    vector W; the solution is unique since the embedding is injective."""
    coefficients = tangent.express({key: spec.restrict_scalar(c)
                                    for key, c in value.data.items()})
    if coefficients is None:
        raise MapSpecError(
            f"sharp value {render(value)} is not tangent to the embedding",
            witness=value,
        )
    data = {(j,): c for j, c in coefficients.items()}
    return MultiVector(spec.source_chart, 1, data)


def check_dirac_map(spec, source, target, samples):
    """Verify {f^* alpha, f^* beta} = f^* {alpha, beta} on sampled pairs of
    Hamiltonian forms living on the target structure."""
    report = Report()
    for k, (alpha, beta) in enumerate(samples):
        pa = spec.pull_form(alpha)
        pb = spec.pull_form(beta)
        if not (is_hamiltonian_form(pa, source) and is_hamiltonian_form(pb, source)):
            report.add(f"dirac-map pair {k}", False, "pullback is not Hamiltonian")
            continue
        lhs = bracket(pa, pb, source)
        rhs = spec.pull_form(bracket(alpha, beta, target))
        ok = lhs == rhs
        report.add(
            f"dirac-map pair {k}",
            ok,
            "" if ok else f"residual {render(lhs - rhs)}",
        )
    return report
