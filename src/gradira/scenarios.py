"""Built-in scenarios: the extended and reduced canonical structures of
multisymplectic field theory and the Yang-Mills constraint chart.

The reduced structure is built the way the theory constructs it: the
extended chart carries the Liouville potential, its differential induces
sharp_n through the musical isomorphism, and the quotient by the
semi-basic direction is a pushforward.  Yang-Mills starts from the
reduced structure over the connection coordinates and restricts to the
antisymmetric-momentum locus by an affine pullback.

The canonical chart layout (base x1..xn; fiber the fields, p on the
extended chart, then the momenta field by field) is written only in
``_canonical_chart`` and read only through ``_momentum``, by both
canonical builders, the Yang-Mills substitutions and the symmetric
extension table.  ``_momentum_sum`` builds each sum c du ^ d^{n-1}x_mu:
the Liouville part of theta, the canonical H and the Yang-Mills H.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import scalars
from .chart import Chart
from .errors import ChartError, GradiraError
from .forms import (Form, MultiVector, MvForm, _coordinate_contractions,
                    linear_combination, volume_contraction, wedge)
from .calculus import exterior_derivative
from .morphisms import AffineEmbedding, SubmersionDrop, pullback, pushforward
from .structure import Structure

__all__ = ["Scenario", "extended_canonical", "reduced_canonical", "yang_mills",
           "scenario"]


@dataclass
class Scenario:
    name: str
    structure: Structure
    params: dict
    hamiltonian_form: Form | None = None
    hamiltonian_generators: list = field(default_factory=list)
    extended: Structure | None = None
    ambient: Structure | None = None
    embedding: AffineEmbedding | None = None
    drop: SubmersionDrop | None = None
    structure_constants: dict | None = None

    @property
    def chart(self):
        return self.structure.chart


# The most horizontal coordinate forms a scenario's extended chart may
# have: (2^n - 1)(m - n + 1) on m coordinates, the coordinate a-forms with
# at most one fiber index over a = 1..n, which bound the rank of every
# level of a fibered tower.  The build time grows with it (2-CPU machine,
# reduced_canonical(n, k)): 0.3 s at 1,270 (n = 7), 0.8 s at 2,805
# (n = 8), 2.0 s at 6,132 (n = 9), 4.8 s at 13,299 (n = 10), and 3.6 s at
# 5,001 (n = 2, k = 555).  yang_mills(3, "su2") has 266.
MAX_SCENARIO_FORMS = 5_000


def _check_size(n, k):
    """Refuse a scenario of order n with k fields, whose extended chart has
    m = n + k(n + 1) + 1 coordinates, above ``MAX_SCENARIO_FORMS``, before
    anything is built.  Past n = MAX_SCENARIO_FORMS.bit_length(), 2^n - 1
    alone exceeds the budget and m - n + 1 >= 2, so 2^n is not formed."""
    if n < 1:
        return  # the chart refuses it
    m = n + max(k, 0) * (n + 1) + 1
    if n <= MAX_SCENARIO_FORMS.bit_length():
        size = (2 ** n - 1) * (m - n + 1)
        if size <= MAX_SCENARIO_FORMS:
            return
        text = f"{size:,}"
    else:
        text = f"(2^{n} - 1) * {m - n + 1:,}"
    raise ChartError(f"the scenario has {text} horizontal coordinate forms (order {n}, "
                     f"{m:,} coordinates), more than {MAX_SCENARIO_FORMS:,}")


def _canonical_chart(n, fields, momentum_name):
    """The extended canonical chart, in the layout of the module docstring.
    ``SubmersionDrop`` of p keeps the order, so ``_momentum`` reads the
    extended and the reduced chart alike."""
    base = [f"x{mu}" for mu in range(1, n + 1)]
    momenta = [momentum_name(u, mu) for u in fields for mu in range(1, n + 1)]
    return Chart(base=base, fiber=list(fields) + ["p"] + momenta)


def _momentum(chart, fields, u, mu):
    """The momentum coordinate of field u along x^mu on a canonical chart:
    the momenta are the last len(fields) * n fiber coordinates."""
    n = chart.n
    momenta = chart.coords[chart.m - n * len(fields):]
    return momenta[fields.index(u) * n + mu - 1]


def _momentum_sum(chart, terms):
    """sum c du ^ d^{n-1}x_mu over the (c, u, mu) triples of ``terms``."""
    return linear_combination(
        ((c, wedge(Form.d_coord(chart, u), volume_contraction(chart, [mu - 1])))
         for c, u, mu in terms),
        Form.zero(chart, chart.n))


def extended_canonical(n, k=1, fields=None, momentum_name=None):
    """The multisymplectic chart of (n-1)-horizontal n-forms with the
    structure induced by the canonical multisymplectic form."""
    _check_size(n, k if fields is None else len(fields))
    if fields is None:
        fields = [f"y{i}" for i in range(1, k + 1)]
    if momentum_name is None:
        momentum_name = lambda u, mu: f"p{mu}_{u[1:]}"
    chart = _canonical_chart(n, fields, momentum_name)
    theta = Form.scalar_form(chart, chart.sym("p")) * volume_contraction(chart, [])
    theta = theta + _momentum_sum(chart, [
        (chart.sym(_momentum(chart, fields, u, mu)), u, mu)
        for u in fields for mu in range(1, n + 1)])
    omega = -exterior_derivative(theta)
    flats = _coordinate_contractions(omega.data)  # iota_{@/x^i} omega
    if len(flats) < chart.m:
        raise ChartError("canonical multisymplectic form is degenerate?")
    gens = [Form(chart, n, flats[i], _normalized=True) for i in range(chart.m)]
    values = [MultiVector.coord_vector(chart, name) for name in chart.coords]
    structure = Structure(chart, gens, values)
    return Scenario(
        name="extended-canonical",
        structure=structure,
        params={"n": n, "fields": list(fields)},
    )


def reduced_canonical(n, k=1, fields=None, momentum_name=None, declare_h=True):
    """The quotient of the extended canonical structure by the semi-basic
    direction, with the canonical Hamiltonian H d^n x - p dy ^ d^{n-1}x."""
    ext = extended_canonical(n, k, fields, momentum_name)
    fields = ext.params["fields"]
    drop = SubmersionDrop(ext.chart, ["p"])
    structure = pushforward(ext.structure, drop)
    chart = structure.chart
    vol = lambda mu: volume_contraction(chart, [mu - 1])
    p = lambda u, mu: chart.sym(_momentum(chart, fields, u, mu))
    ham = None
    if declare_h:
        ham = Form.scalar_form(chart, chart.declare_function("H")) * volume_contraction(chart, [])
        ham = ham - _momentum_sum(chart, [(p(u, mu), u, mu)
                                          for u in fields for mu in range(1, n + 1)])
    gens = [(f"{u} dX[{mu}]", Form.scalar_form(chart, chart.sym(u)) * vol(mu))
            for u in fields for mu in range(1, n + 1)]
    gens += [(f"p^mu_{u} dX[mu]",
              linear_combination([(p(u, mu), vol(mu)) for mu in range(1, n + 1)],
                                 Form.zero(chart, n - 1)))
             for u in fields]
    gens += [(f"dX[{mu}]", vol(mu)) for mu in range(1, n + 1)]
    return Scenario(
        name="reduced-canonical",
        structure=structure,
        params={"n": n, "fields": list(fields)},
        hamiltonian_form=ham,
        hamiltonian_generators=gens,
        extended=ext.structure,
        drop=drop,
    )


def _structure_constants(algebra, dim):
    if algebra == "abelian":
        return {}, dim
    if algebra == "su2":
        eps = {}
        for i, j, k in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
            eps[(i, j, k)] = 1
            eps[(i, k, j)] = -1
        return eps, 3
    raise ChartError(f"unsupported algebra {algebra!r}")


def _check_lie_algebra(f):
    """Antisymmetry and Jacobi of the nonzero structure constants
    f[(k, i, j)] = c^k_{ij}, over their products only: c(m, x, l) c(l, y, z)
    is a term of the Jacobi sum sum_l c(m, i, l) c(l, j, k) + (cyclic in
    i, j, k) at (i, j, k) = (x, y, z), (z, x, y) and (y, z, x)."""
    for (k, i, j), c in f.items():
        if c + f.get((k, j, i), 0):
            raise ChartError("structure constants are not antisymmetric")
    jacobi = {}
    for (m, x, l), c in f.items():
        for (l2, y, z), c2 in f.items():
            if l2 == l:
                for key in ((x, y, z, m), (z, x, y, m), (y, z, x, m)):
                    jacobi[key] = jacobi.get(key, 0) + c * c2
    if any(jacobi.values()):
        raise ChartError("structure constants violate Jacobi")


def yang_mills(n=3, algebra="su2", dim=1, signature=None):
    """The Yang-Mills constraint chart: reduced canonical structure over
    the connection coordinates A^i_mu restricted to the antisymmetric
    momentum locus, with the Yang-Mills Hamiltonian."""
    f, dim = _structure_constants(algebra, dim if algebra == "abelian" else 3)
    _check_size(n, dim * n)
    _check_lie_algebra(f)
    c = lambda i, j, k: f.get((i, j, k), 0)
    if signature is None:
        signature = tuple(1 for _ in range(n))
    if len(signature) != n or any(s not in (1, -1) for s in signature):
        raise ChartError("signature must be +-1 diagonal of length n")

    fields = [f"A{i}_{mu}" for i in range(1, dim + 1) for mu in range(1, n + 1)]

    def momentum_name(u, mu):
        i, fmu = u[1:].split("_")
        return f"p{fmu}{mu}_{i}"

    ambient = reduced_canonical(n, fields=fields, momentum_name=momentum_name,
                                declare_h=False).structure
    pts = [
        f"pt{mu}{nu}_{i}"
        for i in range(1, dim + 1)
        for mu in range(1, n + 1)
        for nu in range(mu + 1, n + 1)
    ]
    chart = Chart(base=list(ambient.chart.base_coords), fiber=fields + pts)

    def pt(mu, nu, i):
        """ptilde^{mu nu}_i with the antisymmetry convention baked in."""
        if mu == nu:
            return scalars.ZERO
        if mu < nu:
            return chart.sym(f"pt{mu}{nu}_{i}")
        return -chart.sym(f"pt{nu}{mu}_{i}")

    indices = [(i, mu, nu) for i in range(1, dim + 1)
               for mu in range(1, n + 1) for nu in range(1, n + 1)]
    emb = AffineEmbedding(ambient.chart, chart, {
        _momentum(ambient.chart, fields, f"A{i}_{mu}", nu): pt(mu, nu, i)
        for i, mu, nu in indices})
    structure = pullback(ambient, emb)

    # H = (-1/4 pt^{mu nu}_i pt^i_{mu nu} + 1/2 f^i_{jk} pt^{mu nu}_i A^j_mu A^k_nu) d^n x
    #     - pt^{mu nu}_i dA^i_mu ^ d^{n-1}x_nu          (flat metric, sqrt|g| = 1)
    # The f-term index order is the curvature-convention pin: it makes the
    # bracket-generated equations of motion read
    #   dA^i_mu/dx^nu - dA^i_nu/dx^mu = -pt^i_{mu nu} + f^i_{jk} A^j_mu A^k_nu.
    h_scal = scalars.ZERO
    for i, mu, nu in indices:
        lowered = signature[mu - 1] * signature[nu - 1] * pt(mu, nu, i)
        h_scal += -Fraction(1, 4) * pt(mu, nu, i) * lowered
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                h_scal += (
                    Fraction(1, 2)
                    * c(i, j, k)
                    * pt(mu, nu, i)
                    * chart.sym(f"A{j}_{mu}")
                    * chart.sym(f"A{k}_{nu}")
                )
    ham = Form.scalar_form(chart, h_scal) * volume_contraction(chart, [])
    ham = ham - _momentum_sum(chart, [(pt(mu, nu, i), f"A{i}_{mu}", nu)
                                      for i, mu, nu in indices])

    vol = lambda mu: volume_contraction(chart, [mu - 1])
    A = lambda i, mu: Form.scalar_form(chart, chart.sym(f"A{i}_{mu}"))
    gens = [(f"A{i}_[{mu}|{nu}]", A(i, mu) * vol(nu) - A(i, nu) * vol(mu))
            for i, mu, nu in indices if mu < nu]
    gens += [(f"pt{mu}._{i}",
              linear_combination([(pt(mu, nu, i), vol(nu)) for nu in range(1, n + 1)],
                                 Form.zero(chart, n - 1)))
             for i in range(1, dim + 1) for mu in range(1, n + 1)]
    return Scenario(
        name="yang-mills",
        structure=structure,
        params={"n": n, "algebra": algebra, "dim": dim, "signature": tuple(signature)},
        hamiltonian_form=ham,
        hamiltonian_generators=gens,
        ambient=ambient,
        embedding=emb,
        structure_constants=f,
    )


def canonical_extension_table(scn, style="symmetric"):
    """An admissible vertical-valued extension table at level n for the
    reduced canonical scenario.

    style='symmetric' (reduced-canonical only; GradiraError on another
    scenario): the symmetric-trace values
        dy^j ^ d^n x        -> 1/n dx^mu (x) d/dp^mu_j
        dp^a_j ^ d^n x      -> -dx^a (x) d/dy^j          (pairing-fixed sign)
        dy^j ^ dp^mu_k ^ d^{n-1}x_mu -> dy^j (x) d/dy^k + dp^mu_k (x) d/dp^mu_j
    style='solved': ``extensions.default_table``, the lexicographically-pivoted
    minimal-support solve, on any scenario.
    Both are verified against the defining pairing at construction.
    """
    from .extensions import ExtensionTable, default_table

    structure = scn.structure
    if style == "solved":
        return default_table(structure)
    if scn.name != "reduced-canonical":
        raise GradiraError(f"the symmetric extension table serves the reduced-canonical "
                           f"scenario, not {scn.name}")
    chart = structure.chart
    n = structure.n
    fields = scn.params["fields"]
    momentum = lambda u, mu: _momentum(chart, fields, u, mu)
    d = lambda name: Form.d_coord(chart, name)
    tensor = lambda a, b: MvForm.tensor(d(a), MultiVector.coord_vector(chart, b))
    zero = MvForm.zero(chart, 1, 1)
    vol = volume_contraction(chart, [])
    mus = range(1, n + 1)
    entries = []
    for u in fields:
        value = linear_combination(
            [(Fraction(1, n), tensor(f"x{mu}", momentum(u, mu))) for mu in mus], zero)
        entries.append((wedge(d(u), vol), value))
    for u in fields:
        for mu in mus:
            entries.append((wedge(d(momentum(u, mu)), vol), -tensor(f"x{mu}", u)))
    for u in fields:
        for w in fields:
            theta = wedge(d(u), _momentum_sum(chart, [(1, momentum(w, mu), mu) for mu in mus]))
            value = linear_combination(
                [(1, tensor(u, w))]
                + [(1, tensor(momentum(w, mu), momentum(u, mu))) for mu in mus], zero)
            entries.append((theta, value))
    return ExtensionTable(structure, n, entries,
                          freedom=structure.pairing_system(n + 1, n, vertical=True).freedom)


def scenario(name, **params):
    """Factory used by the CLI: extended-canonical, reduced-canonical,
    yang-mills."""
    if name == "extended-canonical":
        return extended_canonical(params.get("n", 2), params.get("fields", 1))
    if name == "reduced-canonical":
        return reduced_canonical(params.get("n", 2), params.get("fields", 1))
    if name == "yang-mills":
        return yang_mills(
            params.get("n", 3),
            params.get("algebra", "su2"),
            dim=params.get("fields", 1),
            signature=params.get("signature"),
        )
    raise ChartError(f"unknown scenario {name!r}")
