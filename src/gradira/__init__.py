"""gradira: exact symbolic computations with graded Dirac structures on
fibered coordinate charts.

The package constructs sharp-map families from a top-level span, computes
graded Poisson brackets and their extensions to forms of arbitrary degree,
verifies the structural axioms, derives Hamilton-De Donder-Weyl field
equations, and classifies special Hamiltonian forms.
"""

from .chart import Chart
from .errors import (
    ChartError,
    DegreeError,
    GradiraError,
    MapSpecError,
    MembershipError,
    NonPolynomialError,
    NotClosedError,
    NotHamiltonianError,
    NonWellDefinedError,
    ParseError,
    UndefinedScalarError,
)
from .forms import (
    Form,
    MultiVector,
    MvForm,
    contract,
    contract_form,
    contract_form_slot,
    identity_tensor,
    volume_contraction,
    volume_mv_contraction,
    wedge,
)
from .calculus import (
    exterior_derivative,
    lie_derivative,
    lie_derivative_mvform,
    poincare_primitive,
    schouten,
)
from .multiindex import kron_delta
from .linsolve import LinearSolution, solve_linear
from .spans import Span, annihilator
from .structure import (
    CosetRep,
    Structure,
    bracket,
    check_flatness_witnesses,
    deg_h,
    is_hamiltonian_form,
    verify_axioms,
    verify_fibered,
)
from .morphisms import (
    AffineEmbedding,
    SubmersionDrop,
    check_dirac_map,
    pullback,
    pushforward,
)
from .extensions import (
    ExtensionTable,
    bracket_ext1,
    bracket_extj,
    build_span_tower,
    compat_lower,
    sharp1_tilde,
    sharp_lowered,
    check_extension_properties,
)
from .dynamics import (
    Connection,
    Hamiltonian,
    Section,
    check_evolution,
    check_subalgebra_condition,
    gamma_H,
    hdw_residuals,
    is_hamiltonian,
    is_special_hamiltonian,
)
from .scenarios import (
    Scenario,
    canonical_extension_table,
    extended_canonical,
    reduced_canonical,
    scenario,
    yang_mills,
)
from .parser import parse_expression, parse_form, parse_multivector
from .render import render
from .report import Report
from .structfile import dump_scenario, load_structure_file

__version__ = "0.1.0"
