"""Exception hierarchy for the gradira engine."""


class GradiraError(Exception):
    """Base class for all errors raised by this package."""


class UndefinedScalarError(GradiraError):
    """A value outside the coefficient field: a division by zero, or an
    expression that is not a rational function with rational coefficients
    (zoo, nan, floats, sqrt(2)); exactness admits no such values."""


class ChartError(GradiraError):
    """Bad chart data: duplicate names, unknown coordinate, role mismatch."""


class DegreeError(GradiraError):
    """Degree bookkeeping violation (overflow, length mismatch, ...)."""


class MembershipError(GradiraError):
    """A form or multivector is not a member of the span it must lie in."""


class NotHamiltonianError(GradiraError):
    """An operation required a Hamiltonian form and did not get one."""


class NonWellDefinedError(GradiraError):
    """A sharp map value depends on the chosen decomposition; the input
    data does not define a graded Dirac structure."""


class NotClosedError(GradiraError):
    """poincare_primitive was applied to a non-closed form."""


class NonPolynomialError(GradiraError):
    """An operation restricted to polynomial coefficients met a fraction
    or a formal function symbol."""


class MapSpecError(GradiraError):
    """A pushforward/pullback condition failed; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ParseError(GradiraError):
    """Syntax or semantic error in the expression grammar.

    Carries 1-based line/column of the first offending token.
    """

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
