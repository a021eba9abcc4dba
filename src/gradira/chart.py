"""Fibered coordinate charts.

A chart is an ordered list of coordinate names, base coordinates first,
together with a table of declared formal function symbols.  Formal
functions are opaque scalars with a declared argument list.  Their formal
partials are derived names, not table entries: ``H__y1`` is d(H)/d(y1),
with the arguments of ``H``, and mixed partials sort the differentiation
coordinates (``H__x1__y1``), so each partial has one name.  Every name is
the name of a scalar generator (``scalars.generator``).  That takes
names with no ``__`` inside and no trailing ``_``: ``h_`` would give
``h___y1``, which splits as ``h``, ``_y1``.  The table holds
only what was declared, so no computation changes a chart.
"""

from __future__ import annotations

from . import scalars

BASE = "base"
FIBER = "fiber"

_PARTIAL_SEP = "__"

from .errors import ChartError


def _check_name(kind, name):
    """A coordinate or function name is an identifier with no ``__`` inside
    and no trailing ``_`` (see the module docstring)."""
    if not name.isidentifier():
        raise ChartError(f"{kind} name {name!r} is not an identifier")
    if _PARTIAL_SEP in name:
        raise ChartError(f"{kind} name {name!r} may not contain {_PARTIAL_SEP!r}")
    if name.endswith("_"):
        raise ChartError(f"{kind} name {name!r} may not end in '_'")


class Chart:
    """A single fibered coordinate chart over an n-dimensional base."""

    def __init__(self, base, fiber):
        base = tuple(base)
        fiber = tuple(fiber)
        names = base + fiber
        if len(set(names)) != len(names):
            raise ChartError(f"duplicate coordinate names in {names}")
        if not base:
            raise ChartError("need at least one base coordinate")
        for name in names:
            _check_name("coordinate", name)
        self.coords = names
        self.n = len(base)
        self.m = len(names)
        self.syms = tuple(scalars.generator(c) for c in names)
        self._index = {c: i for i, c in enumerate(names)}
        # function symbol name -> tuple of argument coordinate names
        self.functions: dict[str, tuple[str, ...]] = {}

    # -- coordinates -------------------------------------------------------

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ChartError(f"unknown coordinate {name!r}") from None

    def sym(self, name):
        return self.syms[self.index(name)]

    @property
    def base_coords(self):
        return self.coords[: self.n]

    @property
    def fiber_coords(self):
        return self.coords[self.n :]

    # -- formal functions --------------------------------------------------

    def declare_function(self, name, args=None):
        """Register a formal function symbol and return its generator.

        ``args`` defaults to all chart coordinates.  Re-declaration with the
        same argument list is a no-op.
        """
        if args is None:
            args = self.coords
        args = tuple(args)
        for a in args:
            self.index(a)
        if name in self._index:
            raise ChartError(f"{name!r} is already a coordinate")
        _check_name("function", name)
        prev = self.functions.get(name)
        if prev is not None and prev != args:
            raise ChartError(f"function {name!r} re-declared with different arguments")
        self.functions[name] = args
        return scalars.generator(name)

    def function_args(self, name):
        """The arguments of a declared function or of one of its formal
        partials, named with sorted differentiation coordinates
        (``H__p1_1__x1``); None for any other name."""
        base, *diffs = name.split(_PARTIAL_SEP)
        args = self.functions.get(base)
        if args is None or diffs != sorted(diffs) or not set(diffs) <= set(args):
            return None
        return args

    def partial_name(self, fname, coord):
        """The name of the formal partial of a function or partial
        ``fname`` along ``coord``, or None when it does not depend on
        ``coord``."""
        if coord not in (self.function_args(fname) or ()):
            return None
        base, *diffs = fname.split(_PARTIAL_SEP)
        return _PARTIAL_SEP.join([base] + sorted(diffs + [coord]))

    def partial_symbol(self, fname, coord):
        """The generator of ``partial_name``, or None."""
        name = self.partial_name(fname, coord)
        return None if name is None else scalars.generator(name)

    def __repr__(self):
        return f"Chart(base={list(self.base_coords)}, fiber={list(self.fiber_coords)})"

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.coords == other.coords
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.coords, self.n))
