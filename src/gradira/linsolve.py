"""Exact linear algebra over the scalar field.

Unknowns are arbitrary hashable keys with a caller-supplied canonical
order.  Formal function symbols and their partials ride along as
indeterminates of the coefficient field, so every solve is exact.

``Echelon`` is the one Gaussian elimination, built once per coefficient
matrix.  Rows are taken in order, and each pivots on its first rational
column in canonical order (else its first column).  It answers two
questions: ``solve`` a right-hand side over the rows, whose particular
solution sets free unknowns to zero, and ``express`` one more row as a
combination of the rows, which is zero on the rows that reduced to zero.
``independent`` re-keys it to the rows that did not reduce to zero.
``Components`` splits a sparse matrix into the connected components of
its rows, finding each one, from a dict of rows or a row and a column
function, and giving it an ``Echelon`` on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import scalars
from .scalars import as_scalar


@dataclass
class LinearSolution:
    """Affine solution set of a linear system: particular + kernel basis."""

    particular: dict
    kernel: list = field(default_factory=list)


def _eliminate(row, combo, col, prow, pcombo):
    """Clear column ``col`` of a row with the pivot row (prow, pcombo),
    which holds 1 at ``col``; the row's combination follows along."""
    factor = scalars.sneg(row[col])
    for target, source in ((row, prow), (combo, pcombo)):
        for k, v in source.items():
            scalars.accumulate(target, k, scalars.smul(factor, v))


def _combine(combo, rhs):
    """sum_r combo[r] * rhs[r] over the rows r of a combination."""
    acc = scalars.ZERO
    for r, c in combo.items():
        if r in rhs:
            acc = scalars.sadd(acc, scalars.smul(c, rhs[r]))
    return acc


class Echelon:
    """The reduced row echelon form of a coefficient matrix.

    ``rows`` maps row keys to coefficient dicts (a list is keyed by
    position); ``unknowns`` is the canonical column order.  Each pivot row
    carries the combination of input rows it came from; a row that
    reduces to zero is kept in ``dependent`` with the vanishing
    combination, which a right-hand side must satisfy.
    """

    def __init__(self, rows, unknowns):
        self.unknowns = list(unknowns)
        order = {u: i for i, u in enumerate(self.unknowns)}
        self.pivots = {}  # pivot column -> (row, combination of input rows)
        self.dependent = {}  # row key -> combination of input rows that is 0
        self.row_keys = {}  # row key -> its position among the input rows
        holders = {}  # non-pivot column -> pivot columns whose rows hold it
        for key, coeffs in rows.items() if isinstance(rows, dict) else enumerate(rows):
            self.row_keys[key] = len(self.row_keys)
            row = {c: v for c, v in ((c, as_scalar(v)) for c, v in coeffs.items()) if v}
            combo = {key: scalars.ONE}
            # pivot rows are kept fully reduced, so eliminating one pivot
            # column brings in no other: one pass over the row suffices
            for col in [c for c in row if c in self.pivots]:
                _eliminate(row, combo, col, *self.pivots[col])
            if not row:
                self.dependent[key] = combo
                continue
            cols = sorted(row, key=order.get)
            pivot = next((c for c in cols if row[c].is_rational), cols[0])
            inv = scalars.sdiv(scalars.ONE, row[pivot])
            row = {c: scalars.smul(inv, v) for c, v in row.items()}
            combo = {r: scalars.smul(inv, v) for r, v in combo.items()}
            # back-substitute into exactly the pivot rows that hold the new
            # pivot column; each gains or loses only the new row's columns
            for pcol in holders.pop(pivot, ()):
                prow, pcombo = self.pivots[pcol]
                held = {c for c in row if c in prow}
                _eliminate(prow, pcombo, pivot, row, combo)
                for c in row:
                    if c == pivot or (c in held) == (c in prow):
                        continue
                    if c in prow:
                        holders.setdefault(c, []).append(pcol)
                    else:
                        holders[c].remove(pcol)
            for c in row:
                if c != pivot:
                    holders.setdefault(c, []).append(pivot)
            self.pivots[pivot] = (row, combo)

    @cached_property
    def kernel(self):
        """Kernel basis: one vector per free unknown, in canonical order.
        Pivot rows are fully reduced, so every column of one but its pivot
        is free; one pass over the pivot rows files their entries by free
        column, in pivot order."""
        held = {}
        for pcol, (prow, _) in self.pivots.items():
            for c, v in prow.items():
                if c != pcol:
                    held.setdefault(c, []).append((pcol, scalars.sneg(v)))
        out = []
        for free in (u for u in self.unknowns if u not in self.pivots):
            vec = {free: scalars.ONE}
            vec.update(held.get(free, ()))
            out.append(vec)
        return out

    def solve(self, rhs):
        """The particular solution {pivot column: nonzero value}, free
        unknowns zero, for a right-hand side keyed like the rows (absent
        keys are 0), or None when the system is inconsistent.  The kernel
        is not built; ``solve_linear`` attaches it."""
        rhs = {k: v for k, v in ((k, as_scalar(v)) for k, v in rhs.items()) if v}
        if not rhs.keys() <= self.row_keys.keys() or any(
                _combine(combo, rhs) for combo in self.dependent.values()):
            return None
        values = {col: _combine(combo, rhs) for col, (_, combo) in self.pivots.items()}
        return {col: v for col, v in values.items() if v}

    def independent(self):
        """The elimination of the rows not in ``dependent``, keyed by their
        positions among those rows: the same pivots, rows and combinations
        with the combinations renumbered, since no dependent row enters a
        pivot's combination and a dependent row changes no pivot row."""
        position = {k: i for i, k in enumerate(k for k in self.row_keys
                                               if k not in self.dependent)}
        out = object.__new__(type(self))
        out.unknowns = self.unknowns
        out.pivots = {col: (row, {position[r]: v for r, v in combo.items()})
                      for col, (row, combo) in self.pivots.items()}
        out.dependent = {}
        out.row_keys = {i: i for i in position.values()}
        return out

    def express(self, row):
        """Coefficients {row key: c}, in row order, with sum_r c * row_r =
        ``row``, or None when ``row`` is not a combination of the rows.

        The target is reduced as one more row.  Pivot rows are fully
        reduced, so each pivot column of the target, holding v, clears with
        v times its own pivot row and brings in no other: the target is a
        combination iff what those rows reach off their pivots equals its
        non-pivot part, and then it is the sum of v times the pivot rows'
        combinations.  No dependent row enters a pivot's combination, so
        the coefficients are zero on ``dependent``."""
        rest, hits = {}, []
        for c, v in row.items():
            v = as_scalar(v)
            if not v:
                continue
            if c in self.pivots:
                hits.append((c, v))
            else:
                rest[c] = v
        reached = {}
        for col, v in hits:
            for c, x in self.pivots[col][0].items():
                if c != col:
                    scalars.accumulate(reached, c, scalars.smul(v, x))
        if reached != rest:
            return None
        coefficients = {}
        for col, v in hits:
            for r, x in self.pivots[col][1].items():
                scalars.accumulate(coefficients, r, scalars.smul(v, x))
        return {r: coefficients[r] for r in sorted(coefficients, key=self.row_keys.get)}


class Components:
    """A sparse coefficient matrix split into the connected components of
    its rows, two rows being linked when they share an unknown.  A
    component is found, its rows built, the first time one of its row keys
    is asked for, and eliminated by its own ``Echelon`` the first time a
    right-hand side or the kernel needs it; both are kept.

    ``rows`` is a dict {row key: {unknown: coefficient}}, or, given with
    ``column``, a function building the row of a key (None when no row
    has it); ``column(u)`` builds the column {row key: coefficient} of
    unknown u.  ``unknowns`` is the canonical column order.  Row keys and
    unknowns are taken in sorted order, which must be that of the dict and
    of ``unknowns``.  An ``Echelon`` reduces a row only by pivots whose
    columns the row holds, so elimination never crosses components, and
    each component takes its rows and unknowns in the joint order.  So its
    pivots, kernel vectors (key order included) and particular values are
    those of one ``Echelon(rows, unknowns)``.
    """

    def __init__(self, rows, unknowns, column=None):
        if column is None:  # a dict: index its columns in one pass
            columns = {}
            for r, coeffs in rows.items():
                for u, c in coeffs.items():
                    columns.setdefault(u, {})[r] = c
            rows, column = rows.get, lambda u: columns.get(u, {})
        self.unknowns = list(unknowns)
        self._row, self._column = rows, column
        self._found = {}  # row key -> its coefficients, for the rows found
        self._component = {}  # row key -> component number, for the rows found
        self._held = set()  # the unknowns of the components found
        self._blocks = []  # (rows, unknowns) of each component, in the order found
        self._echelons = {}  # component number -> its Echelon, once needed

    def _label(self, key):
        """The number of the component holding row ``key``, or None when
        no row has the key."""
        if key in self._component:
            return self._component[key]
        row = self._row(key)
        return None if row is None else self._close({key: row}, set(), self._row, self._column)

    def _close(self, rows, held, row, column):
        """Close ``rows``, which hold every row of the unknowns in ``held``,
        over shared unknowns into a new component, ``row`` and ``column``
        giving each row and column it reaches once; its number."""
        stack = list(rows)
        while stack:
            for u in rows[stack.pop()]:
                if u not in held:
                    held.add(u)
                    for r in column(u):
                        if r not in rows:
                            rows[r] = row(r)
                            stack.append(r)
        label = len(self._blocks)
        self._found.update(rows)
        self._component.update(dict.fromkeys(rows, label))
        self._held.update(held)
        if len(rows) > 1:
            rows = {r: rows[r] for r in sorted(rows)}
        self._blocks.append((rows, sorted(held)))
        return label

    def _find_all(self):
        """Find every component that holds an unknown.  The columns of the
        unknowns in no component found yet are built in one pass, in
        ``unknowns`` order, and their rows put together from them, each
        entry once: a row holding one of those unknowns holds no other."""
        columns, rows = {}, {}
        for u in self.unknowns:
            if u not in self._held and (column := self._column(u)):
                columns[u] = column
                for r, c in column.items():
                    rows.setdefault(r, {})[u] = c
        for u, column in columns.items():
            if u not in self._held:
                self._close({r: rows[r] for r in column}, {u}, rows.__getitem__,
                            columns.__getitem__)

    def _echelon(self, label):
        """The elimination of one component, built on first use and kept."""
        if label not in self._echelons:
            self._echelons[label] = Echelon(*self._blocks[label])
        return self._echelons[label]

    @cached_property
    def rows(self):
        """Every row that holds an unknown, in key order."""
        self._find_all()
        return {r: self._found[r] for r in sorted(self._found)}

    @cached_property
    def kernel(self):
        """``Echelon.kernel`` of the whole matrix: every component is
        eliminated, and an unknown in no row is free on its own."""
        self._find_all()
        vectors, pivots = {}, set()
        for label in range(len(self._blocks)):
            echelon = self._echelon(label)
            pivots.update(echelon.pivots)
            vectors.update(zip([u for u in echelon.unknowns if u not in echelon.pivots],
                               echelon.kernel))
        return [vectors.get(u, {u: scalars.ONE}) for u in self.unknowns if u not in pivots]

    def rows_of(self, keys):
        """The rows {key: coefficients} of every component holding a key of
        ``keys``, by first row, each component's rows in row order."""
        labels = {self._label(k) for k in keys} - {None}
        first = {label: next(iter(self._blocks[label][0])) for label in labels}
        return {r: c for label in sorted(labels, key=first.get)
                for r, c in self._blocks[label][0].items()}

    def particular(self, rhs):
        """The particular solution of ``Echelon.solve`` for a right-hand side
        keyed like the rows, or None when the system is inconsistent.  Only
        the components that the nonzero entries touch are solved."""
        parts = {}  # component number -> its part of the right-hand side
        for r, v in rhs.items():
            if as_scalar(v):
                label = self._label(r)
                if label is None:
                    return None
                parts.setdefault(label, {})[r] = v
        out = {}
        for label, part in parts.items():
            particular = self._echelon(label).solve(part)
            if particular is None:
                return None
            out.update(particular)
        return out


def solve_linear(rows, unknowns):
    """Solve a linear system over the scalar field.

    ``rows`` is a list of (coeffs: dict key->scalar, rhs: scalar);
    ``unknowns`` the ordered list of keys.  Returns a LinearSolution or
    None when the system is inconsistent.
    """
    echelon = Echelon([coeffs for coeffs, _ in rows], unknowns)
    particular = echelon.solve({i: rhs for i, (_, rhs) in enumerate(rows)})
    return None if particular is None else LinearSolution(particular, list(echelon.kernel))


def nullspace(rows, unknowns):
    """Kernel basis of a homogeneous system given as coefficient dicts."""
    return Echelon(rows, unknowns).kernel
