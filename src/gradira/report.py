"""Line-oriented verification reports: one check per line, PASS/FAIL prefix.

A report keeps its checks as plain ``(name, passed, detail)`` rows in
``Report.rows``, in the order they were added; a verifier with thousands
of passing pairs appends tuples, not objects.  ``render`` sorts the rows
by name once (stably, so rows with equal names keep their order).
``Check`` is a read-only view of one row, built on demand by
``Report.checks`` and ``Report.failures``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

_BY_NAME = itemgetter(0)


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def render(self):
        detail = self.detail
        return ("PASS " if self.passed else "FAIL ") + (
            f"{self.name}: {detail}" if detail else self.name)


class Report:
    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []

    def add(self, name, passed, detail=""):
        self.rows.append((name, passed, detail))

    def extend(self, other):
        self.rows.extend(other.rows)

    @property
    def checks(self):
        return [Check._make(row) for row in self.rows]

    @property
    def passed(self):
        return all(row[1] for row in self.rows)

    def failures(self):
        return [Check._make(row) for row in self.rows if not row[1]]

    def render(self):
        # the text of Check.render, without a view or a call per row
        return "\n".join([("PASS " if passed else "FAIL ")
                          + (f"{name}: {detail}" if detail else name)
                          for name, passed, detail in sorted(self.rows, key=_BY_NAME)])

    def __str__(self):
        return self.render()
