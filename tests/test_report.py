"""``Report`` keeps tuple rows; ``tests/naive.py`` keeps the dataclass
report it replaced.  Any sequence of ``add`` and ``extend`` gives the same
text, verdict, checks and failures on both."""

import pytest
from hypothesis import given, settings, strategies as hst

from gradira.report import Check, Report
from naive import NaiveReport

# pair names with one- and two-digit indices (a=5.10 sorts before a=5.2),
# free text, and few enough of each that names repeat
_names = hst.one_of(
    hst.builds(lambda kind, a, i, b, j: f"{kind} a={a}.{i} b={b}.{j}",
               hst.sampled_from(["skew", "integrable", "horizontal"]),
               hst.integers(1, 5), hst.sampled_from([0, 1, 2, 10, 11, 20]),
               hst.integers(1, 5), hst.sampled_from([0, 2, 10])),
    hst.text(alphabet="ab .:=0129", max_size=6),
)
_rows = hst.tuples(_names, hst.booleans(),
                   hst.one_of(hst.just(""), hst.text(alphabet="xy :=0", max_size=5)))
_steps = hst.lists(hst.one_of(hst.tuples(hst.just("add"), _rows),
                              hst.tuples(hst.just("extend"), hst.lists(_rows, max_size=6))),
                   max_size=25)


def _play(cls, steps):
    report = cls()
    for op, arg in steps:
        if op == "add":
            report.add(*arg)
        else:
            other = cls()
            for row in arg:
                other.add(*row)
            report.extend(other)
    return report


def _seen(report):
    return (report.render(), str(report), report.passed,
            [(c.name, c.passed, c.detail) for c in report.checks],
            [c.render() for c in report.checks],
            "\n".join(c.render() for c in report.failures()))


@settings(max_examples=300, deadline=None)
@given(steps=_steps)
def test_rows_match_the_dataclass_report(steps):
    assert _seen(_play(Report, steps)) == _seen(_play(NaiveReport, steps))


def test_ties_keep_insertion_order():
    report = Report()
    for name, passed, detail in [("b", True, ""), ("a", False, "2"), ("a", True, "1"),
                                 ("a", False, "")]:
        report.add(name, passed, detail)
    assert report.render() == "FAIL a: 2\nPASS a: 1\nFAIL a\nPASS b"
    assert [c.detail for c in report.failures()] == ["2", ""]


def test_checks_are_read_only_views():
    report = Report()
    report.add("skew a=1.0 b=2.0", True)
    check = report.checks[0]
    assert check == Check("skew a=1.0 b=2.0", True, "")
    with pytest.raises(AttributeError):
        check.passed = False
    report.checks.clear()
    assert report.rows == [("skew a=1.0 b=2.0", True, "")]
