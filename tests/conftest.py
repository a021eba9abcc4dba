import os
from pathlib import Path

import pytest

from gradira import (
    Chart,
    extended_canonical,
    reduced_canonical,
    yang_mills,
)

# the CLI tests' child processes import the sources this process imports,
# also when pytest finds them through its ``pythonpath`` setting
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# every chart of a session-scoped fixture, with its functions table as built
_SESSION_CHARTS = []


def _watched(value):
    """Register the charts of a session fixture's value, a Chart or a
    Scenario, for ``session_charts_unchanged``."""
    if isinstance(value, Chart):
        charts = [value]
    else:
        charts = [st.chart for st in (value.structure, value.extended, value.ambient)
                  if st is not None]
    _SESSION_CHARTS.extend((ch, dict(ch.functions)) for ch in charts)
    return value


@pytest.fixture(autouse=True)
def session_charts_unchanged():
    """Fail a test that declares a function on the chart of a
    session-scoped fixture: every later test would see the declaration, so
    results would depend on test order.  The table is restored, so only
    the test that changed it fails."""
    yield
    changed = []
    for ch, functions in _SESSION_CHARTS:
        if ch.functions != functions:
            changed.append(f"{ch!r}: {sorted(set(ch.functions) ^ set(functions))}")
            ch.functions.clear()
            ch.functions.update(functions)
    if changed:
        pytest.fail("the test changed the functions table of a session-scoped chart: "
                    + "; ".join(changed))


@pytest.fixture(scope="session")
def chart5():
    """A small chart with two base and three fiber coordinates."""
    return _watched(Chart(base=["x1", "x2"], fiber=["y1", "p1_1", "p2_1"]))


@pytest.fixture(scope="session")
def red2():
    return _watched(reduced_canonical(2, 1))


@pytest.fixture(scope="session")
def red2k2():
    return _watched(reduced_canonical(2, 2))


@pytest.fixture(scope="session")
def red3():
    return _watched(reduced_canonical(3, 1))


@pytest.fixture(scope="session")
def red3k2():
    return _watched(reduced_canonical(3, 2))


@pytest.fixture(scope="session")
def red3k3():
    return _watched(reduced_canonical(3, 3))


@pytest.fixture(scope="session")
def ext2():
    return _watched(extended_canonical(2, 1))


@pytest.fixture(scope="session")
def ym_abelian():
    return _watched(yang_mills(3, "abelian", dim=1))


@pytest.fixture(scope="session")
def ym_su2():
    return _watched(yang_mills(3, "su2"))
