import pytest

from gradira import (
    Chart,
    extended_canonical,
    reduced_canonical,
    yang_mills,
)


@pytest.fixture(scope="session")
def chart5():
    """A small chart with two base and three fiber coordinates."""
    return Chart(base=["x1", "x2"], fiber=["y1", "p1_1", "p2_1"])


@pytest.fixture(scope="session")
def red2():
    return reduced_canonical(2, 1)


@pytest.fixture(scope="session")
def red2k2():
    return reduced_canonical(2, 2)


@pytest.fixture(scope="session")
def red3():
    return reduced_canonical(3, 1)


@pytest.fixture(scope="session")
def red3k2():
    return reduced_canonical(3, 2)


@pytest.fixture(scope="session")
def ext2():
    return extended_canonical(2, 1)


@pytest.fixture(scope="session")
def ym_abelian():
    return yang_mills(3, "abelian", dim=1)


@pytest.fixture(scope="session")
def ym_su2():
    return yang_mills(3, "su2")
