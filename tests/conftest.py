"""Shared fixtures: the root systems the tests read, built once per session."""

import pytest

from gammaroots.fateev import verify_all
from gammaroots.rootsys import RootSystemId, build

ALL_IDS = (
    [("A", n) for n in range(1, 13)]
    + [("B", n) for n in range(2, 13)]
    + [("C", n) for n in range(2, 13)]
    + [("D", n) for n in range(3, 13)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


@pytest.fixture(scope="session")
def systems():
    return {(family, rank): build(RootSystemId(family, rank)) for family, rank in ALL_IDS}


@pytest.fixture(scope="session")
def large_systems():
    """A-D at ranks 13..24 and 32, past the default rank cap."""
    return {
        (family, rank): build(RootSystemId(family, rank))
        for family in "ABCD"
        for rank in (*range(13, 25), 32)
    }


@pytest.fixture(scope="session")
def sweep_sides(systems):
    """The 349 distinct (word, right side) pairs of the 49-system sweep, in report order."""
    summary = verify_all(systems.values(), mode="exact")
    return list(dict.fromkeys((r.lhs, r.rhs) for r in summary.reports))
