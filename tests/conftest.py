"""Shared fixtures, built once per session.

The root systems the tests read, and the numeric route of the pinned runs.
"""

import os

import pytest

from gammaroots import cli, numeric
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


# The pinned runs whose numeric route the checks replay, as verify arguments:
# the default sweep, --digits 10, 200-digit G/F/E/B and 800-digit E/F/G, at
# 243, 77, 708 and 2,701 bits.
PINNED_RUNS = (
    (),
    ("--digits", "10"),
    ("--family", "G", "--family", "F", "--family", "E", "--family", "B", "--digits", "200"),
    ("--family", "E", "--family", "F", "--family", "G", "--mode", "numeric", "--digits", "800"),
)
NUMERIC_TABLES = (
    numeric._ln_ratio, numeric.const_ln_pair, numeric._ln_prime, numeric._stirling_data
)


@pytest.fixture(scope="session")
def pinned_numeric_route():
    """Every _ln argument and every residual of the pinned runs, the tables emptied before each.

    (arguments, ln_gamma calls, residuals): the (man, exp, bits) of each
    _ln call, ln_gamma's two per call, the right sides' ln p once per
    prime, through the prime memo, and ln(2 pi) once per context, in call
    order; the number of ln_gamma calls; and the (man, exp) of each
    residual verify formats.  Shared by the numeric tests and the mutation
    controls, which replay it with a doctored table.
    """
    ln, ln_gamma_of, six_digits = numeric._ln, numeric.ln_gamma, numeric._six_digits
    arguments, gamma_calls, residuals = [], [], []

    def recorded_ln(man, exp, bits):
        arguments.append((man, exp, bits))
        return ln(man, exp, bits)

    def counted_ln_gamma(x, ctx):
        gamma_calls.append(x)
        return ln_gamma_of(x, ctx)

    def recorded_six_digits(man, exp):
        residuals.append((man, exp))
        return six_digits(man, exp)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric, "_ln", recorded_ln)
        patch.setattr(numeric, "ln_gamma", counted_ln_gamma)
        patch.setattr(numeric, "_six_digits", recorded_six_digits)
        for args in PINNED_RUNS:
            for table in NUMERIC_TABLES:
                table.cache_clear()
            assert cli.main(["verify", *args, "--output", os.devnull]) == cli.EXIT_OK
    for table in NUMERIC_TABLES:
        table.cache_clear()
    return arguments, len(gamma_calls), residuals
