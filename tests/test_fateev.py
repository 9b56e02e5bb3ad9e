"""Identity words, closed-form constants, and verification reports."""

import ast
import math
from fractions import Fraction as Q
from itertools import combinations, repeat
from pathlib import Path

import pytest

from gammaroots import fateev, numeric
from gammaroots.exact import FactoredConstant, const_mul, const_pow, factor_power
from gammaroots.fateev import (
    F,
    F_PRIME,
    F_SECOND,
    VARIANTS,
    VerificationSummary,
    admissible,
    k_root,
    lhs_word,
    rhs_constant,
    verify,
    verify_all,
)
from gammaroots.gammaword import GammaWord, word_from_terms
from gammaroots.rootsys import SIMPLY_LACED_FAMILIES, RootSystemId, build
from test_gammaword import reflection_fold
from test_rootsys import inner, root_coeffs


def coroot(v):
    """2 v / (v|v) in ambient Fraction coordinates."""
    scale = Q(2) / inner(v, v)
    return tuple(scale * a for a in v)


def C(*pairs):
    return FactoredConstant(tuple((b, Q(n, d)) for b, n, d in pairs))


# -- left sides ---------------------------------------------------------------


def test_a2_word(systems):
    w = lhs_word(systems[("A", 2)], 1, F)
    assert (w.denominator, w.exponents) == (3, ((1, -1), (2, -1)))
    assert w.to_json_obj()["coeff"] == []


def test_a_family_words_closed_form(systems):
    # gamma(i/(n+1))^-1 gamma((n+1-i)/(n+1))^-1 on the full 1/(n+1) grid
    for n in (1, 2, 3, 4, 5, 6):
        s = systems[("A", n)]
        for i in range(1, n + 1):
            if 2 * i == n + 1:
                exps = ((i, -2),)
            else:
                exps = tuple(sorted(((i, -1), (n + 1 - i, -1))))
            assert lhs_word(s, i, F) == GammaWord(n + 1, exps)


def test_a5_middle_word_is_balanced(systems):
    w = lhs_word(systems[("A", 5)], 3, F)
    assert (w.denominator, w.exponents) == (6, ((3, -2),))
    assert reflection_fold(w).exponents == ()


def test_b3_word_against_direct_enumeration(systems):
    """Re-derive the B3 first word from scratch with literal root data."""
    e1, e2, e3 = (Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    positive = [
        sub(e1, e2), sub(e2, e3), sub(e1, e3),
        add(e1, e2), add(e2, e3), add(e1, e3),
        e1, e2, e3,
    ]
    rho_check = tuple(
        sum(coroot(a)[k] for a in positive) / 2 for k in range(3)
    )
    assert rho_check == (Q(3), Q(2), Q(1))
    h = 6
    alpha_1 = sub(e1, e2)
    terms = [
        (int(inner(a, rho_check)), -int(inner(alpha_1, coroot(a))))
        for a in positive
        if inner(alpha_1, coroot(a)) != 0
    ]
    expected = word_from_terms(terms, h)
    assert expected.exponents == ((1, -1), (2, 1), (3, -1), (4, -1))
    assert lhs_word(systems[("B", 3)], 1, F_PRIME) == expected


def test_g2_second_variant_word(systems):
    w = lhs_word(systems[("G", 2)], 1, F_SECOND)
    assert (w.denominator, w.exponents) == (
        12,
        ((1, -2), (3, 3), (4, 1), (5, -1), (6, -3)),
    )


def test_g2_prime_variant_words(systems):
    s = systems[("G", 2)]
    w1 = lhs_word(s, 1, F_PRIME)
    assert (w1.denominator, w1.exponents) == (6, ((1, -1), (2, 1), (3, -1), (4, -1)))
    w2 = lhs_word(s, 2, F_PRIME)
    assert reflection_fold(w2).exponents == ((1, 2), (2, -4))


def test_d_family_first_words(systems):
    # {n-2} / ({1} {n-1} {2n-4}) on the 1/(2n-2) grid
    for n in (4, 5, 6, 7, 8):
        w = lhs_word(systems[("D", n)], 1, F)
        assert w.denominator == 2 * n - 2
        assert dict(w.exponents) == {1: -1, n - 2: 1, n - 1: -1, 2 * n - 4: -1}


def test_e6_first_word(systems):
    w = lhs_word(systems[("E", 6)], 1, F)
    assert w.denominator == 12
    folded = reflection_fold(w)
    reference = reflection_fold(
        word_from_terms([(1, -1), (8, -1), (3, 1)], 12)
    )
    assert folded == reference


def test_e8_first_word(systems):
    w = lhs_word(systems[("E", 8)], 1, F)
    assert w.denominator == 30
    reference = reflection_fold(
        word_from_terms(
            [(1, -1), (23, -1), (3, 1), (5, 1), (16, 1), (8, -1), (12, -1), (10, -1)],
            30,
        )
    )
    assert reflection_fold(w) == reference


def test_diagram_symmetry(systems):
    e6 = systems[("E", 6)]
    assert lhs_word(e6, 1, F) == lhs_word(e6, 6, F)
    assert lhs_word(e6, 3, F) == lhs_word(e6, 5, F)
    d5 = systems[("D", 5)]
    assert lhs_word(d5, 4, F) == lhs_word(d5, 5, F)
    a6 = systems[("A", 6)]
    assert lhs_word(a6, 2, F) == lhs_word(a6, 5, F)


def test_b_family_fprime_first_words(systems):
    # gamma(1/2n)^-1 gamma((n-1)/2n) gamma(n/2n)^-1 gamma((2n-2)/2n)^-1
    for n in (3, 4, 5, 8, 12):
        w = lhs_word(systems[("B", n)], 1, F_PRIME)
        assert w.denominator == 2 * n
        assert dict(w.exponents) == {1: -1, n - 1: 1, n: -1, 2 * n - 2: -1}


def test_grid_denominators(systems):
    assert lhs_word(systems[("B", 4)], 1, F_SECOND).denominator == 14
    assert lhs_word(systems[("C", 4)], 1, F_SECOND).denominator == 10
    assert lhs_word(systems[("F", 4)], 1, F_SECOND).denominator == 18
    assert lhs_word(systems[("F", 4)], 1, F_PRIME).denominator == 12
    assert lhs_word(systems[("E", 7)], 1, F).denominator == 18


def ambient_lhs_word(system, index, variant):
    """The definitional product in ambient Fraction coordinates, written out.

    An oracle independent of the integer tables: rho and rho_check are the
    half-sums of the positive roots and coroots, every pairing is a Fraction
    dot product, and the grid is the lcm of the reduced argument denominators.
    """
    positive = system.positive_roots
    dim = len(positive[0])
    coroots = [coroot(a) for a in positive]
    rho = tuple(sum(a[k] for a in positive) / 2 for k in range(dim))
    rho_check = tuple(sum(a[k] for a in coroots) / 2 for k in range(dim))
    alpha_i = system.simple_roots[index - 1]
    if variant == F_SECOND:
        alpha_i = coroot(alpha_i)
    terms = []
    for alpha, alpha_check in zip(positive, coroots):
        if variant == F:
            argument = inner(alpha, rho) / system.coxeter_number
            exponent = -inner(alpha_i, alpha)
        elif variant == F_PRIME:
            argument = inner(alpha, rho_check) / system.coxeter_number
            exponent = -inner(alpha_i, alpha_check)
        else:
            argument = inner(alpha, rho) / system.comark_sum
            exponent = -inner(alpha_i, alpha)
        assert exponent.denominator == 1 and 0 < argument < 1
        terms.append((argument, int(exponent)))
    n = math.lcm(*(a.denominator for a, _ in terms))
    merged = {}
    for a, e in terms:
        j = a.numerator * (n // a.denominator)
        merged[j] = merged.get(j, 0) + e
    return GammaWord(n, tuple(sorted((j, e) for j, e in merged.items() if e)))


ORACLE_IDS = (
    [("A", n) for n in range(1, 7)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(3, 7)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", ORACLE_IDS)
def test_words_match_ambient_oracle(systems, family, rank):
    s = systems[(family, rank)]
    for variant in VARIANTS:
        if not admissible(s, variant):
            continue
        for index in range(1, rank + 1):
            assert lhs_word(s, index, variant) == ambient_lhs_word(s, index, variant), (
                index, variant,
            )


def pairing_rows(system):
    """Every root's pairings 2(alpha_j|a) = (c G)_j, zero or not, from its coefficients."""
    return [
        tuple(sum(x * g for x, g in zip(c, column)) for column in zip(*system.gram))
        for c in root_coeffs(system.parents, system.steps, system.rank)
    ]


def full_scan_lhs_word(system, index, variant, rows):
    """lhs_word as it read the tables before the sparse columns: every root, every row.

    rows is pairing_rows(system): each root's pairing with alpha_i comes from
    its full row, zero or not, and the grid is the gcd over every root's
    argument.
    """
    i = index - 1
    if variant == F_PRIME:
        numerators, denominator, divisors = system.heights, system.coxeter_number, system.norms
    elif variant == F:
        numerators, denominator = system.rho_pairings, 4 * system.coxeter_number
        divisors = repeat(4)
    else:
        numerators, denominator = system.rho_pairings, int(4 * system.comark_sum)
        divisors = repeat(system.gram[i][i])
    terms = []
    for numerator, row, divisor in zip(numerators, rows, divisors):
        exponent, rest = divmod(-2 * row[i], divisor)
        assert not rest
        terms.append((numerator, exponent))
    return word_from_terms(terms, denominator)


def _cases(system):
    for variant in VARIANTS:
        if admissible(system, variant):
            for index in range(1, system.rank + 1):
                yield index, variant


def test_sparse_words_match_the_full_scan_on_every_sweep_case(systems):
    count = 0
    for system in systems.values():
        rows = pairing_rows(system)
        for index, variant in _cases(system):
            assert lhs_word(system, index, variant) == full_scan_lhs_word(
                system, index, variant, rows
            ), (system.ident, index, variant)
            count += 1
    assert count == 842


def test_sparse_words_match_the_full_scan_past_the_rank_cap(large_systems):
    for (family, rank), system in large_systems.items():
        if rank > 24:
            continue
        rows = pairing_rows(system)
        for index, variant in _cases(system):
            assert lhs_word(system, index, variant) == full_scan_lhs_word(
                system, index, variant, rows
            ), (system.ident, index, variant)


def test_pairing_columns_hold_every_nonzero_pairing_in_table_order(systems):
    for system in systems.values():
        rows = pairing_rows(system)
        for j, (positions, pairings) in enumerate(system.pairing_columns):
            expected = [(k, row[j]) for k, row in enumerate(rows) if row[j]]
            assert list(zip(positions, pairings)) == expected, (system.ident, j)


def test_grid_divisor_from_the_simple_roots(systems, large_systems):
    """The gcd of the grid with the simple roots' arguments is the gcd over all roots.

    Every argument numerator, ht(a) or 4(a|rho), is a nonnegative integer
    combination of the simple roots' (1, or G_kk), so lhs_word may fix the
    grid from the simple roots alone.
    """
    chosen = [s for (_, rank), s in large_systems.items() if rank in (16, 24, 32)]
    assert len(chosen) == 12
    for system in [*systems.values(), *chosen]:
        diag = [row[k] for k, row in enumerate(system.gram)]
        simple_rows = [k for k, height in enumerate(system.heights) if height == 1]
        assert sorted(system.rho_pairings[k] for k in simple_rows) == sorted(diag)
        for variant in VARIANTS:
            if not admissible(system, variant):
                continue
            if variant == F_PRIME:
                numerators, denominator, simple = system.heights, system.coxeter_number, [1]
            elif variant == F:
                numerators, denominator = system.rho_pairings, 4 * system.coxeter_number
                simple = diag
            else:
                numerators, denominator = system.rho_pairings, int(4 * system.comark_sum)
                simple = diag
            assert math.gcd(denominator, *simple) == math.gcd(denominator, *numerators), (
                system.ident, variant,
            )


def test_non_integral_pairing_raises(systems):
    s = systems[("A", 2)]
    odd = tuple((ks, tuple(p + 1 for p in ps)) for ks, ps in s.pairing_columns)
    with pytest.raises(ValueError, match="not integral"):
        lhs_word(s._replace(pairing_columns=odd), 1, F)


def test_argument_outside_the_unit_interval_raises(systems):
    s = systems[("G", 2)]
    for heights in ((0, *s.heights[1:]), (*s.heights[:-1], s.coxeter_number)):
        with pytest.raises(ValueError, match="outside"):
            lhs_word(s._replace(heights=heights), 1, F_PRIME)


# -- right sides --------------------------------------------------------------


def k_constant(system, variant):
    """The product over all nodes 0..r entering the closed-form right side."""
    if variant == F:
        pairs = zip(system.marks, system.marks)
    elif variant == F_PRIME:
        pairs = zip(system.comarks, system.marks)
    else:
        pairs = zip(system.double_comarks, system.comarks)
    return FactoredConstant(
        tuple(f for base, e in pairs for f in factor_power(base, e).powers)
    )


def test_k_constant_tables(systems):
    assert k_constant(systems[("A", 5)], F).is_one
    assert k_constant(systems[("D", 4)], F) == C((2, 2, 1))
    assert k_constant(systems[("D", 9)], F) == C((2, 12, 1))
    assert k_constant(systems[("E", 6)], F) == C((2, 6, 1), (3, 3, 1))
    assert k_constant(systems[("E", 7)], F) == C((2, 14, 1), (3, 6, 1))
    assert k_constant(systems[("E", 8)], F) == C((2, 26, 1), (3, 12, 1), (5, 5, 1))
    assert k_constant(systems[("B", 5)], F_PRIME) == C((2, 6, 1))
    assert k_constant(systems[("B", 5)], F_SECOND) == C((2, 5, 1))
    assert k_constant(systems[("C", 5)], F_PRIME) == C((2, 10, 1))
    assert k_constant(systems[("C", 5)], F_SECOND) == C((2, 16, 1))
    assert k_constant(systems[("F", 4)], F_PRIME) == C((2, 6, 1), (3, 3, 1))
    assert k_constant(systems[("F", 4)], F_SECOND) == C((2, 1, 1), (3, 3, 1))
    assert k_constant(systems[("G", 2)], F_PRIME) == C((2, 2, 1), (3, 6, 1))
    assert k_constant(systems[("G", 2)], F_SECOND) == C((2, 6, 1), (3, 21, 1))


def test_rhs_spot_values(systems):
    assert rhs_constant(systems[("E", 8)], 5, F) == C((2, -13, 15), (3, -2, 5), (5, 5, 6))
    assert rhs_constant(systems[("E", 7)], 4, F) == C((2, 11, 9), (3, -1, 3))
    assert rhs_constant(systems[("F", 4)], 2, F_PRIME) == C((2, -1, 2), (3, 3, 4))
    assert rhs_constant(systems[("B", 4)], 4, F_SECOND) == C((2, -10, 7))
    assert rhs_constant(systems[("G", 2)], 1, F_SECOND) == C((2, -1, 2), (3, -3, 4))
    assert rhs_constant(systems[("G", 2)], 2, F_PRIME) == C((2, 2, 3))
    for n in (2, 5, 9, 12):
        s = systems[("C", n)]
        for i in range(1, n + 1):
            assert rhs_constant(s, i, F_PRIME).is_one


def chained_rhs_constant(system, index, variant):
    """The right side as three exact operations: node factor, k's root, their product."""
    if variant == F:
        node, grid = Q(system.marks[index]), Q(system.coxeter_number)
    elif variant == F_PRIME:
        node, grid = system.comarks[index], Q(system.coxeter_number)
    else:
        node, grid = system.double_comarks[index], system.comark_sum
    return const_mul(factor_power(node, 1), const_pow(k_constant(system, variant), -1 / grid))


def test_right_sides_match_the_chained_construction_on_every_sweep_case(systems):
    count = 0
    for system in systems.values():
        for variant in VARIANTS:
            if not admissible(system, variant):
                continue
            root = k_root(system, variant)
            for index in range(1, system.rank + 1):
                expected = chained_rhs_constant(system, index, variant)
                assert rhs_constant(system, index, variant) == expected
                assert root.rhs[index - 1] == expected
                count += 1
    assert count == 842


def column_lhs_word(system, index, variant):
    """lhs_word built per case: word_from_terms over the column and the simple roots.

    The simple roots enter as zero-exponent terms so that they fix the grid.
    """
    i = index - 1
    norms = None
    if variant == F_PRIME:
        numerators, denominator, norms = system.heights, system.coxeter_number, system.norms
        simple_arguments = {1}
    else:
        numerators = system.rho_pairings
        simple_arguments = {row[k] for k, row in enumerate(system.gram)}
        if variant == F:
            denominator, divisor = 4 * system.coxeter_number, 4
        else:
            denominator, divisor = int(4 * system.comark_sum), system.gram[i][i]
    terms = [(x, 0) for x in simple_arguments]
    positions, pairings = system.pairing_columns[i]
    for position, pairing in zip(positions, pairings):
        if norms is not None:
            divisor = norms[position]
        exponent, rest = divmod(-2 * pairing, divisor)
        assert not rest
        terms.append((numerators[position], exponent))
    return word_from_terms(terms, denominator)


def reference_k_root(system, variant):
    """k_constant^(-1/h), or ^(-1/h') for Fsecond, by const_pow."""
    grid = system.comark_sum if variant == F_SECOND else system.coxeter_number
    return const_pow(k_constant(system, variant), -1 / Q(grid))


def per_case_rhs_constant(system, index, variant, root):
    """rhs_constant built per case: the node's factor_power times reference_k_root."""
    if variant == F:
        node = system.marks[index]
    elif variant == F_PRIME:
        node = system.comarks[index]
    else:
        node = system.double_comarks[index]
    return FactoredConstant((*factor_power(node, 1).powers, *root.powers))


def _matches_per_case_construction(system):
    """Compare every case of the system; return how many there were."""
    count = 0
    for variant in VARIANTS:
        if not admissible(system, variant):
            continue
        table, root = k_root(system, variant), reference_k_root(system, variant)
        for index in range(1, system.rank + 1):
            case = (system.ident, index, variant)
            word = column_lhs_word(system, index, variant)
            assert lhs_word(system, index, variant) == word, case
            expected = per_case_rhs_constant(system, index, variant, root)
            assert table.rhs[index - 1] == expected, case
            assert rhs_constant(system, index, variant) == expected, case
            count += 1
    return count


def test_tables_match_the_per_case_construction_on_every_sweep_case(systems):
    assert sum(map(_matches_per_case_construction, systems.values())) == 842


def test_tables_match_the_per_case_construction_past_the_rank_cap(large_systems):
    assert all(map(_matches_per_case_construction, large_systems.values()))


def test_b_family_rhs_patterns(systems):
    for n in (3, 6, 10):
        s = systems[("B", n)]
        assert rhs_constant(s, 1, F_PRIME) == C((2, 2 - n, n))
        assert rhs_constant(s, 2, F_PRIME) == C((2, 2, n))
        assert rhs_constant(s, n, F_SECOND) == C((2, 6 - 4 * n, 2 * n - 1))


def test_c_family_second_variant_rhs(systems):
    for n in (3, 7, 12):
        s = systems[("C", n)]
        assert rhs_constant(s, 1, F_SECOND) == C((2, -2, n + 1))
        assert rhs_constant(s, n, F_SECOND) == C((2, n - 1, n + 1))


# -- hypotheses and errors ----------------------------------------------------


def test_variant_admissibility(systems):
    assert admissible(systems[("A", 3)], F)
    assert not admissible(systems[("B", 3)], F)
    assert admissible(systems[("B", 3)], F_PRIME)
    with pytest.raises(ValueError):
        admissible(systems[("A", 3)], "Fthird")


def test_f_variant_refused_off_hypothesis(systems):
    with pytest.raises(ValueError, match="simply laced"):
        lhs_word(systems[("B", 3)], 1, F)
    with pytest.raises(ValueError, match="simply laced"):
        rhs_constant(systems[("G", 2)], 1, F)
    with pytest.raises(ValueError, match="simply laced"):
        k_root(systems[("C", 3)], F)


def test_index_range_checked(systems):
    """An index is an int in 1..rank; a bool, a float or a str is refused, not looked up.

    verify checks it with a table given too: index 0 would read the last
    root's right side, and True the first's.
    """
    s = systems[("A", 3)]
    k = k_root(s, F)
    calls = (lambda i: verify(s, i, F, "exact"), lambda i: lhs_word(s, i, F),
             lambda i: rhs_constant(s, i, F), lambda i: verify(s, i, F, "exact", k=k))
    for bad in (True, 1.0, "1", 0, s.rank + 1):
        for call in calls:
            with pytest.raises(ValueError, match="not an int in 1..3"):
                call(bad)


# -- verification driver ------------------------------------------------------


def test_verify_exact_mode(systems):
    report = verify(systems[("G", 2)], 1, F_SECOND, mode="exact")
    assert report.status == "proved_exact"
    assert report.passed
    assert report.certificate is not None
    assert report.numeric_residual is None


def test_verify_numeric_mode(systems):
    report = verify(systems[("A", 5)], 3, F, mode="numeric")
    assert report.status == "numeric_only"
    assert report.passed
    assert report.certificate is None
    assert report.numeric_residual is not None


def test_verify_both_mode(systems):
    report = verify(systems[("F", 4)], 4, F_SECOND, mode="both")
    assert report.status == "proved_exact"
    assert report.certificate is not None
    assert report.numeric_residual is not None
    assert report.rhs == C((2, -10, 9), (3, -1, 3))


def test_verify_rejects_unknown_mode(systems):
    with pytest.raises(ValueError):
        verify(systems[("A", 2)], 1, F, mode="fast")


def test_verify_all_ordering_and_counts(systems):
    summary = verify_all([systems[("E", 6)]], mode="exact")
    assert len(summary.reports) == 18
    assert summary.counts == {"proved_exact": 18}
    assert summary.all_passed
    keys = [(r.index, r.variant) for r in summary.reports]
    assert keys == sorted(keys, key=lambda t: (t[0], VARIANTS.index(t[1])))


def test_verify_all_skips_inadmissible(systems):
    summary = verify_all([systems[("G", 2)]], mode="exact")
    assert len(summary.reports) == 4
    assert all(r.variant in (F_PRIME, F_SECOND) for r in summary.reports)


def test_verify_all_builds_k_once_per_system_and_variant(systems, monkeypatch):
    """k_root's table, k with it, is built once per admissible (system, variant)."""
    calls = []
    original = fateev.k_root

    def counted(system, variant):
        calls.append((system.ident, variant))
        return original(system, variant)

    monkeypatch.setattr(fateev, "k_root", counted)
    summary = verify_all([systems[("G", 2)], systems[("A", 3)]], mode="exact")
    assert summary.counts == {"proved_exact": 4 + 9}
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == 2 + 3


def test_verify_checks_each_case_once(systems, monkeypatch):
    """verify checks its case once, and verify_all runs one case per (distinct table, index).

    On the sweep that is 494 of the 842 cases: on a simply laced system the
    three variants share one table, so only F's cases run; no case runs twice.
    """
    calls = []
    original = fateev._check_case

    def counted(system, index, variant):
        calls.append((system.ident, index, variant))
        return original(system, index, variant)

    monkeypatch.setattr(fateev, "_check_case", counted)
    g2, a3 = systems[("G", 2)], systems[("A", 3)]
    verify(g2, 1, F_SECOND, mode="exact")
    assert calls == [(g2.ident, 1, F_SECOND)]
    verify(a3, 2, F, "both", None, k_root(a3, F))
    assert len(calls) == 2
    summary = verify_all([g2, a3], mode="exact")
    assert len(summary.reports) == 4 + 9 and len(calls) == 2 + 4 + 3
    calls.clear()
    summary = verify_all(systems.values(), mode="exact")
    assert len(summary.reports) == 842
    assert len(calls) == len(set(calls)) == 494
    assert set(calls) == {
        (r.ident, r.index, r.variant)
        for r in summary.reports
        if r.ident.family not in SIMPLY_LACED_FAMILIES or r.variant == F
    }


def _count_calls(monkeypatch, owner, name, seen):
    original = getattr(owner, name)

    def counted(word, *args):
        seen.append(word)
        return original(word, *args)

    monkeypatch.setattr(owner, name, counted)


def test_verify_all_decides_each_distinct_identity_once(systems, monkeypatch):
    proved, evaluated = [], []
    _count_calls(monkeypatch, fateev, "prove_constant", proved)
    _count_calls(monkeypatch, numeric, "eval_word_ln", evaluated)
    ctx = numeric.PrecisionContext.for_digits(60)
    summary = verify_all(systems.values(), mode="both", ctx=ctx)
    assert len(summary.reports) == 842
    distinct = {(r.lhs, r.rhs) for r in summary.reports}
    assert len(distinct) == 349
    assert len(proved) == len(evaluated) == 349
    assert set(proved) == set(evaluated) == {lhs for lhs, _ in distinct}


@pytest.mark.parametrize("mode", fateev.MODES)
def test_shared_verdicts_equal_standalone_verify(systems, mode):
    """Every sweep report, a twin's included, equals a fresh verify with no table and no memo."""
    ctx = numeric.PrecisionContext.for_digits(60)
    summary = verify_all(systems.values(), mode=mode, ctx=ctx)
    assert len(summary.reports) == 842
    for report in summary.reports:
        alone = verify(systems[report.ident.family, report.ident.rank], report.index,
                       report.variant, mode, ctx)
        for name in report._fields:
            shared, fresh = getattr(report, name), getattr(alone, name)
            assert shared == fresh, (report.ident, report.index, report.variant, name)


def test_variant_tables_are_equal_exactly_on_simply_laced_systems(systems):
    """Pairwise equal tables on A, D and E, and only there; equal tables, equal cases.

    Two admissible variants' tables are equal exactly when every word and
    every right side of the two are, which is what lets verify_all run one
    table's cases once.
    """
    rank_64 = [build(RootSystemId(family, 64)) for family in "ABCD"]
    for s in (*systems.values(), *rank_64):
        pairs = list(combinations([v for v in VARIANTS if admissible(s, v)], 2))
        equal = {(a, b): k_root(s, a) == k_root(s, b) for a, b in pairs}
        assert set(equal.values()) == {s.simply_laced}, s.ident
        if s.ident.rank > 12:  # the sweep's systems: every case below, compared
            continue
        for a, b in pairs:
            same_cases = all(
                lhs_word(s, i, a) == lhs_word(s, i, b)
                and rhs_constant(s, i, a) == rhs_constant(s, i, b)
                for i in range(1, s.rank + 1)
            )
            assert same_cases == equal[a, b], (s.ident, a, b)


def test_a_refused_proof_reaches_every_case_that_shares_the_word(systems, monkeypatch):
    """A3's alpha_1 and alpha_3 give one word in each of the three variants."""
    a3 = systems[("A", 3)]
    target = lhs_word(a3, 1, F)
    original = fateev.prove_constant
    calls = []

    def refuse_target(word):
        calls.append(word)
        return None if word == target else original(word)

    monkeypatch.setattr(fateev, "prove_constant", refuse_target)
    summary = verify_all([a3], mode="both")
    shared = [r for r in summary.reports if r.lhs == target]
    assert [(r.index, r.variant) for r in shared] == [(i, v) for i in (1, 3) for v in VARIANTS]
    assert {r.status for r in shared} == {fateev.NUMERIC_ONLY}
    assert all(r.certificate is None and not r.passed for r in shared)
    assert {r.status for r in summary.reports if r.lhs != target} == {fateev.PROVED_EXACT}
    assert not summary.all_passed
    assert calls.count(target) == 1


def test_reports_of_one_identity_share_its_objects(systems):
    """A twin variant's report, copied from its table's first variant, and a memo hit alike."""
    summary = verify_all(systems.values(), mode="exact")
    first = {}
    for report in summary.reports:
        shared = first.setdefault((report.lhs, report.rhs), report)
        assert report.lhs is shared.lhs and report.rhs is shared.rhs
        assert report.certificate is shared.certificate
    assert len(first) == 349
    assert len({id(r.lhs) for r in summary.reports}) == 349


def test_summary_converts_each_distinct_word_once(systems, monkeypatch):
    summary = verify_all(systems.values(), mode="exact")
    converted = []
    original = GammaWord.to_json_obj

    def counted(word):
        converted.append(word)
        return original(word)

    monkeypatch.setattr(GammaWord, "to_json_obj", counted)
    obj = summary.to_json_obj()
    assert len(obj["reports"]) == len(summary.reports) == 842
    assert len(converted) == 349
    for report, entry in zip(summary.reports, obj["reports"]):
        assert entry["lhs_word"] == original(report.lhs)
        assert entry["rhs_constant"] == report.rhs.to_json_obj()
        assert entry["certificate"] == report.certificate.to_json_obj()


def test_verdict_memo_keeps_modes_and_precisions_apart(systems):
    """An exact verdict does not answer a later both-mode case, nor one precision another."""
    a3 = systems[("A", 3)]
    ctx60, ctx30 = numeric.PrecisionContext.for_digits(60), numeric.PrecisionContext.for_digits(30)
    memo = {}
    exact = verify(a3, 1, F, "exact", None, None, memo)
    both = verify(a3, 1, F, "both", ctx60, None, memo)
    fresh = verify(a3, 1, F, "both", ctx60)
    assert exact.status == both.status == fateev.PROVED_EXACT
    assert exact.numeric_residual is None
    assert both.numeric_residual == fresh.numeric_residual == "0.0"
    assert verify(a3, 1, F, "both", ctx30, None, memo).numeric_residual == "0.0"
    assert len(memo) == 3
    again = verify(a3, 3, F, "both", ctx60, None, memo)
    assert len(memo) == 3 and again.lhs is both.lhs and again.certificate is both.certificate
    shared_ctx = {}
    verify(a3, 1, F, "exact", ctx60, None, shared_ctx)
    assert verify(a3, 1, F, "both", ctx60, None, shared_ctx).numeric_residual == "0.0"
    numeric_only = verify(a3, 1, F, "numeric", ctx60, None, shared_ctx)
    assert numeric_only.status == fateev.NUMERIC_ONLY and numeric_only.certificate is None


def test_verify_all_refuses_an_empty_variant_list(systems):
    g2 = systems[("G", 2)]
    with pytest.raises(ValueError, match="nothing to verify"):
        verify_all([g2], [], "exact")
    assert len(verify_all([g2], None, "exact").reports) == 4


def test_verify_all_refuses_a_repeated_variant(systems):
    """A variant listed twice would report each of its cases twice."""
    g2 = systems[("G", 2)]
    with pytest.raises(ValueError, match="'Fprime' is listed twice"):
        verify_all([g2], [F_PRIME, F_PRIME], "exact")
    with pytest.raises(ValueError, match="'F' is listed twice"):
        verify_all([g2], [F, F_SECOND, F], "exact")
    assert len(verify_all([g2], [F_SECOND, F_PRIME], "exact").reports) == 4


def test_verify_all_empty(systems):
    with pytest.raises(ValueError, match="nothing to verify"):
        verify_all([])
    with pytest.raises(ValueError, match="nothing to verify"):
        verify_all([systems[("B", 3)]], variants=["F"])


def test_simply_laced_variants_collapse(systems):
    s = systems[("A", 3)]
    for i in (1, 2, 3):
        w = lhs_word(s, i, F)
        assert lhs_word(s, i, F_PRIME) == w
        assert lhs_word(s, i, F_SECOND) == w
        r = rhs_constant(s, i, F)
        assert rhs_constant(s, i, F_PRIME) == r
        assert rhs_constant(s, i, F_SECOND) == r


def test_report_serialization(systems):
    report = verify(systems[("G", 2)], 1, F_PRIME, mode="both")
    obj = VerificationSummary((report,)).to_json_obj()["reports"][0]
    assert obj["family"] == "G" and obj["rank"] == 2
    assert obj["status"] == "proved_exact"
    assert obj["lhs_word"]["N"] == 6
    assert obj["certificate"] is not None
    line = report.text_line()
    assert "proved_exact" in line and "G2" in line


def test_fateev_leaves_the_numeric_verdict_to_numeric():
    """fateev imports no mpmath name, and neither const_ln nor RESIDUAL_BITS.

    The residual, its rounding and its bound are numeric.residual's, so the
    acceptance rule of the numeric route lives in one module.
    """
    tree = ast.parse(Path(fateev.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
    assert imported and not [m for m, _ in imported if m.split(".")[0] == "mpmath"]
    names = {name for _, name in imported}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not {"const_ln", "RESIDUAL_BITS", "mpmath"} & (names | used)
    assert ("numeric", "residual") in imported
