"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v`; the package-level pytest
options surface every line in the terminal summary.
"""

import time
from fractions import Fraction as Q

import mpmath

from gammaroots.exact import ONE, FactoredConstant, const_ln, const_mul, const_pow
from gammaroots.fateev import (
    F,
    F_PRIME,
    F_SECOND,
    admissible,
    lhs_word,
    rhs_constant,
    verify,
    verify_all,
)
from gammaroots.gammaword import eval_ln
from gammaroots.numeric import PrecisionContext, eval_word_ln
from gammaroots.prover import kernel_consistency, relation_word, relations_for
from gammaroots.rootsys import RootSystemId, build

SIMPLY_LACED = (
    [("A", n) for n in range(1, 13)]
    + [("D", n) for n in range(3, 13)]
    + [("E", n) for n in (6, 7, 8)]
)
TWO_LENGTH = (
    [("B", n) for n in range(2, 13)]
    + [("C", n) for n in range(2, 13)]
    + [("F", 4), ("G", 2)]
)
# The largest grid denominator among the words of the default verify sweep;
# criteria 5 and 6 cover every grid up to it.
SWEEP_GRID_MAX = 46


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} failed: {label}"


def _certificate_replays(report) -> bool:
    """Rebuild the exponent vector and constant from the cited relations."""
    n = report.lhs.denominator
    relations = {r.tag: r for r in relations_for(n)}
    dense = [Q(0)] * (n - 1)
    value = ONE
    for tag, coefficient in report.certificate.coefficients:
        relation = relations[tag]
        for j, e in relation.vector:
            dense[j - 1] += coefficient * e
        value = const_mul(value, const_pow(relation.value, coefficient))
    want = dict(report.lhs.exponents)
    if any(dense[j - 1] != want.get(j, 0) for j in range(1, n)):
        return False
    return value == report.certificate.derived_constant


def test_criterion_1_simply_laced_exact(systems):
    chosen = [systems[key] for key in SIMPLY_LACED]
    start = time.perf_counter()
    summary = verify_all(chosen, (F,), mode="exact")
    elapsed = time.perf_counter() - start
    ok = (
        len(summary.reports) == 174
        and summary.counts == {"proved_exact": 174}
        and summary.all_passed
        and elapsed < 10.0
        and all(
            _certificate_replays(r)
            for r in summary.reports
            if r.ident in (RootSystemId("E", 8), RootSystemId("A", 12), RootSystemId("D", 12))
        )
    )
    _report(1, "simply laced, variant F, exact proofs", ok,
            f"174 cases in {elapsed:.2f}s")


def test_criterion_2_two_length_exact(systems):
    chosen = [systems[key] for key in TWO_LENGTH]
    start = time.perf_counter()
    summary = verify_all(chosen, (F_PRIME, F_SECOND), mode="exact")
    elapsed = time.perf_counter() - start
    ok = (
        len(summary.reports) == 320
        and summary.counts == {"proved_exact": 320}
        and summary.all_passed
    )
    _report(2, "two root lengths, variants Fprime/Fsecond, exact proofs", ok,
            f"320 cases in {elapsed:.2f}s")


def test_criterion_3_closed_form_spot_values(systems):
    def c(*pairs):
        return FactoredConstant(tuple((b, Q(n, d)) for b, n, d in pairs))

    cases = [
        (("E", 6), 1, F, c((2, -1, 2), (3, -1, 4))),
        (("E", 7), 4, F, c((2, 11, 9), (3, -1, 3))),
        (("E", 8), 1, F, c((2, 2, 15), (3, -2, 5), (5, -1, 6))),
        (("G", 2), 1, F_SECOND, c((2, -1, 2), (3, -3, 4))),
        (("F", 4), 4, F_SECOND, c((2, -10, 9), (3, -1, 3))),
    ]
    for n in range(4, 13):
        cases.append((("D", n), 1, F, c((2, 6 - 2 * n, 2 * n - 2))))
    for n in range(2, 13):
        for i in range(1, n + 1):
            cases.append((("C", n), i, F_PRIME, ONE))
    ok = True
    for key, index, variant, expected in cases:
        report = verify(systems[key], index, variant, mode="exact")
        if report.status != "proved_exact" or report.rhs != expected:
            ok = False
            break
    _report(3, "spot values in exact factored form", ok, f"{len(cases)} constants")


def test_criterion_4_numeric_cross_check(systems):
    ctx = PrecisionContext.for_digits(60)
    tolerance = mpmath.mpf(10) ** -50
    worst = mpmath.mpf(0)
    count = 0
    for key, variants in [(k, (F,)) for k in SIMPLY_LACED] + [
        (k, (F_PRIME, F_SECOND)) for k in TWO_LENGTH
    ]:
        system = systems[key]
        for variant in variants:
            for index in range(1, system.rank + 1):
                lhs = lhs_word(system, index, variant)
                rhs = rhs_constant(system, index, variant)
                residual = abs(eval_word_ln(lhs, ctx) - const_ln(rhs, ctx.decimal_digits))
                worst = max(worst, residual)
                count += 1
    ok = count == 494 and worst <= tolerance
    _report(4, "60-digit numeric cross-check of every case", ok,
            f"{count} cases, worst residual {mpmath.nstr(worst, 3)}")


def test_criterion_5_relation_validity():
    ctx = PrecisionContext.for_digits(50)
    tolerance = mpmath.mpf(10) ** -40
    worst = mpmath.mpf(0)
    count = 0
    for n in range(2, SWEEP_GRID_MAX + 1):
        for relation in relations_for(n):
            word = relation_word(relation, n)
            residual = abs(eval_ln(word, ctx.decimal_digits) - const_ln(relation.value, ctx.decimal_digits))
            worst = max(worst, residual)
            count += 1
    ok = worst <= tolerance
    _report(5, "all relations numerically valid at 50 digits", ok,
            f"{count} relations, worst residual {mpmath.nstr(worst, 3)}")


def test_criterion_6_kernel_consistency(systems):
    grids = {
        lhs_word(system, index, variant).denominator
        for system in systems.values()
        for variant in (F, F_PRIME, F_SECOND)
        if admissible(system, variant)
        for index in range(1, system.rank + 1)
    }
    ok = max(grids) <= SWEEP_GRID_MAX and all(
        kernel_consistency(n) == (True, None) for n in range(2, SWEEP_GRID_MAX + 1)
    )
    _report(6, "relation kernel forces value 1 on every grid", ok,
            f"N = 2..{SWEEP_GRID_MAX}, sweep grids up to {max(grids)}")


def _closed_form_positive(family, n):
    def unit(i, dim):
        return tuple(Q(1) if k == i else Q(0) for k in range(dim))

    out = set()
    if family == "A":
        dim = n + 1
        for i in range(dim):
            for j in range(i + 1, dim):
                out.add(tuple(a - b for a, b in zip(unit(i, dim), unit(j, dim))))
        return out
    for i in range(n):
        for j in range(i + 1, n):
            out.add(tuple(a - b for a, b in zip(unit(i, n), unit(j, n))))
            out.add(tuple(a + b for a, b in zip(unit(i, n), unit(j, n))))
    if family == "B":
        out.update(unit(i, n) for i in range(n))
    if family == "C":
        out.update(tuple(2 * x for x in unit(i, n)) for i in range(n))
    return out


def test_criterion_7_root_data(systems):
    ok = True
    for system in systems.values():
        if 2 * len(system.positive_roots) != system.rank * system.coxeter_number:
            ok = False
        if sum(system.marks) != system.coxeter_number:
            ok = False
        if sum(system.comarks) != system.comark_sum:
            ok = False
    expected_comark_sum = {
        "A": lambda n: n + 1, "D": lambda n: 2 * n - 2, "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
        "B": lambda n: 2 * n - 1, "C": lambda n: 2 * n + 2,
        "F": lambda n: 9, "G": lambda n: 12,
    }
    for (family, rank), system in systems.items():
        if system.comark_sum != expected_comark_sum[family](rank):
            ok = False
    for n in range(2, 13):
        b = systems[("B", n)]
        if b.comarks != (1, 1) + (2,) * (n - 2) + (1,):
            ok = False
        if b.double_comarks != (1, 1) + (2,) * (n - 2) + (Q(1, 2),):
            ok = False
        c = systems[("C", n)]
        if c.comarks != (2,) * (n + 1):
            ok = False
        if c.double_comarks != (4,) + (2,) * (n - 1) + (4,):
            ok = False
    if systems[("F", 4)].comarks != (1, 2, 3, 2, 1):
        ok = False
    if systems[("F", 4)].double_comarks != (1, 2, 3, 1, Q(1, 2)):
        ok = False
    if systems[("G", 2)].comarks != (3, 3, 6):
        ok = False
    if systems[("G", 2)].double_comarks != (9, 3, 18):
        ok = False
    for family, top in (("A", 12), ("B", 12), ("C", 12), ("D", 12)):
        lo = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        for n in range(lo, top + 1):
            if set(systems[(family, n)].positive_roots) != _closed_form_positive(family, n):
                ok = False
    exceptional_counts = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}
    for key, count in exceptional_counts.items():
        if len(systems[key].positive_roots) != count:
            ok = False
    _report(7, "root data: counts, mark sums, comark tables, closed forms", ok,
            f"{len(systems)} systems")


def test_criterion_8_simply_laced_variant_coincidence(systems):
    keys = (
        [("A", n) for n in range(1, 9)]
        + [("D", n) for n in range(3, 9)]
        + [("E", n) for n in (6, 7, 8)]
    )
    ok = True
    checked = 0
    for key in keys:
        system = systems[key]
        for index in range(1, system.rank + 1):
            word = lhs_word(system, index, F)
            constant = rhs_constant(system, index, F)
            for variant in (F_PRIME, F_SECOND):
                if lhs_word(system, index, variant) != word:
                    ok = False
                if rhs_constant(system, index, variant) != constant:
                    ok = False
            checked += 1
    _report(8, "variants coincide on simply laced systems", ok,
            f"{checked} indices, ranks up to 8")
