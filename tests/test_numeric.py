"""ln Gamma from first principles, pinned against independent references.

The package computes ln Gamma with its own shift + Stirling evaluation; the
cross-checks here are a frozen externally computed value, the reflection and
multiplication functional equations, and mpmath's own loggamma.  The
straightforward per-call evaluation (Bernoulli numbers from their
recurrence, Stirling coefficients and ln primes rebuilt on every call) is
kept below as a reference, and the cached route must equal it bit for bit.
"""

import contextlib
import math
import random
from fractions import Fraction as Q
from functools import lru_cache

import mpmath
import pytest
from mpmath.libmp import (
    fhalf,
    from_man_exp,
    mpf_add,
    mpf_log,
    mpf_mul,
    mpf_pos,
    mpf_rdiv_int,
    mpf_sub,
    round_nearest,
)

from gammaroots import fateev, numeric
from gammaroots.exact import MAX_DIGITS, MIN_DIGITS, const_ln, working_precision_bits
from gammaroots.gammaword import GammaWord
from gammaroots.numeric import (
    PrecisionContext,
    bernoulli,
    eval_word_ln,
    ln_gamma,
    stirling_tail_log10,
)


@lru_cache(maxsize=None)
def reference_bernoulli_table(n):
    """B_0..B_n from sum_{j<=m} C(m+1, j) B_j = 0, in Fractions."""
    table = [Q(1)]
    for m in range(1, n + 1):
        acc = sum((math.comb(m + 1, j) * table[j] for j in range(m)), Q(0))
        table.append(-acc / (m + 1))
    return tuple(table)


def reference_ln_gamma(x, ctx, bernoulli_table=reference_bernoulli_table):
    """Shift by ctx.shift_count in Fractions, then Stirling with every term rebuilt.

    bernoulli_table(n) gives B_0..B_n; by default from the recurrence.
    """
    x = Q(x)
    z = x + ctx.shift_count
    descent = Q(1)
    for k in range(ctx.shift_count):
        descent *= x + k
    table = bernoulli_table(2 * ctx.stirling_terms)
    with mpmath.workprec(ctx.bits):
        zf = mpmath.mpf(z.numerator) / z.denominator
        total = (zf - mpmath.mpf(1) / 2) * mpmath.ln(zf) - zf + mpmath.ln(2 * mpmath.pi) / 2
        inv = 1 / zf
        inv2 = inv * inv
        power = inv
        for k in range(1, ctx.stirling_terms + 1):
            c = table[2 * k] / ((2 * k) * (2 * k - 1))
            total += mpmath.mpf(c.numerator) / c.denominator * power
            power *= inv2
        total -= mpmath.ln(mpmath.mpf(descent.numerator) / descent.denominator)
        return +total


def reference_const_ln(constant, decimal_digits):
    """sum_p e_p ln p with ln p recomputed for every base."""
    with mpmath.workprec(working_precision_bits(decimal_digits)):
        total = mpmath.mpf(0)
        for base, numerator, denominator in constant.powers:
            total += mpmath.mpf(numerator) / denominator * mpmath.ln(base)
        return +total


def reference_eval_word_ln(word, ctx, ln_gamma_of=reference_ln_gamma):
    """The word's ln with mpf operators, ln Gamma evaluated afresh for every factor.

    ln_gamma_of(x, ctx) gives ln Gamma; by default reference_ln_gamma.
    """
    n = word.denominator
    with mpmath.workprec(ctx.bits):
        total = mpmath.mpf(0)
        for j, e in word.exponents:
            total += e * (ln_gamma_of(Q(j, n), ctx) - ln_gamma_of(Q(n - j, n), ctx))
        return +total


@lru_cache(maxsize=None)
def cached_reference_ln_gamma(x, ctx):
    """reference_ln_gamma once per (argument, context): it is a pure function."""
    return reference_ln_gamma(x, ctx)


def reference_residual(word, rhs, ctx):
    """verify's residual string and pass flag, by mpf operators at the precision in force."""
    residual = abs(
        reference_eval_word_ln(word, ctx, cached_reference_ln_gamma)
        - reference_const_ln(rhs, ctx.decimal_digits)
    )
    return mpmath.nstr(residual, 6), residual <= mpmath.mpf(10) ** (10 - ctx.decimal_digits)


# Gamma(1/6) logarithm, computed offline at 60 significant digits.
LN_GAMMA_SIXTH = "1.71673343507824046052784630958793075727937748710540556387316"


def test_bernoulli_literals():
    expected = [
        Q(1), Q(-1, 2), Q(1, 6), Q(0), Q(-1, 30), Q(0), Q(1, 42), Q(0),
        Q(-1, 30), Q(0), Q(5, 66), Q(0), Q(-691, 2730),
    ]
    assert [bernoulli(n) for n in range(13)] == expected
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_precision_context_meets_tail_bound():
    for digits in (10, 30, 60, 100):
        ctx = PrecisionContext.for_digits(digits)
        assert stirling_tail_log10(ctx.shift_count, ctx.stirling_terms) <= -(digits + 5)
        assert ctx.bits > digits * 3.3
    with pytest.raises(ValueError, match="at least 10"):
        PrecisionContext.for_digits(9)
    with pytest.raises(ValueError, match="at most 1000"):
        PrecisionContext.for_digits(1001)


def test_the_first_shift_has_a_series_for_every_digit_count():
    """for_digits tries one shift: at every admissible digit count some K <= 3 shift will do."""
    for digits in range(MIN_DIGITS, MAX_DIGITS + 1):
        ctx = PrecisionContext.for_digits(digits)
        assert ctx.shift_count == max(8, math.ceil(0.55 * (digits + 5))), digits
        assert stirling_tail_log10(ctx.shift_count, ctx.stirling_terms) <= -(digits + 5)


def unchecked_context(decimal_digits, bits, shift_count, stirling_terms):
    """A PrecisionContext the constructor would refuse, built as the bare tuple.

    The few-bit checks below need contexts short of the working precision
    and of the Stirling tail bound, where rounding ties occur.
    """
    return tuple.__new__(PrecisionContext, (decimal_digits, bits, shift_count, stirling_terms))


def test_a_context_short_of_the_bounds_raises():
    """Built unchecked, (60, 243, 0, 3) gives ln Gamma(1/2) = 0.58878, not ln sqrt(pi) = 0.57236.

    A context is the one its digit count derives: fields short of the
    bounds, of another type, or beyond the derived values, more bits, a
    longer shift or more terms, are all refused on every construction path.
    """
    doctored = unchecked_context(60, 243, 0, 3)
    assert mpmath.nstr(ln_gamma(Q(1, 2), doctored), 5) == "0.58878"
    ctx = PrecisionContext.for_digits(60)
    digits, bits, shift, terms = ctx
    refused = [
        (60, 243, 0, 3),
        (digits, bits - 1, shift, terms),
        (digits, bits, shift, terms - 1),
        (digits, bits, shift, 3 * shift + 1),
        (digits, bits, shift, 0),
        (9, bits, shift, terms),
        (1001, bits, shift, terms),
        (digits, float(bits), shift, terms),
        (digits, bits, True, terms),
        (digits, bits + 7, shift + 3, terms + 1),
        (digits, bits + 1, shift, terms),
        (digits, bits, shift + 1, terms),
        (digits, bits, shift, terms + 1),
        (digits - 1, bits, shift, terms),
    ]
    for fields in refused:
        for make in (
            lambda: PrecisionContext(*fields),
            lambda: PrecisionContext._make(fields),
            lambda: ctx._replace(**dict(zip(PrecisionContext._fields, fields))),
        ):
            with pytest.raises(ValueError):
                make()
    assert PrecisionContext._make(ctx) == ctx == PrecisionContext(*ctx) == ctx._replace(bits=bits)
    assert ctx == PrecisionContext(
        decimal_digits=digits, bits=bits, shift_count=shift, stirling_terms=terms)


def test_ln_gamma_half():
    ctx = PrecisionContext.for_digits(60)
    with mpmath.workprec(300):
        diff = abs(ln_gamma(Q(1, 2), ctx) - mpmath.ln(mpmath.pi) / 2)
    assert diff < mpmath.mpf(10) ** -58


def test_ln_gamma_frozen_reference():
    ctx = PrecisionContext.for_digits(50)
    with mpmath.workprec(300):
        reference = mpmath.mpf(LN_GAMMA_SIXTH)
        diff = abs(ln_gamma(Q(1, 6), ctx) - reference)
    assert diff < mpmath.mpf(10) ** -49


def test_ln_gamma_domain():
    ctx = PrecisionContext.for_digits(20)
    for bad in (Q(0), Q(1), Q(3, 2), Q(-1, 4)):
        with pytest.raises(ValueError):
            ln_gamma(bad, ctx)


def test_ln_gamma_refuses_an_argument_that_is_no_int_or_fraction():
    """A float, a str or a bool is no exact rational, so it raises, never coerced.

    An int is read, and refused only because none lies in (0,1); a
    Fraction evaluates.
    """
    ctx = PrecisionContext.for_digits(20)
    for bad in (0.1, "1/3", True):
        with pytest.raises(ValueError, match="not an int or Fraction"):
            ln_gamma(bad, ctx)
    for outside in (0, 1):
        with pytest.raises(ValueError, match=r"must lie in \(0,1\)"):
            ln_gamma(outside, ctx)
    assert ln_gamma(Q(1, 3), ctx) == reference_ln_gamma(Q(1, 3), ctx)


def test_reflection_functional_equation():
    ctx = PrecisionContext.for_digits(60)
    rng = random.Random(5)
    with mpmath.workprec(ctx.bits):
        for _ in range(12):
            n = rng.randint(2, 30)
            j = rng.randint(1, n - 1)
            x = Q(j, n)
            xf = mpmath.mpf(j) / n
            lhs = ln_gamma(x, ctx) + ln_gamma(1 - x, ctx)
            rhs = mpmath.ln(mpmath.pi) - mpmath.ln(mpmath.sin(mpmath.pi * xf))
            assert abs(lhs - rhs) < mpmath.mpf(10) ** -55


def test_multiplication_functional_equation():
    # prod_{i<d} Gamma(x + i/d) = (2 pi)^((d-1)/2) d^(1/2 - dx) Gamma(dx)
    ctx = PrecisionContext.for_digits(60)
    with mpmath.workprec(ctx.bits):
        for d in range(2, 7):
            x = Q(1, 7 * d)
            lhs = sum(ln_gamma(x + Q(i, d), ctx) for i in range(d))
            rhs = (
                Q(d - 1, 2) * mpmath.ln(2 * mpmath.pi)
                + (Q(1, 2) - d * x) * mpmath.ln(d)
                + ln_gamma(d * x, ctx)
            )
            assert abs(lhs - rhs) < mpmath.mpf(10) ** -55


def test_gamma_ratio_multiplication_form():
    # the same identity for gamma(x) = Gamma(x)/Gamma(1-x): every 2 pi cancels
    ctx = PrecisionContext.for_digits(60)

    def ln_ratio(x):
        return ln_gamma(x, ctx) - ln_gamma(1 - x, ctx)

    with mpmath.workprec(ctx.bits):
        for d in range(2, 7):
            x = Q(1, 7 * d)
            lhs = sum(ln_ratio(x + Q(i, d)) for i in range(d))
            rhs = (1 - 2 * d * x) * mpmath.ln(d) + ln_ratio(d * x)
            assert abs(lhs - rhs) < mpmath.mpf(10) ** -55


def test_against_mpmath_loggamma():
    ctx = PrecisionContext.for_digits(40)
    rng = random.Random(17)
    with mpmath.workprec(250):
        for _ in range(25):
            den = rng.randint(2, 46)
            num = rng.randint(1, den - 1)
            mine = ln_gamma(Q(num, den), ctx)
            reference = mpmath.loggamma(mpmath.mpf(num) / den)
            assert abs(mine - reference) < mpmath.mpf(10) ** -39


def test_precision_scales_with_digits():
    x = Q(1, 7)
    with mpmath.workprec(600):
        coarse = ln_gamma(x, PrecisionContext.for_digits(20))
        fine = ln_gamma(x, PrecisionContext.for_digits(120))
        reference = mpmath.loggamma(mpmath.mpf(1) / 7)
        assert abs(coarse - reference) < mpmath.mpf(10) ** -19
        assert abs(fine - reference) < mpmath.mpf(10) ** -119


def test_eval_word_ln_matches_direct_sum():
    ctx = PrecisionContext.for_digits(50)
    word = GammaWord(4, ((1, 2),))
    with mpmath.workprec(ctx.bits):
        direct = 2 * (ln_gamma(Q(1, 4), ctx) - ln_gamma(Q(3, 4), ctx))
        assert abs(eval_word_ln(word, ctx) - direct) < mpmath.mpf(10) ** -45


def test_bernoulli_matches_recurrence():
    reference = reference_bernoulli_table(400)
    assert [bernoulli(n) for n in range(401)] == list(reference)


def _grid_points(max_n):
    return sorted({Q(j, n) for n in range(2, max_n + 1) for j in range(1, n)})


def test_ln_gamma_bit_exact_on_every_sweep_grid():
    ctx = PrecisionContext.for_digits(60)
    for x in _grid_points(46):
        assert ln_gamma(x, ctx) == reference_ln_gamma(x, ctx), x


def mpmath_bernoulli_table(n):
    """B_0..B_n from mpmath.bernfrac, mpmath's own exact Bernoulli numbers.

    The recurrence takes seconds to reach the B_844 of 800 digits.
    """
    return tuple(Q(*mpmath.bernfrac(k)) for k in range(n + 1))


# digits -> (largest grid denominator, grid points sampled, Bernoulli source).
# 800 digits is the precision of the benchmark's crosscheck workload.
OTHER_PRECISIONS = {
    20: (46, 12, reference_bernoulli_table),
    200: (46, 12, reference_bernoulli_table),
    800: (24, 3, mpmath_bernoulli_table),
}


@pytest.mark.parametrize("digits", sorted(OTHER_PRECISIONS))
def test_ln_gamma_bit_exact_at_other_precisions(digits):
    ctx = PrecisionContext.for_digits(digits)
    max_n, count, table = OTHER_PRECISIONS[digits]
    for x in random.Random(digits).sample(_grid_points(max_n), count):
        assert ln_gamma(x, ctx) == reference_ln_gamma(x, ctx, table), x


@lru_cache(maxsize=None)
def _libmp_stirling_data(ctx):
    with mpmath.workprec(ctx.bits):
        half_ln_2pi = (mpmath.ln(2 * mpmath.pi) / 2)._mpf_
    coefficients = tuple(
        numeric._raw(bernoulli(2 * k) / ((2 * k) * (2 * k - 1)), ctx.bits)
        for k in range(1, ctx.stirling_terms + 1)
    )
    return half_ln_2pi, coefficients


def libmp_ln_gamma(x, ctx):
    """ln Gamma(x) as a raw mpf, every operation one mpmath.libmp call at ctx.bits.

    The operation sequence ln_gamma ran before its Stirling sum moved onto
    integers: 3 rounded libmp calls per Stirling term.
    """
    x = Q(x)
    p, q, m = x.numerator, x.denominator, ctx.shift_count
    descent = Q(math.prod(p + k * q for k in range(m)), q**m)
    half_ln_2pi, coefficients = _libmp_stirling_data(ctx)
    bits, rnd = ctx.bits, round_nearest
    zf = numeric._raw(x + m, bits)
    total = mpf_mul(mpf_sub(zf, fhalf, bits, rnd), mpf_log(zf, bits, rnd), bits, rnd)
    total = mpf_add(mpf_sub(total, zf, bits, rnd), half_ln_2pi, bits, rnd)
    inv = mpf_rdiv_int(1, zf, bits, rnd)
    inv2 = mpf_mul(inv, inv, bits, rnd)
    power = inv
    for c in coefficients:
        total = mpf_add(total, mpf_mul(c, power, bits, rnd), bits, rnd)
        power = mpf_mul(power, inv2, bits, rnd)
    total = mpf_sub(total, mpf_log(numeric._raw(descent, bits), bits, rnd), bits, rnd)
    return mpf_pos(total, bits, rnd)


def test_integer_stirling_sum_matches_libmp_on_every_grid_to_120():
    ctx = PrecisionContext.for_digits(60)
    for x in _grid_points(120):
        assert ln_gamma(x, ctx)._mpf_ == libmp_ln_gamma(x, ctx), x


# digits -> seeded random rationals compared.  At 800 digits the last
# Stirling terms sit hundreds of bits below the running total.
RANDOM_RATIONALS = {20: 600, 200: 150, 800: 12}


@pytest.mark.parametrize("digits", sorted(RANDOM_RATIONALS))
def test_integer_stirling_sum_matches_libmp_on_random_rationals(digits):
    ctx = PrecisionContext.for_digits(digits)
    rng = random.Random(1000 + digits)
    for _ in range(RANDOM_RATIONALS[digits]):
        q = rng.randrange(2, 10 ** rng.randrange(2, 40))
        x = Q(rng.randrange(1, q), q)
        assert ln_gamma(x, ctx)._mpf_ == libmp_ln_gamma(x, ctx), x


def test_numeric_route_matches_references_at_few_bits():
    """At 2..40 bits rounding ties occur, so the written-out rounding is exercised.

    At working precision a product or sum is almost never an exact tie; with
    a few bits it sometimes is, and the integer Stirling sum and the word
    sum must still equal their libmp and mpf-operator references bit for
    bit.  With no shift the series runs at z = x < 1, where it approximates
    nothing but its terms stay as large as the sum, so a tie in a product
    shows.
    """
    for bits in range(2, 25):
        ctx = unchecked_context(10, bits, 0, 3)
        for x in _grid_points(39):
            assert ln_gamma(x, ctx)._mpf_ == libmp_ln_gamma(x, ctx), (x, ctx)
    rng = random.Random(11)
    for bits in range(2, 41):
        ctx = unchecked_context(10, bits, rng.randrange(1, 12), rng.randrange(1, 12))
        for _ in range(12):
            q = rng.randrange(2, 10 ** rng.randrange(1, 6))
            x = Q(rng.randrange(1, q), q)
            assert ln_gamma(x, ctx)._mpf_ == libmp_ln_gamma(x, ctx), (x, ctx)
        for _ in range(6):
            n = rng.randrange(2, 40)
            exponents = tuple((j, rng.choice((-1, 1)) * rng.randrange(1, 40))
                              for j in sorted(rng.sample(range(1, n), min(n - 1, 6))))
            word = GammaWord(n, exponents)
            expected = reference_eval_word_ln(word, ctx, cached_reference_ln_gamma)
            assert eval_word_ln(word, ctx)._mpf_ == expected._mpf_, (word, ctx)


def test_round_is_libmp_round_nearest():
    """Ties go to even, for either sign, and a carry may reach a power of two."""
    rng = random.Random(3)
    cases = [(m, b) for m in range(-300, 301) for b in (1, 2, 3, 5)]
    cases += [(rng.getrandbits(rng.randrange(1, 400)) * rng.choice((1, -1)), rng.randrange(1, 200))
              for _ in range(3000)]
    for man, bits in cases:
        exp = rng.randrange(-50, 50)
        expected = from_man_exp(man, exp, bits, round_nearest)
        assert from_man_exp(*numeric._round(man, exp, bits)) == expected, (man, exp, bits)


def _assert_numeric_route_bit_exact(sides, ctx, prec=None):
    """eval_word_ln, const_ln and verify's residual against their mpf-operator references.

    Each word is also paired with the next pair's right side, which gives
    large residuals and failing flags where the pair differs.  The
    references run at mpmath's default precision; the route, eval_word_ln,
    const_ln and the verdict, runs under workprec(prec) when prec is given.
    """
    route = mpmath.workprec(prec) if prec else contextlib.nullcontext()
    for word, rhs in sides:
        expected = reference_eval_word_ln(word, ctx, cached_reference_ln_gamma)
        with route:
            assert eval_word_ln(word, ctx)._mpf_ == expected._mpf_, word
        expected = reference_const_ln(rhs, ctx.decimal_digits)
        with route:
            assert const_ln(rhs, ctx.decimal_digits)._mpf_ == expected._mpf_, rhs
    wrong_sides = [rhs for _, rhs in sides[1:] + sides[:1]]
    for (word, rhs), wrong in zip(sides, wrong_sides):
        for side in (rhs, wrong):
            expected = reference_residual(word, side, ctx)
            with route:
                status, _, residual = fateev._verdict(word, side, "numeric", ctx)
            assert (residual, status == fateev.NUMERIC_ONLY) == expected


def test_eval_word_ln_bit_exact_on_paper_words(sweep_sides):
    """Every distinct word and right side of the default sweep, at 60 digits."""
    assert len(sweep_sides) == 349
    _assert_numeric_route_bit_exact(sweep_sides, PrecisionContext.for_digits(60))


def complement(word):
    """The word with each exponent moved from j to N - j, which reads the negated ratios."""
    n = word.denominator
    return GammaWord(n, tuple(sorted((n - j, e) for j, e in word.exponents)))


@lru_cache(maxsize=None)
def cached_ln_gamma(x, ctx):
    """ln_gamma(x, ctx) once per (argument, context): it is a pure function."""
    return ln_gamma(x, ctx)


def _assert_complements_bit_exact(ctx, max_n=96):
    """On every grid N <= max_n, gamma(j/N) above 1/2 reads the subtraction done the other way round.

    eval_word_ln reads a point above 1/2 as mpf_neg of its lower half's
    entry; each such complement, read through eval_word_ln as the word
    gamma(j/N)^1, must equal mpf_sub(ln Gamma(j/N), ln Gamma((N-j)/N)) at
    ctx.bits, subtracted here, and gamma(1/2) must read as zero.  The
    table's misses and the subtraction here share one ln_gamma memo, so
    each ln Gamma is evaluated once.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric, "ln_gamma", cached_ln_gamma)
        for n in range(2, max_n + 1):
            for j in range((n + 1) // 2, n):
                left, right = (cached_ln_gamma(Q(k, n), ctx)._mpf_ for k in (j, n - j))
                expected = mpf_sub(left, right, ctx.bits, round_nearest)
                assert eval_word_ln(GammaWord(n, ((j, 1),)), ctx)._mpf_ == expected, (n, j, ctx)


# Few-bit contexts, where the ratio subtractions round at ties: the two
# digit counts below split bits 2..24 between them.
TIE_BITS = {20: range(2, 13), 200: range(13, 25)}


@pytest.mark.parametrize("digits", [20, 200])
def test_numeric_route_bit_exact_on_sampled_sweep_sides(sweep_sides, digits):
    """A seeded sample at mpmath's default precision, and part of it at 12 bits and at ctx.bits.

    verify forms the residual and its bound at mpmath's default 53 bits,
    whatever the caller's workprec, so the strings and flags under
    workprec(12) and workprec(ctx.bits) are the default-precision ones.

    Each sampled word's complement is one more input: with the table
    emptied, it reads by negation the entries its word's factors read
    directly, and the other way round.  The same holds at few-bit
    contexts, and on every grid N <= 96 each complement equals the
    subtraction done the other way round.
    """
    ctx = PrecisionContext.for_digits(digits)
    sample = random.Random(digits).sample(sweep_sides, 40)
    numeric._ln_ratio.cache_clear()
    sides = [*sample, *((complement(w), rhs) for w, rhs in sample)]
    _assert_numeric_route_bit_exact(sides, ctx)
    bound = mpmath.mpf(10) ** (10 - digits)
    for prec in (12, ctx.bits):
        _assert_numeric_route_bit_exact(sample[:10], ctx, prec)
        with mpmath.workprec(prec):
            assert numeric._residual_bound(digits) == bound
    _assert_complements_bit_exact(ctx)
    for bits in TIE_BITS[digits]:
        tie_ctx = unchecked_context(10, bits, 0, 3)
        _assert_numeric_route_bit_exact(sides[:10] + sides[40:50], tie_ctx)
        _assert_complements_bit_exact(tie_ctx)


def test_ln_gamma_runs_once_per_distinct_argument(monkeypatch, systems, sweep_sides):
    """Every ratio lookup that misses reaches the module-level ln_gamma exactly twice.

    Over the whole sweep in numeric mode too, with the table emptied: one
    ln_gamma call per distinct reduced argument other than 1/2, whose
    ratio reads as zero, two per miss of _ln_ratio, and one lookup of a
    reduced lower-half pair per factor off 1/2, as a point above 1/2 reads
    its lower half negated.  ln_gamma is reached through the module
    attribute, which is what perfbench's tracer wraps.
    """
    ctx = PrecisionContext.for_digits(37)  # used by no other test, so nothing is cached
    seen = []

    def counted(x, c):
        seen.append(x)
        return ln_gamma(x, c)

    monkeypatch.setattr(numeric, "ln_gamma", counted)
    word = GammaWord(12, ((1, 2), (5, -1), (6, 3), (7, 1), (11, -2)))
    first = eval_word_ln(word, ctx)
    assert sorted(seen) == [Q(1, 12), Q(5, 12), Q(7, 12), Q(11, 12)]
    assert eval_word_ln(word, ctx) == first
    assert eval_word_ln(GammaWord(4, ((2, 1),)), ctx) == 0
    assert len(seen) == 4

    fresh = lru_cache(maxsize=None)(numeric._ln_ratio.__wrapped__)
    lookups = []

    def looked_up(p, q, c):
        lookups.append((p, q))
        return fresh(p, q, c)

    monkeypatch.setattr(numeric, "_ln_ratio", looked_up)
    seen.clear()
    ctx = PrecisionContext.for_digits(60)
    fateev.verify_all(systems.values(), mode="numeric", ctx=ctx)
    points = {(w.denominator, j) for w, _ in sweep_sides for j, _ in w.exponents}
    arguments = {Q(j, n) for n, j in points} | {Q(n - j, n) for n, j in points}
    assert Q(1, 2) in arguments
    assert sorted(seen) == sorted(arguments - {Q(1, 2)}) and len(seen) == 266
    assert len(seen) == 2 * fresh.cache_info().misses
    factors = [(n, j) for w, _ in sweep_sides for n in [w.denominator] for j, _ in w.exponents]
    assert len(lookups) == sum(2 * j != n for n, j in factors)
    assert all(math.gcd(p, q) == 1 and 2 * p < q for p, q in lookups)
    assert {Q(p, q) for p, q in lookups} | {Q(q - p, q) for p, q in lookups} == set(seen)
