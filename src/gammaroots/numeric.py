"""Arbitrary-precision evaluation of ln Gamma at rational arguments in (0,1).

The identities this package checks are proved exactly; this module is the
independent numeric cross-check, so it computes ln Gamma from first
principles: an integer argument shift in exact rational arithmetic, then the
Stirling series with exact Bernoulli coefficients and an explicit tail bound.
mpmath supplies only the big-float substrate (ln, pi, arithmetic).  What does
not depend on the argument is built once per PrecisionContext, and ln gamma
once per grid point, so repeated words cost table lookups.

The arithmetic is the operation sequence of the mpf operator form under
workprec(ctx.bits), rounded to nearest with ties to even after every
operation.  The logarithms, the descent, the word sum and the conversions
run on raw mpf tuples through mpmath.libmp (a * b is mpf_mul, n * a
mpf_mul_int, n / a mpf_rdiv_int, mpf(n) / m mpf_div of from_int(n) rounded
and from_int(m)), without the object dispatch and context switches; the
operator form's closing +a is left out, as every result is already rounded
to ctx.bits.  For x = p/q in lowest terms, z = (p + mq)/q and the descent
prod_k (p + kq)/q^m are already in lowest terms, since gcd(p + kq, q) =
gcd(p, q) = 1, so their integer numerators and denominators go to mpf_div
as they are: the same operands a reduced Fraction would give, without
building one.  ln gamma(j/N) = ln Gamma(j/N) - ln Gamma((N-j)/N) is one
mpf_sub, and ln gamma((N-j)/N) is its mpf_neg: rounding to nearest with
ties to even is symmetric under negation, so mpf_sub(b, a) is exactly
mpf_neg(mpf_sub(a, b)), and the negation is the subtraction's bits.

The Stirling sum runs on signed (mantissa, exponent) integers instead: each
product c_k * power, each partial sum and each next power is formed exactly
and rounded to ctx.bits to nearest with ties to even, the power by _round
and the product and the sum by the same steps written out, where a call per
operation would cost more than the operation.  mpf_mul and mpf_add are
correctly rounded, and a value has one canonical mpf, so the same sequence
of correctly rounded operations gives the same bits in either form; the
integer form only drops libmp's per-call tuple handling.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache

import mpmath
from mpmath.libmp import (
    fhalf,
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_rdiv_int,
    mpf_sub,
    round_nearest,
)

from .exact import DEFAULT_DIGITS, check_digits, ratio, validated_make, working_precision_bits

# B_2, B_4, ... (B_2k at index k - 1); grown on demand, read-only thereafter.
_EVEN_BERNOULLI: list[Q] = []
# (N, ctx) -> grid N's ln gamma(j/N) at index j as a raw mpf, None until
# eval_word_ln first reads j or N - j; _RATIOS.clear() empties it.
_RATIOS: dict[tuple, list] = {}


def _tangent_numbers(n: int) -> list[int]:
    """T_1..T_n (n >= 1) with tan x = sum_k T_k x^(2k-1) / (2k-1)!, in integers only.

    Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers" (2011), Algorithm TangentNumbers: O(n^2) small-by-big products,
    no divisions.
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli(n: int) -> Q:
    """Exact Bernoulli number B_n, with B_1 = -1/2.

    Even indices come from tangent numbers,
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)); the table at least doubles
    when it grows, so asking for B_2, B_4, ... in turn stays O(n^2).
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    if n < 2:
        return (Q(1), Q(-1, 2))[n]
    if n % 2:
        return Q(0)
    k = n // 2
    known = len(_EVEN_BERNOULLI)
    if k > known:
        count = max(k, 2 * known)
        tangent = _tangent_numbers(count)
        for i in range(known + 1, count + 1):
            four_i = 4**i
            b = Q(2 * i * tangent[i - 1], four_i * (four_i - 1))
            _EVEN_BERNOULLI.append(b if i % 2 else -b)
    return _EVEN_BERNOULLI[k - 1]


def stirling_tail_log10(shift: int, terms: int) -> float:
    """log10 of the tail bound |B_{2K+2}| / ((2K+1)(2K+2) z^(2K+1)) at z = shift."""
    k = terms
    b = bernoulli(2 * k + 2)
    return (
        math.log10(abs(b.numerator))
        - math.log10(b.denominator)
        - math.log10(2 * k + 1)
        - math.log10(2 * k + 2)
        - (2 * k + 1) * math.log10(shift)
    )


class PrecisionContext(
    namedtuple("PrecisionContext", "decimal_digits bits shift_count stirling_terms")
):
    """Evaluation parameters: target digits, mantissa bits, shift, series length.

    Every construction path validates, the constructor, _make and _replace:
    the fields are ints, the digits lie in MIN_DIGITS..MAX_DIGITS, bits is
    at least working_precision_bits(decimal_digits), and 1 <= stirling_terms
    <= 3 shift_count with the Stirling tail bound at z = shift_count below
    10^-(decimal_digits + 5).  The extra mantissa bits keep accumulated
    rounding inside the same margin, so ln_gamma's error bound holds for
    every context.  Up to K = 3z < pi z the series terms still decrease, and
    a longer series is refused before its Bernoulli numbers are built.
    Immutable and stateless: residual_bound reads a memo keyed on the digit
    count.
    """

    __slots__ = ()

    def __new__(cls, decimal_digits: int, bits: int, shift_count: int, stirling_terms: int):
        fields = (decimal_digits, bits, shift_count, stirling_terms)
        # A bool is no int here, and a float would truncate.
        if any(type(f) is not int for f in fields):
            raise ValueError(f"precision fields must be ints, got {fields!r}")
        check_digits(decimal_digits, "decimal_digits")
        if not (0 < stirling_terms <= 3 * shift_count
                and bits >= working_precision_bits(decimal_digits)
                and stirling_tail_log10(shift_count, stirling_terms) <= -(decimal_digits + 5)):
            raise ValueError(f"{fields}: bits, shift or terms short of what the digits need")
        return tuple.__new__(cls, fields)

    _make = classmethod(validated_make)

    @classmethod
    def for_digits(cls, decimal_digits: int = DEFAULT_DIGITS) -> PrecisionContext:
        """The least series for the working precision of the digits, at shift max(8, 0.55 (d + 5)).

        At z = shift the smallest tail bound, near K = pi z, is about
        10^(-2.7 z), below 10^-(d + 5) for z >= 0.55 (d + 5): some K <= 3z
        meets the bound for every admissible digit count.
        """
        check_digits(decimal_digits, "decimal_digits")
        target = -(decimal_digits + 5)
        shift = max(8, math.ceil(0.55 * (decimal_digits + 5)))
        terms = next(k for k in range(1, 3 * shift + 1) if stirling_tail_log10(shift, k) <= target)
        return cls(
            decimal_digits,
            working_precision_bits(decimal_digits),
            shift,
            terms,
        )

    @property
    def residual_bound(self) -> mpmath.mpf:
        """10^(10 - decimal_digits), the largest residual verify accepts."""
        return _residual_bound(self.decimal_digits)


# verify forms its residuals and their bound at mpmath's default 53 bits,
# whatever precision the caller has set, so a caller's workprec moves no report.
RESIDUAL_BITS = 53


@lru_cache(maxsize=None)
def _residual_bound(decimal_digits: int) -> mpmath.mpf:
    """10^(10 - decimal_digits) at RESIDUAL_BITS, once per digit count."""
    with mpmath.workprec(RESIDUAL_BITS):
        return mpmath.mpf(10) ** (10 - decimal_digits)


def _raw(q: Q, bits: int) -> tuple:
    """mpf(q.numerator) / q.denominator at bits, as a raw mpf."""
    numerator = from_int(q.numerator, bits, round_nearest)
    return mpf_div(numerator, from_int(q.denominator), bits, round_nearest)


def _signed(raw: tuple) -> tuple[int, int]:
    """A finite raw mpf as (signed mantissa, exponent)."""
    sign, man, exp, _ = raw
    return -man if sign else man, exp


def _round(man: int, exp: int, bits: int) -> tuple[int, int]:
    """man * 2^exp rounded to bits significant bits, to nearest with ties to even.

    libmp's round_nearest.  man is signed; the floor shift and the remainder
    below it give the same ties-to-even result for either sign.  The result
    may carry trailing zero bits, and bits + 1 bits when rounding carries
    into a power of two; its value is the correctly rounded one.
    """
    shift = man.bit_length() - bits
    if shift <= 0:
        return man, exp
    t = man >> (shift - 1)
    if t & 1 and (t & 2 or man & ((1 << (shift - 1)) - 1)):
        return (t >> 1) + 1, exp + shift
    return t >> 1, exp + shift


@lru_cache(maxsize=None)
def _stirling_data(ctx: PrecisionContext) -> tuple[tuple, tuple[tuple[int, int], ...]]:
    """ln(2 pi)/2 and the Stirling coefficients, rounded to ctx.bits.

    ln(2 pi)/2 is a raw mpf; B_2k / (2k (2k-1)) for k = 1..stirling_terms
    are (signed mantissa, exponent) pairs for ln_gamma's integer sum.
    """
    with mpmath.workprec(ctx.bits):
        half_ln_2pi = (mpmath.ln(2 * mpmath.pi) / 2)._mpf_
    coefficients = tuple(
        _signed(_raw(bernoulli(2 * k) / ((2 * k) * (2 * k - 1)), ctx.bits))
        for k in range(1, ctx.stirling_terms + 1)
    )
    return half_ln_2pi, coefficients


def ln_gamma(x, ctx: PrecisionContext | None = None) -> mpmath.mpf:
    """ln Gamma(x) for rational x in (0,1), absolute error below 10^-decimal_digits.

    Gamma(x) = Gamma(x + m) / (x (x+1) ... (x+m-1)) with m = ctx.shift_count,
    then Stirling at z = x + m:

        ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2
                      + sum_{k=1..K} B_{2k} / (2k (2k-1) z^(2k-1)) + R_K(z),
        |R_K(z)| <= |B_{2K+2}| / ((2K+1)(2K+2) z^(2K+1)),

    and the context keeps that bound below 10^-(decimal_digits + 5).  For
    x = p/q in lowest terms, z = (p + mq)/q and the descent product is
    prod_k (p + kq) / q^m, both exact and both already in lowest terms:
    gcd(p + kq, q) = gcd(p, q) = 1 for every k.  So the integer numerator
    and denominator go straight to mpf_div, which is exactly _raw of the
    reduced Fractions, without building them.  x must be an int or a
    Fraction, as exact.ratio reads it: a float, a str or a bool is refused.
    """
    ctx = ctx or PrecisionContext.for_digits()
    (p, q), m = ratio(x), ctx.shift_count
    if not 0 < p < q:
        raise ValueError(f"argument must lie in (0,1), got {x}")
    half_ln_2pi, coefficients = _stirling_data(ctx)
    bits, rnd = ctx.bits, round_nearest
    zf = mpf_div(from_int(p + m * q, bits, rnd), from_int(q), bits, rnd)
    total = mpf_mul(mpf_sub(zf, fhalf, bits, rnd), mpf_log(zf, bits, rnd), bits, rnd)
    total = mpf_add(mpf_sub(total, zf, bits, rnd), half_ln_2pi, bits, rnd)
    inv = mpf_rdiv_int(1, zf, bits, rnd)
    sq, sq_exp = _signed(mpf_mul(inv, inv, bits, rnd))
    pw, pw_exp = _signed(inv)
    acc, acc_exp = _signed(total)
    # acc += c * pw, then pw *= sq, each product and sum formed exactly and
    # rounded as _round rounds: the product and the sum written out, which
    # saves a call per operation, the power through _round.
    for c, c_exp in coefficients:
        man, exp = c * pw, c_exp + pw_exp
        if (shift := man.bit_length() - bits) > 0:
            t, exp = man >> (shift - 1), exp + shift
            man = (t + 1) >> 1 if t & 1 and (t & 2 or man & ((1 << (shift - 1)) - 1)) else t >> 1
        low = exp if exp < acc_exp else acc_exp
        acc, acc_exp = (acc << (acc_exp - low)) + (man << (exp - low)), low
        if (shift := acc.bit_length() - bits) > 0:
            t, acc_exp = acc >> (shift - 1), acc_exp + shift
            acc = (t + 1) >> 1 if t & 1 and (t & 2 or acc & ((1 << (shift - 1)) - 1)) else t >> 1
        pw, pw_exp = _round(pw * sq, pw_exp + sq_exp, bits)
    total = from_man_exp(acc, acc_exp, bits, rnd)
    descent = from_int(math.prod(range(p, p + m * q, q)), bits, rnd)
    descent = mpf_div(descent, from_int(q**m), bits, rnd)
    total = mpf_sub(total, mpf_log(descent, bits, rnd), bits, rnd)
    return mpmath.mp.make_mpf(total)


@lru_cache(maxsize=None)
def _ln_gamma_cached(p: int, q: int, ctx: PrecisionContext) -> tuple:
    """ln Gamma(p/q) as a raw mpf, p/q in lowest terms: a key of ints, hashed in C."""
    return ln_gamma(Q(p, q), ctx)._mpf_


def eval_word_ln(word, ctx: PrecisionContext | None = None) -> mpmath.mpf:
    """ln of a word's value: sum_j e_j (ln Gamma(j/N) - ln Gamma((N-j)/N)).

    Each grid point's ln gamma(j/N) is one mpf_sub of the two ln Gamma
    values, once per (N, ctx), in _RATIOS, which reads them from a cache
    keyed on the reduced pair (p, q) = (j, N) / gcd(j, N).  The same miss
    fills ln gamma((N-j)/N) as mpf_neg of it: rounding to nearest with ties
    to even is symmetric under negation, so mpf_sub(b, a) is exactly
    mpf_neg(mpf_sub(a, b)), the bits a second subtraction would give.
    Worst-case absolute error 2 sum_j |e_j| * 10^-decimal_digits.
    """
    ctx = ctx or PrecisionContext.for_digits()
    n, bits, rnd = word.denominator, ctx.bits, round_nearest
    ratios = _RATIOS.get((n, ctx)) or _RATIOS.setdefault((n, ctx), [None] * n)
    total = fzero
    for j, e in word.exponents:
        if (ratio := ratios[j]) is None:
            p, q = j // (g := math.gcd(j, n)), n // g
            ratio = mpf_sub(_ln_gamma_cached(p, q, ctx), _ln_gamma_cached(q - p, q, ctx), bits, rnd)
            ratios[j], ratios[n - j] = ratio, mpf_neg(ratio)
        total = mpf_add(total, mpf_mul_int(ratio, e, bits, rnd), bits, rnd)
    return mpmath.mp.make_mpf(total)
