"""Arbitrary-precision evaluation of ln Gamma at rational arguments in (0,1).

The identities this package checks are proved exactly; this module is the
independent numeric cross-check, so it computes ln Gamma from first
principles: an integer argument shift in exact rational arithmetic, then the
Stirling series with exact Bernoulli coefficients and an explicit tail bound.
The whole cross-check lives here, and one number sets it: the digit count,
from which PrecisionContext derives every other field, and against which
residual accepts or refuses an identity.  What does not depend on the
argument is built once per context, ln p once per prime of a right side
and precision, and each ln gamma ratio once per reduced point below 1/2,
so repeated words cost table lookups.  Each memo here keeps what it is
given for the life of the process, so each is kept for its measured hits
and states its growth bound; _ln itself keeps nothing, as its other
arguments, ln_gamma's two per call and ln(2 pi), never recur.

The arithmetic is the operation sequence of the mpf operator form under
workprec(ctx.bits), rounded to nearest with ties to even after every
operation, on integers: every intermediate value of ln_gamma and of the
word sum is a signed (mantissa, exponent) pair, and each operation is
formed exactly and rounded by one primitive.  _round rounds a product (a * b
is mpf_mul, e * a mpf_mul_int), _quotient is mpf(n) / m and 1 / a (mpf_div
of from_int(n) rounded and from_int(m)), and _sum is a + b and a - b
(mpf_add, mpf_sub); the Stirling loop and _dot, which sums the words and
the right sides, write those roundings out inline in one form, where a
call per operation would cost more than the operation.
libmp's operations are correctly rounded, and a value has one canonical
mpf, so the same sequence of correctly rounded operations gives the same
bits in either form; the integer form only drops libmp's per-call tuple
handling.  The logarithms are integer code too: _ln is the correctly
rounded logarithm, by a table reduction, a short fixed-point series and
Ziv's rounding test (Brent & Zimmermann, Modern Computer Arithmetic, ch.
3-4), and equals mpf_log on every argument the pinned runs take; pi, for
ln(2 pi)/2, is correctly rounded the same way.  const_ln_pair sums the
right side from these primitives, and residual subtracts, compares and
prints with integers alone, so verify loads no mpmath in any mode, with
one exception: a residual below 2^-3,500, which _six_digits hands to
mpmath's to_str; no pinned run comes near one.  mpmath is otherwise left
to the public mpf returns, eval_word_ln and exact.const_ln, built from
the pairs by to_mpf for the acceptance gate's mpf arithmetic, and to the
tests that compare against it.  The operator form's closing +a is left
out, as every result is already rounded to ctx.bits.

For x = p/q in lowest terms, z = (p + mq)/q and the descent prod_k (p +
kq)/q^m are already in lowest terms, since gcd(p + kq, q) = gcd(p, q) = 1,
so their integer numerators and denominators go to _quotient as they are:
the same operands a reduced Fraction would give, without building one.
ln gamma(p/q) = ln Gamma(p/q) - ln Gamma((q-p)/q) is one rounded
difference for p/q < 1/2, and a factor gamma((q-p)/q)^e reads it times
-e: rounding to nearest with ties to even is symmetric under negation, so
the rounded -e * (a - b) has exactly the bits of e * (b - a), the
subtraction done the other way round.  ln gamma(1/2) is exactly zero,
the subtraction of one value from itself.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache
from typing import TYPE_CHECKING

from .exact import (
    DEFAULT_DIGITS, UndecidedRounding, check_digits, ratio, validated_make, working_precision_bits
)

if TYPE_CHECKING:
    import mpmath

    from .exact import FactoredConstant

# B_2, B_4, ... (B_2k at index k - 1); grown on demand, read-only thereafter.
# bernoulli at least doubles it, so it holds up to twice the largest index
# asked, which _context_fields keeps at 3 shift + 1 or below: 64 entries at
# 60 digits, 512 (0.24 MB) at 800.
_EVEN_BERNOULLI: list[Q] = []


def _tangent_numbers(n: int) -> list[int]:
    """T_1..T_n (n >= 1) with tan x = sum_k T_k x^(2k-1) / (2k-1)!, in integers only.

    Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers" (2011), Algorithm TangentNumbers: O(n^2) small-by-big products,
    no divisions, from the start values T_k = (k - 1)!.
    """
    t = [0, *map(math.factorial, range(n))]
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
    """log10 of the tail bound |B_{2K+2}| / ((2K+1)(2K+2) z^(2K+1)) at z = shift, K = terms."""
    b = bernoulli(2 * terms + 2)
    below = b.denominator * (2 * terms + 1) * (2 * terms + 2)
    return math.log10(abs(b.numerator)) - math.log10(below) - (2 * terms + 1) * math.log10(shift)


@lru_cache(maxsize=None, typed=True)
def _context_fields(decimal_digits: int) -> tuple[int, int, int, int]:
    """The fields of the digit count's one context: (digits, bits, shift, terms).

    The digits are an int in MIN_DIGITS..MAX_DIGITS, bits is
    working_precision_bits(digits), the shift is max(8, ceil(0.55 (d + 5)))
    and terms the least K whose Stirling tail bound at z = shift lies below
    10^-(d + 5).  At z = shift the smallest tail bound, near K = pi z, is
    about 10^(-2.7 z), below 10^-(d + 5) for z >= 0.55 (d + 5): some K <= 3z
    meets the bound for every admissible digit count, and up to K = 3z <
    pi z the series terms still decrease.  Typed, so a float or a bool is
    a key of its own, refused here, never read as the equal int's entry.
    Memoized, as every context construction and every right side reads
    it: contexts are built per call, and a Tier-1 run hits it over 6,000
    times; without the memo a warm gammaword.eval_ln takes about 57 us
    instead of 8.  One entry per admissible digit count, 991 at most; a
    refused key raises and is not kept.
    """
    # A bool is no int here, and a float would truncate.
    if type(decimal_digits) is not int:
        raise ValueError(f"decimal_digits must be an int, got {decimal_digits!r}")
    check_digits(decimal_digits, "decimal_digits")
    target = -(decimal_digits + 5)
    shift = max(8, math.ceil(0.55 * (decimal_digits + 5)))
    terms = next(k for k in range(1, 3 * shift + 1) if stirling_tail_log10(shift, k) <= target)
    return decimal_digits, working_precision_bits(decimal_digits), shift, terms


class PrecisionContext(
    namedtuple("PrecisionContext", "decimal_digits bits shift_count stirling_terms")
):
    """Evaluation parameters of one digit count: digits, mantissa bits, shift, series length.

    The digit count sets the other three fields (see _context_fields): the
    working precision, the shift and the shortest Stirling series whose
    tail bound lies below 10^-(decimal_digits + 5).  The extra mantissa
    bits keep accumulated rounding inside the same margin, so ln_gamma's
    error bound holds for every context.  Every construction path, the
    constructor, _make and _replace, raises ValueError on a field that is
    no int or differs from the derived value, so every context any path
    builds is for_digits of its digit count.  Immutable and stateless.
    """

    __slots__ = ()

    def __new__(cls, decimal_digits: int, bits: int, shift_count: int, stirling_terms: int):
        fields = (decimal_digits, bits, shift_count, stirling_terms)
        # A bool or a float equal to the derived int is refused too.
        if any(type(f) is not int for f in fields) or fields != _context_fields(decimal_digits):
            raise ValueError(f"{fields!r} is not the context its digit count derives")
        return tuple.__new__(cls, fields)

    _make = classmethod(validated_make)

    @classmethod
    def for_digits(cls, decimal_digits: int = DEFAULT_DIGITS) -> PrecisionContext:
        """The context of the digit count, an int in MIN_DIGITS..MAX_DIGITS, else ValueError."""
        return cls(*_context_fields(decimal_digits))


# verify forms its residuals and their bound at mpmath's default 53 bits,
# in integers, so no precision a caller sets in mpmath moves a report.
RESIDUAL_BITS = 53


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


def _quotient(a: int, b: int, bits: int) -> tuple[int, int]:
    """a rounded to bits, then over b > 0 rounded: mpf_div(from_int(a, bits), from_int(b), bits).

    As in mpf_div, the dividend's exponent stays apart: only its rounded
    mantissa is divided, to at least bits + 2 quotient bits, and a nonzero
    remainder appends one sticky bit.  The floor quotient and the exact one
    then lie strictly between the same two integers, and every rounding
    boundary at bits is an integer there, so _round gives both the same
    answer, for either sign.
    """
    a, exp = _round(a, 0, bits)
    extra = bits + b.bit_length() - a.bit_length() + 2
    quot, rem = divmod(a << extra, b)
    return _round(2 * quot + (rem > 0), exp - extra - 1, bits)


def _sum(a: int, a_exp: int, b: int, b_exp: int, bits: int) -> tuple[int, int]:
    """a 2^a_exp + b 2^b_exp formed exactly and rounded by _round: mpf_add's bits.

    An exact zero sum is (0, exponent), which reads as libmp's fzero.
    """
    low = min(a_exp, b_exp)
    return _round((a << a_exp - low) + (b << b_exp - low), low, bits)


def _arctan(t: int, prec: int, sign: int, divisor: int = 0) -> tuple[int, int]:
    """sum_j sign^j t^(2j+1) / (2j+1) in fixed point at prec bits, and its number of terms J.

    atanh for sign 1, atan for sign -1, at t 2^-prec in [0, 1/2].  Each
    power is the last times t^2, or over divisor when t = 2^prec // q and
    divisor = q^2, which costs no product.  Every product and quotient is
    floored: each power lies below the exact one by under 3 units of
    2^-prec, each term errs by under 4, and the terms past the first zero
    power sum to under 4, so the result lies within 4 (J + 1) units of the
    series at t, and an error of t moves it by at most twice as much.
    """
    total, power, square, j = 0, t, t * t >> prec, 1
    while power:
        total += power // j if sign > 0 or not j & 2 else -(power // j)
        power, j = power // divisor if divisor else power * square >> prec, j + 2
    return total, j >> 1


@lru_cache(maxsize=None)
def _machin(prec: int, terms: tuple[tuple[int, int, int], ...]) -> int:
    """sum c arctan(1/q) over the (c, q, sign) terms, at prec bits within 2 units of 2^-prec.

    The terms are summed at prec + 20 bits and floored to prec: below
    65,536 bits their _arctan bounds, with 1/q floored, stay under 2^20
    units there.  ln 2 is 2 atanh(1/3), LN2, and pi 16 atan(1/5) - 4
    atan(1/239), PI; each step of _ln_table is one term, 2 atanh(1/q)
    with its sign.  Memoized: _ln rounds its precision up to a multiple
    of 32, so its calls at one digit count share a few values of ln 2
    (535 hits, 2 misses on the default sweep).  One entry per (precision,
    formula): ln 2 at the few rounded precisions of each working
    precision, and pi once per context.
    """
    fine = prec + 20
    return sum(c * _arctan((1 << fine) // q, fine, sign, q * q)[0] for c, q, sign in terms) >> 20


LN2, PI = ((2, 3, 1),), ((16, 5, -1), (-4, 239, -1))

# The guard bits of each try of _correctly_rounded, doubling from 24 to 12,288.
GUARDS = tuple(24 << i for i in range(10))


def _correctly_rounded(approx, bits: int) -> tuple[int, int]:
    """A value rounded to bits, to nearest with ties to even, by Ziv's rounding test.

    approx(guard) gives (v, error, prec): the value lies within error units
    of v 2^-prec, with about guard bits beyond bits.  When v - error and v +
    error round to the same pair, so does every point between them, the
    value included; otherwise the next guard is tried.  A value on a
    rounding boundary would never decide, and none of the transcendental
    values here is one; past the last guard this raises, so it never
    guesses.
    """
    for guard in GUARDS:
        v, error, prec = approx(guard)
        if (rounded := _round(v - error, -prec, bits)) == _round(v + error, -prec, bits):
            return rounded
    raise UndecidedRounding(f"the rounding test did not decide within {GUARDS[-1]} guard bits")


@lru_cache(maxsize=None)
def _ln_table(r: int, t: int, prec: int) -> int:
    """ln(r / 2^t) at prec bits, within 2 |r - 2^t| units of 2^-prec, for r near 2^t.

    A chain from ln 1 = 0: ln(r / (r - 1)) = 2 atanh(1 / (2r - 1)) on the
    way up and ln(r / (r + 1)) = -2 atanh(1 / (2r + 1)) on the way down,
    each step one _machin term within 2 units, and the steps' bounds add.
    A step's series gains about 2t bits a term and divides by q^2 alone.
    Memoized, so a working precision builds each entry once, from its
    neighbour, and only the entries its arguments reach: about 0.7 2^(t -
    roots) at most per precision (see _ln), 171 ints at 243 bits, 34 KB
    with the memo, read 535 times on the default sweep.
    """
    if r == 1 << t:
        return 0
    step = 1 if r >> t else -1
    # _machin's memo is bypassed: this memo keeps the sum, and each step is read once.
    return _ln_table(r - step, t, prec) + _machin.__wrapped__(prec, ((2 * step, 2 * r - step, 1),))


def _ln(man: int, exp: int, bits: int) -> tuple[int, int]:
    """ln(man * 2^exp) for man > 0, correctly rounded to bits, as a signed pair.

    x = m 2^k with m = man / 2^c in [2/3, 4/3).  y = m^(1/2^s), from s =
    roots integer square roots, lies near r / 2^t for the integer r =
    round(y 2^t), and ln x = k ln 2 + 2^s (ln(r / 2^t) + 2 atanh(u)) with
    u = (y - r/2^t) / (y + r/2^t): _ln_table holds ln(r / 2^t), and as
    |y - r/2^t| <= 2^-(t+1) and y + r/2^t > 4/3, |u| < 2^-(t+1) and the
    series gains over 2t + 2 bits a term.  Both parameters follow from
    bits alone, roots = bits // 600 and t = 8 + roots // 2: square
    roots pay at high precision, where a series term costs a long product,
    and keep the table to about 0.7 2^(t - roots) entries, 171 at 243 bits.
    In fixed point at prec bits, y errs by under 3 units (each floored root
    multiplies the error before it by at most 0.62 and adds under one), u
    by under 4, the table entry by 2 units a step, ln 2 by under 2, so the
    stated error below bounds the sum.  |ln x| is at least 2^-2 when k !=
    0, and 2^(-near-2) when k = 0, |m - 1| being about 2^-near; prec counts
    those bits too, so that the result has bits + guard of them, plus what
    the error bound takes.  ln 1 is exactly zero.  On the arguments of the
    pinned runs, each set timed in a fresh process (shared 2-core x86-64,
    Python 3.11, medians of 9), the set takes 2.7 ms at 77 bits, 4.4 at
    243, 15.8 at 708 and 48.5 at 2,701, where a cold mpf_log takes 3.3,
    11.1, 25.9 and 61.0 and the quarter-sqrt(bits) square roots alone took
    4.0, 7.7, 24.6 and 53.3.  Of the other square-root counts and table
    sizes tried, none was faster by more than the noise at any of the
    four.  Not memoized: only ln p of a right side's prime recurs, and
    _ln_prime keeps those.  The other calls, ln_gamma's ln z and ln of its
    descent and each context's ln(2 pi), never repeat: 533 on the default
    sweep, 93 on the 800-digit E/F/G cross-check and 5,901 on A-D 13-40
    --mode numeric, where a memo of them held 2.1 MB read by no one.
    """
    c = (n := man.bit_length()) - (3 * man < 2 << n)
    k, d = exp + c, man - (1 << c)
    if not k and not d:
        return 0, 0
    near = 0 if k else c - abs(d).bit_length()
    roots, t = bits // 600, 8 + bits // 1200

    def approx(guard):
        # Rounded up to a multiple of 32, so that calls share ln 2 and the table.
        prec = (bits + guard + roots + k.bit_length() + near + 33) >> 5 << 5
        y = (man << prec) >> c
        for _ in range(roots):
            y = math.isqrt(y << prec)
        r = (y >> prec - t - 1) + 1 >> 1
        one = r << prec - t
        series, terms = _arctan((abs(y - one) << prec) // (y + one), prec, 1)
        ln_m = _ln_table(r, t, prec) + 2 * (series if y >= one else -series) << roots
        ln_2k = k * _machin(prec, LN2) if k else 0
        return ln_2k + ln_m, 2 * abs(k) + (2 * abs(r - (1 << t)) + 8 * terms + 24 << roots), prec

    return _correctly_rounded(approx, bits)


@lru_cache(maxsize=None)
def _stirling_data(ctx: PrecisionContext) -> tuple[tuple[int, int], tuple[tuple[int, int], ...]]:
    """ln(2 pi)/2 and the Stirling coefficients B_2k / (2k (2k-1)), k = 1..stirling_terms.

    Each a (signed mantissa, exponent) pair rounded to ctx.bits, for
    ln_gamma's integer arithmetic.  ln(2 pi)/2 is as mpmath forms it under
    workprec(ctx.bits): pi rounded, doubled, its logarithm rounded, halved.
    Memoized per context, as ln_gamma reads it on every call (265 hits on
    the default sweep): one entry per context, 991 at most, 5.7 KB at 60
    digits and 0.19 MB at 800.
    """
    bits = ctx.bits
    pi, pi_exp = _correctly_rounded(lambda g: (_machin(bits + g, PI), 2, bits + g), bits)
    ln, ln_exp = _ln(pi, pi_exp + 1, bits)
    terms = (bernoulli(2 * k) / ((2 * k) * (2 * k - 1)) for k in range(1, ctx.stirling_terms + 1))
    return (ln, ln_exp - 1), tuple(_quotient(c.numerator, c.denominator, bits) for c in terms)


def ln_gamma(x, ctx: PrecisionContext) -> tuple[int, int]:
    """ln Gamma(x) for rational x in (0,1), a signed pair, absolute error below 10^-decimal_digits.

    Gamma(x) = Gamma(x + m) / (x (x+1) ... (x+m-1)) with m = ctx.shift_count,
    then Stirling at z = x + m:

        ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2
                      + sum_{k=1..K} B_{2k} / (2k (2k-1) z^(2k-1)) + R_K(z),
        |R_K(z)| <= |B_{2K+2}| / ((2K+1)(2K+2) z^(2K+1)),

    and the context keeps that bound below 10^-(decimal_digits + 5).  For
    x = p/q in lowest terms, z = (p + mq)/q and the descent product is
    prod_k (p + kq) / q^m, both exact and both already in lowest terms:
    gcd(p + kq, q) = gcd(p, q) = 1 for every k.  So the integer numerator
    and denominator go straight to _quotient, the operands a reduced
    Fraction would give, without building one.  x must be an int or a
    Fraction, as exact.ratio reads it: a float, a str or a bool is refused.
    """
    (p, q), m = ratio(x), ctx.shift_count
    if not 0 < p < q:
        raise ValueError(f"argument must lie in (0,1), got {x}")
    half_ln_2pi, coefficients = _stirling_data(ctx)
    bits = ctx.bits
    z, z_exp = _quotient(p + m * q, q, bits)
    pw, pw_exp = _quotient(1, z, bits)
    pw_exp -= z_exp
    sq, sq_exp = _round(pw * pw, 2 * pw_exp, bits)
    # (z - 1/2) ln z - z + ln(2 pi)/2 + c_1 / z through _dot, where x * 1 rounds to x.
    head = (_sum(z, z_exp, -1, -1, bits), _ln(z, z_exp, bits)), ((-z, z_exp), (1, 0))
    acc, acc_exp = _dot((*head, (half_ln_2pi, (1, 0)), (coefficients[0], (pw, pw_exp))), bits)
    # Then pw *= sq and acc += c * pw per term, in _dot's written-out rounding form.
    for c, c_exp in coefficients[1:]:
        pw, pw_exp = pw * sq, pw_exp + sq_exp
        if (shift := pw.bit_length() - bits) > 0:
            t, pw_exp = pw >> shift - 1, pw_exp + shift
            pw = t + 1 >> 1 if t & 1 and (t & 2 or pw & (1 << shift - 1) - 1) else t >> 1
        man, exp = c * pw, c_exp + pw_exp
        if (shift := man.bit_length() - bits) > 0:
            t, exp = man >> shift - 1, exp + shift
            man = t + 1 >> 1 if t & 1 and (t & 2 or man & (1 << shift - 1) - 1) else t >> 1
        low = exp if exp < acc_exp else acc_exp
        acc, acc_exp = (acc << acc_exp - low) + (man << exp - low), low
        if (shift := acc.bit_length() - bits) > 0:
            t, acc_exp = acc >> shift - 1, acc_exp + shift
            acc = t + 1 >> 1 if t & 1 and (t & 2 or acc & (1 << shift - 1) - 1) else t >> 1
    descent, descent_exp = _quotient(math.prod(range(p, p + m * q, q)), q**m, bits)
    ln_descent, ln_descent_exp = _ln(descent, descent_exp, bits)
    return _sum(acc, acc_exp, -ln_descent, ln_descent_exp, bits)


@lru_cache(maxsize=None)
def _ln_ratio(p: int, q: int, ctx: PrecisionContext) -> tuple[int, int]:
    """ln gamma(p/q) = ln Gamma(p/q) - ln Gamma((q-p)/q), a signed pair, p/q < 1/2 in lowest terms.

    Keyed on ints and the context, hashed in C; ln_gamma is reached through
    the module attribute, two calls per miss.  Words share their points:
    1,319 hits and 133 misses on the default sweep, 36,000 and 3,761 on A-D
    13-64 --mode numeric, where it holds 0.93 MB.  One entry per reduced
    point p/q < 1/2 and context, under 0.17 M^2 for denominators up to M.
    """
    terms = ((1, 0), ln_gamma(Q(p, q), ctx)), ((-1, 0), ln_gamma(Q(q - p, q), ctx))
    return _dot(terms, ctx.bits)


def _dot(terms, bits: int) -> tuple[int, int]:
    """sum a * b over the (a, b) pairs of signed pairs from 0, each product and each sum rounded.

    The bits of _sum(acc, *_round(a * b)) per pair, with _round written
    out, which saves two calls a pair; ln_gamma's Stirling loop has the
    same form.  Each sum is formed exactly at the lower exponent, as _sum
    forms it, so an exact zero sum is (0, exponent) here too.
    """
    acc = acc_exp = 0
    for (a, a_exp), (b, b_exp) in terms:
        man, exp = a * b, a_exp + b_exp
        if (shift := man.bit_length() - bits) > 0:
            t, exp = man >> shift - 1, exp + shift
            man = t + 1 >> 1 if t & 1 and (t & 2 or man & (1 << shift - 1) - 1) else t >> 1
        low = exp if exp < acc_exp else acc_exp
        acc, acc_exp = (acc << acc_exp - low) + (man << exp - low), low
        if (shift := acc.bit_length() - bits) > 0:
            t, acc_exp = acc >> shift - 1, acc_exp + shift
            acc = t + 1 >> 1 if t & 1 and (t & 2 or acc & (1 << shift - 1) - 1) else t >> 1
    return acc, acc_exp


def word_ln_pair(word, ctx: PrecisionContext) -> tuple[int, int]:
    """ln of a word's value as a signed pair: sum_j e_j (ln Gamma(j/N) - ln Gamma((N-j)/N)).

    Each factor reads its grid point reduced to p/q, (p, q) = (j, N) /
    gcd(j, N): below 1/2 as _ln_ratio(p, q), above as -e_j times
    _ln_ratio(q - p, q), the bits of e_j times the subtraction done the
    other way round (see the module docstring), and at 1/2 as zero, which
    adds nothing.  Each product and each sum is rounded once.  One table
    serves every grid and every word.
    Worst-case absolute error 2 sum_j |e_j| * 10^-decimal_digits.
    """
    n, terms = word.denominator, []
    for j, e in word.exponents:
        p, q = j // (g := math.gcd(j, n)), n // g
        if 2 * p != q:
            if 2 * p > q:
                p, e = q - p, -e
            terms.append(((e, 0), _ln_ratio(p, q, ctx)))
    return _dot(terms, ctx.bits)


def eval_word_ln(word, ctx: PrecisionContext) -> mpmath.mpf:
    """word_ln_pair(word, ctx) as an mpf."""
    return to_mpf(word_ln_pair(word, ctx))


# ln p for const_ln_pair, the one logarithm the runs take again, as right
# sides share primes: 102 hits and 3 misses on the default sweep, 40 and 3
# on the 800-digit E/F/G cross-check, where an 800-digit ln p costs about
# 1 ms.  One entry per (prime, bits).  _ln is read through the module, so
# a replaced _ln is reached once this memo is emptied.
_ln_prime = lru_cache(maxsize=None)(lambda p, bits: _ln(p, 0, bits))


@lru_cache(maxsize=None, typed=True)
def const_ln_pair(a: FactoredConstant, decimal_digits: int) -> tuple[int, int]:
    """ln(a) as a signed pair, absolute error well below 10^-decimal_digits.

    sum_p e_p ln p at the working precision, rounded where the mpf operator
    form mpf(e_num) / e_den * ln p, summed from mpf(0), rounds: the quotient
    by _quotient, ln p correctly rounded by _ln and kept once per prime and
    precision by _ln_prime, the product by _round and the sum by _sum, so
    the bits are that form's.  The bits are those of the digit count's
    context, from _context_fields, so a digit count for_digits refuses
    raises ValueError here too.  Memoized: each distinct (constant, digits)
    is summed once, though many identities share a right side (266 hits
    and 83 misses on the default sweep); one entry per distinct right side
    and digit count, 367 on A-D 13-64 --mode numeric.  Typed, so a float
    or a bool is a key of its own and reaches that check, never the equal
    int's entry.  exact.const_ln is its mpf.
    """
    bits = _context_fields(decimal_digits)[1]
    return _dot(((_quotient(n, d, bits), _ln_prime(p, bits)) for p, n, d in a.powers), bits)


def to_mpf(pair: tuple[int, int]) -> mpmath.mpf:
    """A signed (mantissa, exponent) pair as an mpmath.mpf, mpmath imported here, not at load.

    The public functions that return an mpf for the acceptance gate's mpf
    arithmetic, eval_word_ln and exact.const_ln (and gammaword.eval_ln
    through eval_word_ln), call it; verify never does.
    """
    import mpmath.libmp

    return mpmath.mp.make_mpf(mpmath.libmp.from_man_exp(*pair))


@lru_cache(maxsize=None)
def _bound(decimal_digits: int) -> tuple[int, int]:
    """10^(10 - decimal_digits) at RESIDUAL_BITS as mpmath's mpf(10) ** (10 - d) rounds it.

    mpf_pow_int forms 10^(d - 10) at RESIDUAL_BITS + 5 bits before it
    inverts it, and 1 over that is rounded to RESIDUAL_BITS.  Past 10^333 it
    truncates partial products at more bits instead of rounding the exact
    power; both give the same bound at every digit count 10..1000.
    Memoized, as residual reads it once per identity (348 hits on the
    default sweep) and it costs 1.5 to 3 us a call unmemoized, up to 1 ms
    per sweep.  One entry per digit count, 991 at most.
    """
    power, exp = _round(10 ** (decimal_digits - 10), 0, RESIDUAL_BITS + 5)
    return _quotient(1, power << exp, RESIDUAL_BITS)


def _six_digits(man: int, exp: int) -> str:
    """man 2^exp >= 0 as mpmath's to_str prints it with 6 digits, on to_str's integer steps.

    to_digits_exp floors the value to 39 bits, then to a decimal integer of
    about 12 digits; to_str keeps 6 of them, rounding half up on the
    seventh, and prints the leading digit's exponent e in fixed point for
    -5 < e < 6, else as digits, e and e's sign.  A value whose binary
    exponent exceeds 3,500 in size, which to_digits_exp first scales by a
    power of ten, goes to mpmath itself, and only then is mpmath loaded.
    A nonzero residual is a multiple of the least ulp among the terms of
    the two sums, so one that small needs a term below about 2^-134 at
    1,000 digits, and no pinned run has one.
    """
    if not man:
        return "0.0"
    if abs(exp + man.bit_length()) > 3500:
        from mpmath.libmp import from_man_exp, to_str

        return to_str(from_man_exp(man, exp), 6)
    fixprec = max(39 - exp - man.bit_length(), 0)
    fixdps, shift = int(fixprec / math.log(10, 2) + 0.5), exp + fixprec
    digits = str((man << shift if shift >= 0 else man >> -shift) * 10**fixdps >> fixprec)
    head = int(digits[:6]) + (digits[6:7] >= "5")
    point = len(digits) - fixdps - 1 + (head == 10**6)
    fixed = -5 < point < 6
    digits = ("0" * -point if fixed else "") + str(head)[:6]
    split = max(point, 0) + 1 if fixed else 1
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    return text + "0" * text.endswith(".") + ("" if fixed else f"e{point:+d}")


def residual(lhs, rhs, ctx: PrecisionContext | None = None) -> tuple[str, bool]:
    """verify's numeric verdict on lhs = rhs: |ln lhs - ln rhs| as printed, and whether it passes.

    Both sides are evaluated at ctx as signed pairs, the word by
    word_ln_pair and the constant by const_ln_pair, and their
    difference is rounded to nearest at RESIDUAL_BITS, whatever the
    caller's mpmath precision.  The string is mpmath's to_str of it at 6
    digits, and it passes when it is at most _bound's 10^(10 -
    decimal_digits): the sign of one more correctly rounded difference.
    This one function is the numeric route's acceptance rule.
    """
    ctx = ctx or PrecisionContext.for_digits()
    rhs_ln, rhs_exp = const_ln_pair(rhs, ctx.decimal_digits)
    man, exp = _sum(*word_ln_pair(lhs, ctx), -rhs_ln, rhs_exp, RESIDUAL_BITS)
    slack = _sum(-abs(man), exp, *_bound(ctx.decimal_digits), RESIDUAL_BITS)[0]
    return _six_digits(abs(man), exp), slack >= 0
