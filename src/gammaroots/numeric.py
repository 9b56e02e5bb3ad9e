"""Arbitrary-precision evaluation of ln Gamma at rational arguments in (0,1).

The identities this package checks are proved exactly; this module is the
independent numeric cross-check, so it computes ln Gamma from first
principles: an integer argument shift in exact rational arithmetic, then the
Stirling series with exact Bernoulli coefficients and an explicit tail bound.
The whole cross-check lives here, and one number sets it: the digit count,
from which PrecisionContext derives every other field, and against which
residual accepts or refuses an identity.  What does not depend on the
argument is built once per context, and each ln gamma ratio once per
reduced point below 1/2, so repeated words cost table lookups.

The arithmetic is the operation sequence of the mpf operator form under
workprec(ctx.bits), rounded to nearest with ties to even after every
operation, on integers: every intermediate value of ln_gamma and of the
word sum is a signed (mantissa, exponent) pair, and each operation is
formed exactly and rounded by one primitive.  _round rounds a product (a * b
is mpf_mul, e * a mpf_mul_int), _quotient is mpf(n) / m and 1 / a (mpf_div
of from_int(n) rounded and from_int(m)), and _sum is a + b and a - b
(mpf_add, mpf_sub); the Stirling loop writes its three roundings per term
out inline, where a call per operation would cost more than the operation.
libmp's operations are correctly rounded, and a value has one canonical
mpf, so the same sequence of correctly rounded operations gives the same
bits in either form; the integer form only drops libmp's per-call tuple
handling.  mpmath.libmp keeps the two logarithms of each ln_gamma
(mpf_log of z and of the descent), ln(2 pi)/2 once per context, const_ln
of the right side, and the residual's 53-bit subtraction, to_str and
mpf_le.  ln_gamma and eval_word_ln return an mpf, converted once at the
end; the operator form's closing +a is left out, as every result is
already rounded to ctx.bits.

For x = p/q in lowest terms, z = (p + mq)/q and the descent prod_k (p +
kq)/q^m are already in lowest terms, since gcd(p + kq, q) = gcd(p, q) = 1,
so their integer numerators and denominators go to _quotient as they are:
the same operands a reduced Fraction would give, without building one.
ln gamma(p/q) = ln Gamma(p/q) - ln Gamma((q-p)/q) is one _sum for p/q <
1/2, and a factor gamma((q-p)/q)^e reads it times -e: rounding to nearest
with ties to even is symmetric under negation, so the rounded -e * (a - b)
has exactly the bits of e * (b - a), the subtraction done the other way
round.  ln gamma(1/2) is exactly zero, the subtraction of one value from
itself.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache

import mpmath
from mpmath.libmp import from_man_exp, mpf_abs, mpf_le, mpf_log, mpf_sub, round_nearest, to_str

from .exact import (
    DEFAULT_DIGITS, check_digits, const_ln, ratio, validated_make, working_precision_bits
)

# B_2, B_4, ... (B_2k at index k - 1); grown on demand, read-only thereafter.
_EVEN_BERNOULLI: list[Q] = []


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
# whatever precision the caller has set, so a caller's workprec moves no report.
RESIDUAL_BITS = 53


@lru_cache(maxsize=None)
def _residual_bound(decimal_digits: int) -> mpmath.mpf:
    """10^(10 - decimal_digits) at RESIDUAL_BITS, once per digit count."""
    with mpmath.workprec(RESIDUAL_BITS):
        return mpmath.mpf(10) ** (10 - decimal_digits)


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
    if rem:
        quot, extra = 2 * quot + 1, extra + 1
    return _round(quot, exp - extra, bits)


def _sum(a: int, a_exp: int, b: int, b_exp: int, bits: int) -> tuple[int, int]:
    """a 2^a_exp + b 2^b_exp formed exactly and rounded by _round: mpf_add's bits.

    An exact zero sum is (0, exponent), which reads as libmp's fzero.
    """
    if a_exp > b_exp:
        a, a_exp, b, b_exp = b, b_exp, a, a_exp
    return _round(a + (b << (b_exp - a_exp)), a_exp, bits)


@lru_cache(maxsize=None)
def _stirling_data(ctx: PrecisionContext) -> tuple[tuple[int, int], tuple[tuple[int, int], ...]]:
    """ln(2 pi)/2 and the Stirling coefficients B_2k / (2k (2k-1)), k = 1..stirling_terms.

    Each a (signed mantissa, exponent) pair rounded to ctx.bits, for
    ln_gamma's integer arithmetic; ln(2 pi)/2 comes from mpmath.
    """
    with mpmath.workprec(ctx.bits):
        half_ln_2pi = _signed((mpmath.ln(2 * mpmath.pi) / 2)._mpf_)
    terms = (bernoulli(2 * k) / ((2 * k) * (2 * k - 1)) for k in range(1, ctx.stirling_terms + 1))
    return half_ln_2pi, tuple(_quotient(c.numerator, c.denominator, ctx.bits) for c in terms)


def _ln(man: int, exp: int, bits: int) -> tuple[int, int]:
    """ln(man * 2^exp) for man > 0, by libmp's mpf_log at bits, as a signed pair."""
    return _signed(mpf_log(from_man_exp(man, exp), bits, round_nearest))


def ln_gamma(x, ctx: PrecisionContext) -> mpmath.mpf:
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
    ln_z, ln_z_exp = _ln(z, z_exp, bits)
    acc, acc_exp = _sum(z, z_exp, -1, -1, bits)
    acc, acc_exp = _round(acc * ln_z, acc_exp + ln_z_exp, bits)
    acc, acc_exp = _sum(acc, acc_exp, -z, z_exp, bits)
    acc, acc_exp = _sum(acc, acc_exp, *half_ln_2pi, bits)
    pw, pw_exp = _quotient(1, z, bits)
    pw_exp -= z_exp
    sq, sq_exp = _round(pw * pw, 2 * pw_exp, bits)
    # acc += c * pw, then pw *= sq: each product and sum formed exactly and
    # rounded as _round rounds, written out, which saves a call per operation.
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
        pw, pw_exp = pw * sq, pw_exp + sq_exp
        if (shift := pw.bit_length() - bits) > 0:
            t, pw_exp = pw >> (shift - 1), pw_exp + shift
            pw = (t + 1) >> 1 if t & 1 and (t & 2 or pw & ((1 << (shift - 1)) - 1)) else t >> 1
    descent, descent_exp = _quotient(math.prod(range(p, p + m * q, q)), q**m, bits)
    ln_descent, ln_descent_exp = _ln(descent, descent_exp, bits)
    acc, acc_exp = _sum(acc, acc_exp, -ln_descent, ln_descent_exp, bits)
    return mpmath.mp.make_mpf(from_man_exp(acc, acc_exp))


@lru_cache(maxsize=None)
def _ln_ratio(p: int, q: int, ctx: PrecisionContext) -> tuple[int, int]:
    """ln gamma(p/q) = ln Gamma(p/q) - ln Gamma((q-p)/q), a signed pair, p/q < 1/2 in lowest terms.

    Keyed on ints and the context, hashed in C; ln_gamma is reached through
    the module attribute, two calls per miss.
    """
    lower, lower_exp = _signed(ln_gamma(Q(p, q), ctx)._mpf_)
    upper, upper_exp = _signed(ln_gamma(Q(q - p, q), ctx)._mpf_)
    return _sum(lower, lower_exp, -upper, upper_exp, ctx.bits)


def eval_word_ln(word, ctx: PrecisionContext) -> mpmath.mpf:
    """ln of a word's value: sum_j e_j (ln Gamma(j/N) - ln Gamma((N-j)/N)).

    Each factor reads its grid point reduced to p/q, (p, q) = (j, N) /
    gcd(j, N): below 1/2 as _ln_ratio(p, q), above as -e_j times
    _ln_ratio(q - p, q), the bits of e_j times the subtraction done the
    other way round (see the module docstring), and at 1/2 as zero, which
    adds nothing.  Each product and each sum is rounded once, on signed
    pairs, and the total becomes an mpf at the end.  One table serves
    every grid and every word.
    Worst-case absolute error 2 sum_j |e_j| * 10^-decimal_digits.
    """
    n, bits = word.denominator, ctx.bits
    acc, acc_exp = 0, 0
    for j, e in word.exponents:
        p, q = j // (g := math.gcd(j, n)), n // g
        if 2 * p != q:
            if 2 * p > q:
                p, e = q - p, -e
            man, exp = _ln_ratio(p, q, ctx)
            man, exp = _round(e * man, exp, bits)
            acc, acc_exp = _sum(acc, acc_exp, man, exp, bits)
    return mpmath.mp.make_mpf(from_man_exp(acc, acc_exp))


def residual(lhs, rhs, ctx: PrecisionContext | None = None) -> tuple[str, bool]:
    """verify's numeric verdict on lhs = rhs: |ln lhs - ln rhs| as printed, and whether it passes.

    Both sides are evaluated at ctx, the word by eval_word_ln and the
    constant by const_ln, and their difference is rounded to nearest at
    RESIDUAL_BITS, whatever the caller's workprec (mpf_abs with no
    precision does not round).  It stays a raw mpf: the string is
    to_str(raw, 6) and the test mpf_le(raw, 10^(10 - decimal_digits)),
    which is what mpmath.nstr and mpf <= call.  This one function is the
    numeric route's acceptance rule.
    """
    ctx = ctx or PrecisionContext.for_digits()
    lhs_ln, rhs_ln = eval_word_ln(lhs, ctx)._mpf_, const_ln(rhs, ctx.decimal_digits)._mpf_
    raw = mpf_abs(mpf_sub(lhs_ln, rhs_ln, RESIDUAL_BITS, round_nearest))
    return to_str(raw, 6), mpf_le(raw, _residual_bound(ctx.decimal_digits)._mpf_)
