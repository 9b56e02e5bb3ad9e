"""Exact arithmetic for positive constants of the form prod_p p^(e_p).

Rational numbers are stdlib fractions.Fraction throughout the package:
always lowest terms, positive denominator, unbounded integers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache
from typing import TYPE_CHECKING, Tuple, Union

if TYPE_CHECKING:
    import mpmath

RationalLike = Union[int, Q]

# Decimal digits of a numeric evaluation unless the caller asks for others,
# and the fewest and most a caller may ask for.  The precision setup grows
# about tenfold per doubling of the digits, so the upper bound turns a slip
# such as 60000 into an error instead of hours of work.
DEFAULT_DIGITS = 60
MIN_DIGITS = 10
MAX_DIGITS = 1000

_LOG2_10 = math.log2(10)


def check_digits(decimal_digits: int, name: str) -> None:
    """Refuse a digit count outside MIN_DIGITS..MAX_DIGITS; name is how the caller spells it."""
    if decimal_digits < MIN_DIGITS:
        raise ValueError(f"{name} must be at least {MIN_DIGITS}, got {decimal_digits}")
    if decimal_digits > MAX_DIGITS:
        raise ValueError(f"{name} must be at most {MAX_DIGITS}, got {decimal_digits}")


def working_precision_bits(decimal_digits: int) -> int:
    """Mantissa bits for a decimal accuracy target, with guard room for rounding."""
    if decimal_digits < 1:
        raise ValueError(f"decimal_digits must be positive, got {decimal_digits}")
    return math.ceil((decimal_digits + 10) * _LOG2_10) + 10


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if n <= 0:
        raise ValueError(f"cannot factor non-positive integer {n}")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@lru_cache(maxsize=256)
def _is_prime(n: int) -> bool:
    """Trial-division primality, memoized: the same few bases recur in every constant."""
    return n >= 2 and factorize(n) == {n: 1}


def validated_make(cls, iterable):
    """_make of a validating namedtuple: cls(*iterable), through its checks.

    namedtuple's own _make skips __new__, and _replace calls _make, so each
    validating value type sets _make = classmethod(validated_make): the
    constructor, _make and _replace then all validate.
    """
    return cls(*iterable)


class FactoredConstant(namedtuple("FactoredConstant", "prime_powers")):
    """A positive real number prod_p p^(e_p) with rational exponents.

    Canonical form: prime bases strictly increasing, no zero exponents.  The
    logarithms of distinct primes are linearly independent over the
    rationals, so structural equality coincides with equality of real values.
    """

    __slots__ = ()

    def __new__(cls, prime_powers: Tuple[Tuple[int, Q], ...] = ()) -> FactoredConstant:
        merged: dict[int, Q] = {}
        for base, exponent in prime_powers:
            # No coercion: int() would truncate a float base, and a float
            # exponent is no exact rational.  A bool is no int here either.
            if type(base) is not int:
                raise ValueError(f"base {base!r} is not an int")
            if not _is_prime(base):
                raise ValueError(f"base {base} is not prime")
            if not isinstance(exponent, Q):
                if type(exponent) is not int:
                    raise ValueError(f"exponent {exponent!r} is not an int or Fraction")
                exponent = Q(exponent)
            if base in merged:
                exponent += merged[base]
            merged[base] = exponent
        canonical = tuple(sorted((b, e) for b, e in merged.items() if e != 0))
        return tuple.__new__(cls, (canonical,))

    _make = classmethod(validated_make)

    @property
    def is_one(self) -> bool:
        return not self.prime_powers

    def to_json_obj(self) -> list[dict]:
        """Base/exponent entries in increasing base order."""
        return [
            {
                "base": b,
                "exponent_numerator": e.numerator,
                "exponent_denominator": e.denominator,
            }
            for b, e in self.prime_powers
        ]

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        return "*".join(str(b) if e == 1 else f"{b}^({e})" for b, e in self.prime_powers)


ONE = FactoredConstant()


def valuations(numerator: int, denominator: int) -> list[tuple[int, int]]:
    """The (prime, nonzero integer exponent) pairs of numerator / denominator.

    The pair need not be in lowest terms: a prime that divides both appears
    once, with its exponents summed as ints.
    """
    exponents = factorize(numerator)
    for p, m in factorize(denominator).items():
        exponents[p] = exponents.get(p, 0) - m
    return [(p, m) for p, m in exponents.items() if m]


def factor_power(base: RationalLike, exponent: RationalLike) -> FactoredConstant:
    """base^exponent as a FactoredConstant; base must be a positive rational."""
    base = Q(base)
    if base <= 0:
        raise ValueError(f"base must be positive, got {base}")
    return const_pow(FactoredConstant(valuations(base.numerator, base.denominator)), exponent)


def const_mul(a: FactoredConstant, b: FactoredConstant) -> FactoredConstant:
    """Exact product of two factored constants."""
    merged = dict(a.prime_powers)
    for base, e in b.prime_powers:
        merged[base] = merged.get(base, Q(0)) + e
    return FactoredConstant(tuple(merged.items()))


def const_pow(a: FactoredConstant, exponent: RationalLike) -> FactoredConstant:
    """Exact rational power of a factored constant."""
    e = Q(exponent)
    return FactoredConstant(tuple((b, ex * e) for b, ex in a.prime_powers))


@lru_cache(maxsize=None)
def _ln_prime(p: int, bits: int) -> tuple:
    """ln p at bits, as a raw mpf."""
    from mpmath.libmp import from_int, mpf_log, round_nearest

    return mpf_log(from_int(p), bits, round_nearest)


@lru_cache(maxsize=None)
def const_ln(a: FactoredConstant, decimal_digits: int) -> mpmath.mpf:
    """ln(a) with absolute error well below 10^-decimal_digits.

    sum_p e_p ln p, computed as mpf(e_num) / e_den * ln p summed from mpf(0)
    at the working precision, but one mpmath.libmp call on raw mpfs per
    operator (see numeric).  Memoized: each distinct (constant, digits) is
    summed once, though many identities share a right side (83 distinct
    ones among the sweep's 349).  mpmath is imported here, not at module
    level, so the exact core loads without the big-float library.
    """
    import mpmath
    from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_pos, round_nearest

    bits, rnd = working_precision_bits(decimal_digits), round_nearest
    total = fzero
    for base, e in a.prime_powers:
        exponent = mpf_div(from_int(e.numerator, bits, rnd), from_int(e.denominator), bits, rnd)
        total = mpf_add(total, mpf_mul(exponent, _ln_prime(base, bits), bits, rnd), bits, rnd)
    return mpmath.mp.make_mpf(mpf_pos(total, bits, rnd))
