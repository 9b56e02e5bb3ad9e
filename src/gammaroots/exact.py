"""Exact arithmetic for positive constants of the form prod_p p^(e_p).

A stored rational is two ints, numerator and denominator, in lowest terms
with a positive denominator, and linalg, prover and this module hand
rationals to each other only in that form.  Where a caller passes an
exponent or a base it may be an int or a fractions.Fraction, read once by
ratio; nothing here hands a Fraction back.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Tuple, Union

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


def ratio(value: RationalLike, denominator: int = 1, *extra: int) -> tuple[int, int]:
    """value / denominator as ints (numerator, denominator) in lowest terms, denominator >= 1.

    value must be an int or a Fraction, denominator one positive int: nothing
    is coerced, as a float is no exact rational and a bool no int here.  The
    constructors pass an entry's fields after its first here, so an entry
    with a field too many is refused as well.
    """
    if type(value) is not int and not isinstance(value, Q):
        raise ValueError(f"{value!r} is not an int or Fraction")
    if extra or type(denominator) is not int or denominator < 1:
        raise ValueError(f"expected one positive int denominator, got {(denominator, *extra)!r}")
    g = math.gcd(value.numerator, value.denominator * denominator)
    return value.numerator // g, value.denominator * denominator // g


def fraction_str(numerator: int, denominator: int) -> str:
    """str(Fraction(numerator, denominator)) for a pair in lowest terms."""
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


class FactoredConstant(namedtuple("FactoredConstant", "powers")):
    """A positive real number prod_p p^(e_p) with rational exponents.

    Canonical form: powers holds one (p, numerator, denominator) int triple
    per prime with e_p != 0, primes increasing, e_p in lowest terms with a
    positive denominator.  Logarithms of distinct primes are independent
    over the rationals, so equal values are equal tuples of ints.

    The constructor takes (p, e_p) pairs, e_p an int or a Fraction, or
    (p, numerator, denominator) triples as stored; over takes int numerators
    over one denominator.  Both sum a repeated prime.
    """

    __slots__ = ()

    def __new__(cls, powers: Iterable[tuple] = ()) -> FactoredConstant:
        try:
            triples = [(p, *ratio(value, *denominator)) for p, value, *denominator in powers]
        except TypeError:
            raise ValueError(f"the entries of {powers!r} must be pairs or triples") from None
        denominator = math.lcm(*(d for _, _, d in triples))
        return cls.over([(p, n * (denominator // d)) for p, n, d in triples], denominator)

    _make = classmethod(validated_make)

    @classmethod
    def over(cls, terms: Iterable[Tuple[int, int]], denominator: int) -> FactoredConstant:
        """prod p^(m / denominator) over the (p, m) terms, p prime: one gcd per prime."""
        sums: dict[int, int] = {}
        for p, m in terms:
            if type(p) is not int or type(m) is not int:
                raise ValueError(f"base {p!r} or numerator {m!r} is not an int")
            if not _is_prime(p):
                raise ValueError(f"base {p} is not prime")
            sums[p] = sums.get(p, 0) + m
        if type(denominator) is not int or denominator < 1:
            raise ValueError(f"denominator {denominator!r} is not a positive int")
        powers = ((p, m // (g := math.gcd(m, denominator)), denominator // g)
                  for p, m in sorted(sums.items()) if m)
        return tuple.__new__(cls, (tuple(powers),))

    @property
    def is_one(self) -> bool:
        return not self.powers

    def to_json_obj(self) -> list[dict]:
        """Base/exponent entries in increasing base order."""
        keys = ("base", "exponent_numerator", "exponent_denominator")
        return [dict(zip(keys, triple)) for triple in self.powers]

    def __str__(self) -> str:
        text = (str(p) if n == d == 1 else f"{p}^({fraction_str(n, d)})" for p, n, d in self.powers)
        return "*".join(text) or "1"


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
    """base^exponent as a FactoredConstant; base must be a positive rational.

    base and exponent must each be an int or a Fraction, as in ratio.  A
    base of zero or below is refused by factorize.
    """
    numerator, denominator = ratio(base)
    return const_pow(FactoredConstant.over(valuations(numerator, denominator), 1), exponent)


def const_mul(a: FactoredConstant, b: FactoredConstant) -> FactoredConstant:
    """Exact product of two factored constants."""
    return FactoredConstant(a.powers + b.powers)


def const_pow(a: FactoredConstant, exponent: RationalLike) -> FactoredConstant:
    """Exact rational power of a factored constant; exponent an int or a Fraction, as in ratio."""
    numerator, denominator = ratio(exponent)
    return FactoredConstant(tuple((p, n * numerator, d * denominator) for p, n, d in a.powers))


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
    for base, numerator, denominator in a.powers:
        exponent = mpf_div(from_int(numerator, bits, rnd), from_int(denominator), bits, rnd)
        total = mpf_add(total, mpf_mul(exponent, _ln_prime(base, bits), bits, rnd), bits, rnd)
    return mpmath.mp.make_mpf(mpf_pos(total, bits, rnd))
