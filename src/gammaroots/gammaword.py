"""Words in gamma(x) = Gamma(x) / Gamma(1 - x) at rational arguments.

A word keeps every factor on one common grid: integer exponents attached to
indices j standing for the arguments j/N.  It is a pure gamma product; the
constant an identity equates it to is a separate FactoredConstant.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Tuple

from .exact import DEFAULT_DIGITS, validated_make

if TYPE_CHECKING:
    import mpmath


class GammaWord(namedtuple("GammaWord", "denominator exponents")):
    """prod over stored indices j of gamma(j/denominator)^e_j.

    Indices satisfy 1 <= j <= denominator - 1, appear at most once, in
    increasing order, and never carry exponent zero.  A bool is no integer here.
    exponents is stored as a tuple of pairs: other containers and pairs are
    copied into tuples, and a tuple of tuples is kept as given.
    """

    __slots__ = ()

    def __new__(cls, denominator: int, exponents: Iterable[Tuple[int, int]] = ()) -> GammaWord:
        if type(denominator) is not int or denominator < 1:
            raise ValueError(f"denominator must be a positive integer, got {denominator}")
        if type(exponents) is not tuple:
            exponents = tuple(exponents)
        previous = 0
        copy = False
        for pair in exponents:
            j, e = pair
            copy = copy or type(pair) is not tuple
            if type(j) is not int or type(e) is not int:
                raise ValueError("indices and exponents must be integers")
            if j <= previous:
                raise ValueError("indices must be strictly increasing")
            if not 1 <= j <= denominator - 1:
                raise ValueError(f"index {j} outside 1..{denominator - 1}")
            if e == 0:
                raise ValueError("zero exponents must be dropped")
            previous = j
        if copy:
            exponents = tuple(map(tuple, exponents))
        return tuple.__new__(cls, (denominator, exponents))

    _make = classmethod(validated_make)

    def to_json_obj(self) -> dict:
        """JSON form; "coeff" is always [], the JSON of the constant 1, kept in the format."""
        return {
            "N": self.denominator,
            "terms": [{"j": j, "exponent": e} for j, e in self.exponents],
            "coeff": [],
        }


def word_from_terms(terms: Iterable[Tuple[int, int]], denominator: int) -> GammaWord:
    """Merge gamma(x / denominator)^exponent factors, x an integer, onto one grid.

    The grid denominator is the lcm of every term's reduced argument
    denominator, including terms whose exponents later cancel or are zero:
    for x_k / m that is m / gcd(m, x_1, x_2, ...).
    """
    items = list(terms)
    for x, _ in items:
        if not 0 < x < denominator:
            raise ValueError(f"argument {x}/{denominator} outside (0,1)")
    g = math.gcd(denominator, *(x for x, _ in items))
    merged: dict[int, int] = {}
    for x, e in items:
        merged[x // g] = merged.get(x // g, 0) + e
    return GammaWord(denominator // g, tuple(sorted((j, e) for j, e in merged.items() if e)))


def eval_ln(w: GammaWord, decimal_digits: int = DEFAULT_DIGITS) -> mpmath.mpf:
    """ln of the word's value at the requested precision.

    The numeric route is imported here, so words and the prover load without it.
    """
    from .numeric import PrecisionContext, eval_word_ln

    return eval_word_ln(w, PrecisionContext.for_digits(decimal_digits))


def brace_str(w: GammaWord) -> str:
    """Display shorthand with {j} for gamma(j/N); unit factors gamma(1/2) are omitted."""
    num: list[str] = []
    den: list[str] = []
    for j, e in w.exponents:
        if 2 * j == w.denominator:
            continue
        target, magnitude = (num, e) if e > 0 else (den, -e)
        target.append("{%d}" % j if magnitude == 1 else "{%d}^%d" % (j, magnitude))
    if not num and not den:
        return "1"
    if not den:
        return "".join(num)
    tail = den[0] if len(den) == 1 else "(%s)" % "".join(den)
    return "%s/%s" % ("".join(num) or "1", tail)
