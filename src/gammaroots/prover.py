"""Relation lattice on a gamma grid and exact rational certificates.

For gamma(x) = Gamma(x)/Gamma(1-x) on the grid {j/N}, two families of proven
identities span everything the verifier needs: the reflection identities and
the gamma image of the Gauss multiplication formula.  A word whose exponent
vector lies in the rational span of the relation vectors equals the matching
product of relation values, which stays an exact prime-power constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .exact import ONE, FactoredConstant, const_pow, factor_power
from .gammaword import GammaWord


@dataclass(frozen=True)
class Relation:
    """A proven identity prod_j gamma(j/N)^(v_j) = value on one grid."""

    tag: str
    vector: Tuple[Tuple[int, int], ...]
    value: FactoredConstant


def _check_grid(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"grid denominator must be an integer >= 2, got {n}")


def reflection_relations(n: int) -> List[Relation]:
    """gamma(j/N) gamma((N-j)/N) = 1 for j < N/2, plus gamma(1/2) = 1 for even N."""
    _check_grid(n)
    out = [
        Relation(f"reflection({j})", ((j, 1), (n - j, 1)), ONE)
        for j in range(1, (n + 1) // 2)
    ]
    if n % 2 == 0:
        out.append(Relation("half", ((n // 2, 1),), ONE))
    return out


def multiplication_relations(n: int) -> List[Relation]:
    """Gamma multiplication identities, rewritten for gamma on the 1/N grid.

    Applying Gamma(y) Gamma(1-y) reflection to each factor of the order-d
    multiplication formula cancels every 2 pi and leaves, for each divisor
    d >= 2 of N and each 1 <= k < N/d,

        prod_{i=0..d-1} gamma((k + i N/d)/N) = d^(1 - 2dk/N) gamma(dk/N).

    Vectors are stored with all gamma factors collected on the left.
    """
    _check_grid(n)
    out: List[Relation] = []
    for d in range(2, n + 1):
        if n % d:
            continue
        step = n // d
        base = factor_power(d, 1)
        for k in range(1, step):
            agg: dict[int, int] = {}
            for i in range(d):
                idx = k + i * step
                agg[idx] = agg.get(idx, 0) + 1
            agg[d * k] = agg.get(d * k, 0) - 1
            vector = tuple(sorted((j, e) for j, e in agg.items() if e))
            value = const_pow(base, 1 - Q(2 * d * k, n))
            out.append(Relation(f"multiplication({d},{k})", vector, value))
    return out


@lru_cache(maxsize=None)
def relations_for(n: int) -> Tuple[Relation, ...]:
    """All relations on the 1/N grid in deterministic order, reflections first."""
    return tuple(reflection_relations(n) + multiplication_relations(n))


def relation_word(relation: Relation, n: int) -> GammaWord:
    """The relation's gamma product as a word; its value must equal relation.value."""
    return GammaWord(n, relation.vector)


@dataclass(frozen=True)
class Certificate:
    """Rational relation coefficients reproducing a word's exponent vector.

    The certified statement: the gamma part of the word equals
    derived_constant = prod over entries of value(tag)^coefficient.
    """

    coefficients: Tuple[Tuple[str, Q], ...]
    derived_constant: FactoredConstant

    def to_json_obj(self) -> dict:
        return {
            "relations": [
                {"tag": tag, "coefficient": str(c)} for tag, c in self.coefficients
            ],
            "derived_constant": self.derived_constant.to_json_obj(),
        }


def _dense(pairs: Sequence[Tuple[int, int]], n: int) -> List[int]:
    vector = [0] * (n - 1)
    for j, e in pairs:
        vector[j - 1] = e
    return vector


@lru_cache(maxsize=None)
def _prepared_solver(n: int) -> linalg.PreparedSolver:
    return linalg.PreparedSolver([_dense(r.vector, n) for r in relations_for(n)])


def _combine_values(relations: Sequence[Relation], coefficients: Sequence[Q]) -> FactoredConstant:
    """prod value^c over the relations, merged once: the constant sums repeated bases."""
    return FactoredConstant(tuple(
        (p, e * c)
        for relation, c in zip(relations, coefficients)
        if c
        for p, e in relation.value.prime_powers
    ))


def prove_constant(word: GammaWord) -> Optional[Certificate]:
    """Express the word's exponent vector in the rational relation span.

    Returns a certificate whose derived constant equals the word's gamma
    part, or None when the vector lies outside the span.  The word's own
    coeff is not part of the statement; callers fold it in.
    """
    if not word.exponents:
        return Certificate((), ONE)
    n = word.denominator
    relations = relations_for(n)
    solution = _prepared_solver(n).solve(_dense(word.exponents, n))
    if solution is None:
        return None
    coefficients = tuple(
        (relation.tag, c) for relation, c in zip(relations, solution) if c
    )
    return Certificate(coefficients, _combine_values(relations, solution))


def kernel_consistency(n: int) -> tuple[bool, Optional[Tuple[Tuple[str, Q], ...]]]:
    """Check that every rational dependency among the relations has value one.

    This is what makes the derived constant independent of which particular
    solution the eliminator picks.  Returns (True, None), or (False, witness)
    with the offending combination as (tag, coefficient) pairs.
    """
    return _kernel_consistency(relations_for(n), n)


def _kernel_consistency(
    relations: Sequence[Relation], n: int
) -> tuple[bool, Optional[Tuple[Tuple[str, Q], ...]]]:
    columns = [_dense(r.vector, n) for r in relations]
    for combination in linalg.nullspace(columns):
        if not _combine_values(relations, combination).is_one:
            witness = tuple(
                (relation.tag, c)
                for relation, c in zip(relations, combination)
                if c
            )
            return False, witness
    return True, None
