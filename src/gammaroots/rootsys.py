"""Irreducible root systems, computed on integers in the simple-root basis.

Every positive root is kept as its integer coefficient vector c in the basis
of simple roots alpha_1..alpha_r.  The Gram matrix G_ij = 2(alpha_i|alpha_j)
is integral for all of A-G in the Bourbaki planche coordinates used here,
and the root-string closure runs on G alone: each root carries its pairings
2(alpha_j|a) = (c G)_j, and a step by alpha_i adds row i of G.  Every other
quantity the identities need is an integer read off c and those pairings:
heights are coefficient sums, the norms 2(a|a) are c . (c G), and the marks
are the coefficients of the highest root.  Ambient coordinates (tuples of
Fractions, whose dimension may exceed the rank for families A and G) are
produced once, at the edge, for the simple roots, positive roots, alpha0
and the Weyl vectors.  All pairings are the raw coordinate dot product;
marks are normalization free, but comarks, double comarks and the comark
sum depend on this realization and are kept as exact rationals rather than
rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from itertools import chain, compress
from operator import mul
from typing import Dict, List, Sequence, Tuple

Vector = Tuple[Q, ...]
Coeffs = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
# Families with one root length; build checks each system's norms against it.
SIMPLY_LACED_FAMILIES = ("A", "D", "E")

# family -> (minimum rank, maximum rank or None for the infinite families)
RANK_RANGE: Dict[str, Tuple[int, int | None]] = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class ClosureError(RuntimeError):
    """The given simple roots do not generate a finite crystallographic system."""


@dataclass(frozen=True, order=True)
class RootSystemId:
    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in RANK_RANGE:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {', '.join(FAMILIES)}"
            )
        lo, hi = RANK_RANGE[self.family]
        if not isinstance(self.rank, int) or self.rank < lo or (hi is not None and self.rank > hi):
            span = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise ValueError(f"family {self.family} admits rank {span}, got {self.rank}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def inner(u: Vector, v: Vector) -> Q:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(u, v)), Q(0))


def _vec(dim: int, entries: Dict[int, int]) -> Vector:
    return tuple(Q(entries.get(k, 0)) for k in range(dim))


# Simple roots of E8; E6 and E7 take the first six and seven of them,
# realized inside the same eight-dimensional space.
_E8_SIMPLE: Tuple[Vector, ...] = (
    (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)),
    (Q(1), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0)),
    (Q(-1), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0)),
    (Q(0), Q(-1), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0)),
    (Q(0), Q(0), Q(-1), Q(1), Q(0), Q(0), Q(0), Q(0)),
    (Q(0), Q(0), Q(0), Q(-1), Q(1), Q(0), Q(0), Q(0)),
    (Q(0), Q(0), Q(0), Q(0), Q(-1), Q(1), Q(0), Q(0)),
    (Q(0), Q(0), Q(0), Q(0), Q(0), Q(-1), Q(1), Q(0)),
)

_F4_SIMPLE: Tuple[Vector, ...] = (
    (Q(0), Q(1), Q(-1), Q(0)),
    (Q(0), Q(0), Q(1), Q(-1)),
    (Q(0), Q(0), Q(0), Q(1)),
    (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)),
)

_G2_SIMPLE: Tuple[Vector, ...] = (
    (Q(1), Q(-1), Q(0)),
    (Q(-2), Q(1), Q(1)),
)


def simple_roots(ident: RootSystemId) -> List[Vector]:
    """Simple roots of the system in its classical coordinate realization."""
    family, n = ident.family, ident.rank
    if family == "A":
        return [_vec(n + 1, {i: 1, i + 1: -1}) for i in range(n)]
    if family in ("B", "C", "D"):
        chain = [_vec(n, {i: 1, i + 1: -1}) for i in range(n - 1)]
        last = {"B": {n - 1: 1}, "C": {n - 1: 2}, "D": {n - 2: 1, n - 1: 1}}[family]
        return chain + [_vec(n, last)]
    if family == "E":
        return list(_E8_SIMPLE[:n])
    if family == "F":
        return list(_F4_SIMPLE)
    return list(_G2_SIMPLE)


def _scaled(simple: Sequence[Vector]) -> Tuple[int, List[Tuple[int, ...]]]:
    """The lcm d of all coordinate denominators, and d times each simple root, as ints."""
    d = math.lcm(*(x.denominator for a in simple for x in a))
    return d, [tuple(x.numerator * (d // x.denominator) for x in a) for a in simple]


def _gram(scaled: Sequence[Tuple[int, ...]]) -> Matrix:
    """2(u|v) over the given integer vectors."""
    return tuple(tuple(2 * sum(map(mul, u, v)) for v in scaled) for u in scaled)


def generate_positive_roots(gram: Matrix, max_height: int = 1000) -> Dict[Coeffs, Coeffs]:
    """Close the simple roots under root strings, from the Gram matrix alone.

    gram is G_ij = 2(alpha_i|alpha_j), integral.  Returns each positive
    root's coefficient vector c, level by level, mapped to its pairings
    2(alpha_j|a) = (c G)_j.  beta + alpha_i is a root iff
    p - <beta, alpha_i^> >= 1, where p counts how far the alpha_i-string
    descends from beta through known roots; with P = (c G) this is
    (p - 1) G_ii >= 2 P_i.  A step adds row i of G to the parent's
    pairings, and the new root's norm 2(a|a) = c . P must be positive.
    """
    r = len(gram)
    for i, row in enumerate(gram):
        if row[i] <= 0:
            raise ClosureError(f"2(alpha_{i + 1}|alpha_{i + 1}) = {row[i]} is not positive")
    for i, row in enumerate(gram):
        if any(2 * g % gram[j][j] for j, g in enumerate(row)):
            raise ClosureError(
                f"non-integral Cartan integer at alpha_{i + 1}; input is not crystallographic"
            )

    known: Dict[Coeffs, Coeffs] = {
        tuple(int(k == i) for k in range(r)): tuple(gram[i]) for i in range(r)
    }
    current = list(known)
    height = 1
    while current:
        if height >= max_height:
            raise ClosureError(
                f"no closure below height {max_height}; "
                "the simple roots do not generate a finite system"
            )
        found: List[Coeffs] = []
        for beta in current:
            pairs = known[beta]
            for i in range(r):
                head, c, tail = beta[:i], beta[i], beta[i + 1:]
                cand = head + (c + 1,) + tail
                if cand in known:
                    continue
                p = 0
                while head + (c - p - 1,) + tail in known:
                    p += 1
                if (p - 1) * gram[i][i] >= 2 * pairs[i]:
                    cand_pairs = tuple(map(sum, zip(pairs, gram[i])))
                    if sum(map(mul, cand, cand_pairs)) <= 0:
                        raise ClosureError(
                            "closure reached a vector of length zero; "
                            "input is not a finite root base"
                        )
                    known[cand] = cand_pairs
                    found.append(cand)
        current = found
        height += 1
    return known


def highest_root(positive: Sequence[Coeffs]) -> Coeffs:
    """The unique maximal positive root; its coefficients are the marks n_1..n_r.

    The root of greatest height lies in one irreducible component, so it has
    a zero coefficient exactly when the system is reducible.
    """
    theta = max(positive, key=sum)
    if not all(theta):
        raise ValueError(
            "the highest root misses a simple root; the system is not irreducible"
        )
    return theta


def weyl_vectors(positive: Sequence[Coeffs], norms: Sequence[int]) -> Tuple[Vector, Vector]:
    """rho and rho_check in the simple basis, from integer sums grouped by root length.

    rho is half the sum of the positive roots.  The coroot of a is
    4a / 2(a|a), so rho_check sums the roots of each norm 2(a|a) = n and
    scales that integer sum by 2/n.
    """
    by_norm: Dict[int, List[Coeffs]] = {}
    for c, n in zip(positive, norms):
        by_norm.setdefault(n, []).append(c)
    r = len(positive[0])
    two_rho = [0] * r
    rho_check = [Q(0)] * r
    for n, roots in by_norm.items():
        for k, total in enumerate(map(sum, zip(*roots))):
            two_rho[k] += total
            rho_check[k] += Q(2 * total, n)
    return tuple(Q(x, 2) for x in two_rho), tuple(rho_check)


@dataclass(frozen=True)
class RootSystem:
    """Everything the identity checks need about one irreducible system.

    marks, comarks and double_comarks are indexed 0..rank; entry 0 belongs to
    alpha0, the negated highest root.  comark i is (alpha_i|alpha_i) n_i / 2
    and double comark i is (alpha_i|alpha_i) comark_i / 2, in the raw
    coordinate normalization.  coxeter_number is the mark sum; comark_sum is
    its analogue on the comark side and need not match the textbook dual
    Coxeter number when the highest root is not normalized to length 2.

    The integer tables follow positive_roots entry for entry: root_coeffs
    holds each root's coefficients c in the simple basis, norms 2(a|a),
    heights the coefficient sums, which are (a|rho_check), and rho_pairings
    4(a|rho) = sum_k c_k G_kk.  The pairings 2(alpha_j|a) = (c G)_j are kept
    by column and only where they are not zero: pairing_columns[j - 1] is
    (positions, pairings), the table positions of the roots a that pair
    with alpha_j, in table order, and those pairings.  gram is
    G_ij = 2(alpha_i|alpha_j).
    """

    ident: RootSystemId
    simple_roots: Tuple[Vector, ...]
    positive_roots: Tuple[Vector, ...]
    alpha0: Vector
    marks: Tuple[int, ...]
    comarks: Tuple[Q, ...]
    double_comarks: Tuple[Q, ...]
    coxeter_number: int
    comark_sum: Q
    rho: Vector
    rho_check: Vector
    simply_laced: bool
    gram: Matrix = field(repr=False)
    root_coeffs: Tuple[Coeffs, ...] = field(repr=False)
    pairing_columns: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...] = field(repr=False)
    norms: Tuple[int, ...] = field(repr=False)
    heights: Tuple[int, ...] = field(repr=False)
    rho_pairings: Tuple[int, ...] = field(repr=False)

    @property
    def family(self) -> str:
        return self.ident.family

    @property
    def rank(self) -> int:
        return self.ident.rank

    def to_json_obj(self) -> dict:
        """JSON-ready table: rationals as 'p/q' strings, vectors as string arrays."""
        def vecs(vs):
            return [[str(x) for x in v] for v in vs]

        return {
            "family": self.family,
            "rank": self.rank,
            "positive_root_count": len(self.positive_roots),
            "coxeter_number": self.coxeter_number,
            "comark_sum": str(self.comark_sum),
            "marks": list(self.marks),
            "comarks": [str(c) for c in self.comarks],
            "double_comarks": [str(c) for c in self.double_comarks],
            "simply_laced": self.simply_laced,
            "alpha0": [str(x) for x in self.alpha0],
            "rho": [str(x) for x in self.rho],
            "rho_check": [str(x) for x in self.rho_check],
            "simple_roots": vecs(self.simple_roots),
            "positive_roots": vecs(self.positive_roots),
        }


def _combine(coeffs: Sequence[int], scaled: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
    """sum_k coeffs_k scaled_k, over the nonzero coefficients."""
    out = [0] * len(scaled[0])
    for c, s in zip(coeffs, scaled):
        if c:
            for d, x in enumerate(s):
                out[d] += c * x
    return tuple(out)


def _to_ambient(v: Sequence[Q], scale: int, scaled: Sequence[Tuple[int, ...]]) -> Vector:
    """sum_k v_k alpha_k for rational simple-basis coordinates v."""
    den = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    return tuple(Q(x, den * scale) for x in _combine(ints, scaled))


def build(ident: RootSystemId) -> RootSystem:
    """Construct and cross-validate the full system for an admissible id."""
    simple = simple_roots(ident)
    scale, scaled = _scaled(simple)
    scaled_gram = _gram(scaled)
    if any(g % (scale * scale) for row in scaled_gram for g in row):
        raise ClosureError(f"{ident}: 2(alpha_i|alpha_j) is not integral")
    gram = tuple(tuple(g // (scale * scale) for g in row) for row in scaled_gram)

    closure = generate_positive_roots(gram)
    # Order as the ambient coordinates sort: by height, then lexicographically.
    ambient_ints = {c: _combine(c, scaled) for c in closure}
    coeffs = tuple(sorted(closure, key=lambda c: (sum(c), ambient_ints[c])))
    fraction = {x: Q(x, scale) for x in set(chain.from_iterable(ambient_ints.values()))}
    positive = tuple(tuple(fraction[x] for x in ambient_ints[c]) for c in coeffs)
    pairings = tuple(closure[c] for c in coeffs)
    norms = tuple(sum(map(mul, c, p)) for c, p in zip(coeffs, pairings))
    diag = [row[j] for j, row in enumerate(gram)]
    theta = highest_root(coeffs)
    top = coeffs.index(theta)
    marks = (1,) + theta
    node_norms = (norms[top],) + tuple(diag)
    comarks = tuple(Q(g * n, 4) for g, n in zip(node_norms, marks))
    double_comarks = tuple(Q(g * g * n, 16) for g, n in zip(node_norms, marks))
    rho, rho_check = weyl_vectors(coeffs, norms)
    system = RootSystem(
        ident=ident,
        simple_roots=tuple(simple),
        positive_roots=positive,
        alpha0=tuple(-x for x in positive[top]),
        marks=marks,
        comarks=comarks,
        double_comarks=double_comarks,
        coxeter_number=sum(marks),
        comark_sum=Q(sum(map(mul, node_norms, marks)), 4),
        rho=_to_ambient(rho, scale, scaled),
        rho_check=_to_ambient(rho_check, scale, scaled),
        simply_laced=len(set(norms)) == 1,
        gram=gram,
        root_coeffs=coeffs,
        pairing_columns=tuple(
            (tuple(compress(range(len(column)), column)), tuple(filter(None, column)))
            for column in zip(*pairings)
        ),
        norms=norms,
        heights=tuple(map(sum, coeffs)),
        rho_pairings=tuple(sum(map(mul, c, diag)) for c in coeffs),
    )
    _validate(system)
    return system


def _validate(system: RootSystem) -> None:
    """Internal consistency ties between the generated pieces.

    The last tie checks the Weyl vectors against the integer tables: every
    simple root has height (alpha_k|rho_check) = 1 and 4(alpha_k|rho) = G_kk,
    which is what makes heights and rho_pairings the word arguments.
    """
    r, h = system.rank, system.coxeter_number
    count = len(system.positive_roots)
    if 2 * count != r * h or len(system.root_coeffs) != count:
        raise ClosureError(
            f"{system.ident}: {count} positive roots; the count must equal rank * h / 2"
        )
    if set(map(sum, system.root_coeffs)) != set(range(1, h)):
        raise ClosureError(f"{system.ident}: root heights must fill [1, h-1]")
    if system.simply_laced != (system.ident.family in SIMPLY_LACED_FAMILIES):
        raise ClosureError(f"{system.ident}: root lengths disagree with the family")
    for k, alpha in enumerate(system.simple_roots):
        if inner(alpha, system.rho_check) != 1 or 4 * inner(alpha, system.rho) != system.gram[k][k]:
            raise ClosureError(
                f"{system.ident}: rho and rho_check disagree with alpha_{k + 1}"
            )
