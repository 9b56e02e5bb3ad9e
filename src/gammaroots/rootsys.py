"""Irreducible root systems, computed on integers in the simple-root basis.

Every positive root is kept as its integer coefficient vector c in the basis
of simple roots alpha_1..alpha_r.  The Gram matrix G_ij = 2(alpha_i|alpha_j)
is integral for all of A-G in the Bourbaki planche coordinates used here,
and the root-string closure runs on G alone: each root carries its pairings
2(alpha_j|a) = (c G)_j, and a step by alpha_i adds row i of G.  Every other
quantity the identities need is an integer read off c and those pairings:
heights are coefficient sums, the norms 2(a|a) are c . (c G), the marks
are the coefficients of the highest root, and the Weyl vectors are sums of
coefficient vectors.  Ambient coordinates (tuples of Fractions, whose
dimension may exceed the rank for families A and G) are computed on each
access, for tables and JSON, and never stored.  All pairings are the raw
coordinate dot product; marks are normalization free, but comarks, double
comarks and the comark sum depend on this realization and are kept as
exact rationals.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction as Q
from itertools import chain, compress
from operator import attrgetter, mul
from typing import Callable, Dict, List, Sequence, Tuple

Vector = Tuple[Q, ...]
Coeffs = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]
# rho and rho_check in the simple basis, each as (integer coefficients, denominator)
Weyl = Tuple[Tuple[Coeffs, int], Tuple[Coeffs, int]]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
# Families with one root length; build checks each system's norms against it.
SIMPLY_LACED_FAMILIES = ("A", "D", "E")

# family -> (minimum rank, maximum rank or None for the infinite families)
RANK_RANGE: Dict[str, Tuple[int, int | None]] = {
    "A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None),
    "E": (6, 8), "F": (4, 4), "G": (2, 2),
}


class ClosureError(RuntimeError):
    """The given simple roots do not generate a finite crystallographic system."""


class RootSystemId(namedtuple("RootSystemId", "family rank")):
    """An admissible (family, rank) pair; ids sort by family, then rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> RootSystemId:
        if family not in RANK_RANGE:
            raise ValueError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
        lo, hi = RANK_RANGE[family]
        # A bool is no rank, though it is an int.
        if type(rank) is not int or rank < lo or (hi is not None and rank > hi):
            span = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise ValueError(f"family {family} admits rank {span}, got {rank}")
        return tuple.__new__(cls, (family, rank))

    @classmethod
    def _make(cls, iterable) -> RootSystemId:  # _replace calls it: both validate
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


# The closure gives up on a system whose roots reach this height.
MAX_HEIGHT = 1000


def generate_positive_roots(gram: Matrix) -> Dict[Coeffs, Coeffs]:
    """Close the simple roots under root strings, from the Gram matrix alone.

    gram is G_ij = 2(alpha_i|alpha_j), integral.  Returns each positive
    root's coefficient vector c, level by level, mapped to its pairings
    2(alpha_j|a) = (c G)_j.  beta + alpha_i is a root iff
    p - <beta, alpha_i^> >= 1, where p counts how far the alpha_i-string
    descends from beta through known roots; with P = (c G) this is
    (p - 1) G_ii >= 2 P_i.  A step adds row i of G to the parent's
    pairings, and the new root's norm 2(a|a) = c . P must be positive.

    The walk keys each root on one int, 4 bits per coefficient: a step by
    alpha_i adds 1 << 4i, and the string walk subtracts it.  A coefficient
    of 15 raises, so no root's key holds 15 in any field, and a step that
    carries out of a field or a walk that borrows below 0 meets no root.
    Finite systems stay far below: the largest coefficient is 6, in E8.
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

    steps = [1 << 4 * i for i in range(r)]
    # packed key -> (coefficients, pairings), in the order the roots are found
    known: Dict[int, Tuple[Coeffs, Coeffs]] = {
        steps[i]: (tuple(int(k == i) for k in range(r)), tuple(gram[i])) for i in range(r)
    }
    current = list(known)
    height = 1
    while current:
        if height >= MAX_HEIGHT:
            raise ClosureError(
                f"no closure below height {MAX_HEIGHT}; "
                "the simple roots do not generate a finite system"
            )
        found: List[int] = []
        for beta in current:
            coeffs, pairs = known[beta]
            for i, step in enumerate(steps):
                cand = beta + step
                if cand in known:
                    continue
                p = 0
                below = beta - step
                while below in known:
                    p += 1
                    below -= step
                if (p - 1) * gram[i][i] >= 2 * pairs[i]:
                    if coeffs[i] == 14:
                        raise ClosureError(
                            f"closure reached coefficient 15 at alpha_{i + 1}; "
                            "the 4-bit root keys hold at most 14"
                        )
                    cand_coeffs = coeffs[:i] + (coeffs[i] + 1,) + coeffs[i + 1:]
                    cand_pairs = tuple(map(sum, zip(pairs, gram[i])))
                    if sum(map(mul, cand_coeffs, cand_pairs)) <= 0:
                        raise ClosureError(
                            "closure reached a vector of length zero; "
                            "input is not a finite root base"
                        )
                    known[cand] = cand_coeffs, cand_pairs
                    found.append(cand)
        current = found
        height += 1
    return dict(known.values())


def highest_root(positive: Sequence[Coeffs]) -> Coeffs:
    """The unique maximal positive root; its coefficients are the marks n_1..n_r.

    The root of greatest height lies in one irreducible component, so it has
    a zero coefficient exactly when the system is reducible.
    """
    theta = max(positive, key=sum)
    if not all(theta):
        raise ValueError("the highest root misses a simple root; the system is not irreducible")
    return theta


def weyl_vectors(positive: Sequence[Coeffs], norms: Sequence[int]) -> Weyl:
    """rho and rho_check in the simple basis, as integer coefficients over a denominator.

    2 rho is the sum of the positive roots.  The coroot of a is 4a / n with
    n = 2(a|a), so with L the lcm of the norms, L rho_check sums 2(L / n) a.
    """
    by_norm: Dict[int, List[Coeffs]] = {}
    for c, n in zip(positive, norms):
        by_norm.setdefault(n, []).append(c)
    lcm = math.lcm(*by_norm)
    two_rho = [0] * len(positive[0])
    lcm_rho_check = two_rho[:]
    for n, roots in by_norm.items():
        for k, total in enumerate(map(sum, zip(*roots))):
            two_rho[k] += total
            lcm_rho_check[k] += 2 * (lcm // n) * total
    return (tuple(two_rho), 2), (tuple(lcm_rho_check), lcm)


class RootSystem(namedtuple("RootSystem", (
    "ident marks comarks double_comarks coxeter_number comark_sum simply_laced "
    "gram root_coeffs pairing_columns norms heights rho_pairings weyl"
))):
    """Everything the identity checks need about one irreducible system.

    marks, comarks and double_comarks are indexed 0..rank; entry 0 belongs to
    alpha0, the negated highest root.  comark i is (alpha_i|alpha_i) n_i / 2
    and double comark i is (alpha_i|alpha_i) comark_i / 2, in the raw
    coordinate normalization.  coxeter_number is the mark sum; comark_sum is
    its analogue on the comark side and need not match the textbook dual
    Coxeter number when the highest root is not normalized to length 2.

    The integer tables follow root_coeffs, each root's coefficients c in the
    simple basis, in the closure's level order: norms 2(a|a), heights the
    coefficient sums, which are (a|rho_check), and rho_pairings
    4(a|rho) = sum_k c_k G_kk.  The pairings 2(alpha_j|a) = (c G)_j are kept
    by column and only where they are not zero: pairing_columns[j - 1] is
    (positions, pairings), the table positions of the roots a that pair
    with alpha_j, in table order, and those pairings.  gram is
    G_ij = 2(alpha_i|alpha_j), and weyl is what weyl_vectors returns.

    The ambient Fraction tables simple_roots, positive_roots (entry for
    entry with root_coeffs), alpha0, rho and rho_check are properties,
    computed from those integers on each access and never stored; no verify
    path reads them.  The repr leaves out the tables, gram onwards.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        shown = zip(self._fields, self[:self._fields.index("gram")])
        return "RootSystem(%s)" % ", ".join(f"{name}={value!r}" for name, value in shown)

    family = property(attrgetter("ident.family"))
    rank = property(attrgetter("ident.rank"))

    def _fractions(self, vectors: Sequence[Coeffs], den: int = 1) -> Tuple[Vector, ...]:
        """sum_k (c_k / den) alpha_k for each c in vectors."""
        scale, sums = _ambient(self.ident, vectors)
        return tuple(map(tuple, _over(sums, den * scale, Q)))

    def _vector(self, nums: Coeffs, den: int = 1) -> Vector:
        return self._fractions([nums], den)[0]

    # The closure lists the simple roots first, in index order.
    simple_roots = property(lambda self: self._fractions(self.root_coeffs[:self.rank]))
    positive_roots = property(lambda self: self._fractions(self.root_coeffs))
    alpha0 = property(lambda self: self._vector(tuple(-m for m in self.marks[1:])))
    rho = property(lambda self: self._vector(*self.weyl[0]))
    rho_check = property(lambda self: self._vector(*self.weyl[1]))

    def to_json_obj(self) -> dict:
        """JSON-ready table: rationals as 'p/q' strings, vectors as string arrays.

        Positive roots are listed by height, then by ambient coordinates.
        They are sorted on their integer planche sums, which are the ambient
        coordinates times one positive scale, so the order is the same.
        """
        def strs(v):
            return [str(x) for x in v]

        scale, sums = _ambient(self.ident, self.root_coeffs)
        by_height = [v for _, v in sorted(zip(self.heights, sums))]
        return {
            "family": self.family,
            "rank": self.rank,
            "positive_root_count": len(self.root_coeffs),
            "coxeter_number": self.coxeter_number,
            "comark_sum": str(self.comark_sum),
            "marks": list(self.marks),
            "comarks": strs(self.comarks),
            "double_comarks": strs(self.double_comarks),
            "simply_laced": self.simply_laced,
            "alpha0": strs(self.alpha0),
            "rho": strs(self.rho),
            "rho_check": strs(self.rho_check),
            "simple_roots": list(map(strs, self.simple_roots)),
            "positive_roots": _over(by_height, scale, lambda x, d: str(Q(x, d))),
        }


def build(ident: RootSystemId) -> RootSystem:
    """Construct and cross-validate the integer tables of an admissible id."""
    scale, scaled = _planche(ident)
    scaled_gram = [[2 * sum(map(mul, u, v)) for v in scaled] for u in scaled]
    if any(g % (scale * scale) for row in scaled_gram for g in row):
        raise ClosureError(f"{ident}: 2(alpha_i|alpha_j) is not integral")
    gram = tuple(tuple(g // (scale * scale) for g in row) for row in scaled_gram)

    closure = generate_positive_roots(gram)
    coeffs = tuple(closure)
    pairings = tuple(closure.values())
    norms = tuple(sum(map(mul, c, p)) for c, p in zip(coeffs, pairings))
    diag = [row[j] for j, row in enumerate(gram)]
    theta = highest_root(coeffs)
    marks = (1,) + theta
    node_norms = (norms[coeffs.index(theta)],) + tuple(diag)
    system = RootSystem(
        ident=ident,
        marks=marks,
        comarks=tuple(Q(g * n, 4) for g, n in zip(node_norms, marks)),
        double_comarks=tuple(Q(g * g * n, 16) for g, n in zip(node_norms, marks)),
        coxeter_number=sum(marks),
        comark_sum=Q(sum(map(mul, node_norms, marks)), 4),
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
        weyl=weyl_vectors(coeffs, norms),
    )
    _validate(system)
    return system


def _validate(system: RootSystem) -> None:
    """Internal consistency ties between the generated pieces.

    The last tie checks the Weyl vectors in the simple basis: every simple
    root has height (alpha_k|rho_check) = 1 and 4(alpha_k|rho) = G_kk,
    which is what makes heights and rho_pairings the word arguments.  As
    (G x)_k = 2(alpha_k|x), for rho = u / d and rho_check = v / L these read
    2(G u)_k = d G_kk and (G v)_k = 2L.
    """
    r, h = system.rank, system.coxeter_number
    count = len(system.root_coeffs)
    if 2 * count != r * h:
        raise ClosureError(
            f"{system.ident}: {count} positive roots; the count must equal rank * h / 2"
        )
    if set(map(sum, system.root_coeffs)) != set(range(1, h)):
        raise ClosureError(f"{system.ident}: root heights must fill [1, h-1]")
    if system.simply_laced != (system.ident.family in SIMPLY_LACED_FAMILIES):
        raise ClosureError(f"{system.ident}: root lengths disagree with the family")
    (u, d), (v, lcm) = system.weyl
    for k, row in enumerate(system.gram):
        if 2 * sum(map(mul, row, u)) != d * row[k] or sum(map(mul, row, v)) != 2 * lcm:
            raise ClosureError(f"{system.ident}: rho and rho_check disagree with alpha_{k + 1}")


# Ambient coordinates.  build reads only the Gram matrix off the integer
# planche rows; the ambient tables of RootSystem read the rest.


def _row(dim: int, entries: Dict[int, int]) -> Tuple[int, ...]:
    return tuple(entries.get(k, 0) for k in range(dim))


# Twice the simple roots of E8; E6 and E7 take the first six and seven of
# them, realized inside the same eight-dimensional space.
_E8_ROWS: Tuple[Tuple[int, ...], ...] = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    _row(8, {0: 2, 1: 2}),
    *(_row(8, {i: -2, i + 1: 2}) for i in range(6)),
)
# Twice the simple roots of F4, and the simple roots of G2.
_F4_ROWS: Tuple[Tuple[int, ...], ...] = (
    _row(4, {1: 2, 2: -2}), _row(4, {2: 2, 3: -2}), _row(4, {3: 2}), (1, -1, -1, -1),
)
_G2_ROWS: Tuple[Tuple[int, ...], ...] = ((1, -1, 0), (-2, 1, 1))


def _planche(ident: RootSystemId) -> Tuple[int, Sequence[Tuple[int, ...]]]:
    """A scale d and d times each simple root, in the planche realization, as ints.

    d is 2 for E and F, whose roots have half-integer coordinates, and 1 for
    the rest.
    """
    family, n = ident.family, ident.rank
    if family == "A":
        return 1, [_row(n + 1, {i: 1, i + 1: -1}) for i in range(n)]
    if family in ("B", "C", "D"):
        chain = [_row(n, {i: 1, i + 1: -1}) for i in range(n - 1)]
        last = {"B": {n - 1: 1}, "C": {n - 1: 2}, "D": {n - 2: 1, n - 1: 1}}[family]
        return 1, chain + [_row(n, last)]
    if family == "E":
        return 2, _E8_ROWS[:n]
    if family == "F":
        return 2, _F4_ROWS
    return 1, _G2_ROWS


def _ambient(ident: RootSystemId, vectors: Sequence[Coeffs]) -> Tuple[int, List[Coeffs]]:
    """The planche scale d, and d * sum_k c_k alpha_k for each c in vectors, as ints.

    Reads the planche rows s_k by sparse column: coordinate j sums c_k s_kj
    over the rows k with s_kj != 0, so a vector costs the nonzeros of the
    rows, not rank x dimension.  Every planche column has a nonzero entry;
    the zip over the columns relies on it.
    """
    scale, scaled = _planche(ident)
    by_index = tuple(zip(*vectors))
    columns = (
        map(sum, zip(*[map(s.__mul__, by_index[k]) for k, s in enumerate(column) if s]))
        for column in zip(*scaled)
    )
    return scale, list(zip(*columns))


def _over(vectors: Sequence[Coeffs], den: int, form: Callable[[int, int], object]) -> List[list]:
    """Each coordinate x of the integer vectors as form(x, den), one call per distinct x."""
    value = {x: form(x, den) for x in set(chain.from_iterable(vectors))}
    return [list(map(value.__getitem__, v)) for v in vectors]
