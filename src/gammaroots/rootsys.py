"""Irreducible root systems, computed on integers in the simple-root basis.

Every positive root is an integer coefficient vector c in the basis of
simple roots alpha_1..alpha_r.  The Gram matrix G_ij = 2(alpha_i|alpha_j) is
integral for all of A-G in the Bourbaki planche coordinates used here, and
the root-string closure runs on G alone: each root carries its nonzero
pairings 2(alpha_j|a) = (c G)_j until it is read, when they move into the
pairing columns, and a step by alpha_i adds row i of G, 1 to the height and
G_ii to 4(a|rho).  The closure tries only the steps that find a root, so a
system of rank r costs about r^2 steps, each as dear as its nonzero
pairings.  It keeps no coefficient vector: each root records the
root it was first reached from and the step, so the roots form a tree whose
paths spell the coefficients.  The norms 2(a|a) = c . (c G) are carried
step by step, the marks are the steps on the highest root's path, and the
Weyl vectors are sums over the tree in one reverse pass, so nothing past
the closure costs more than O(#roots + r^2).  Ambient coordinates (tuples
of Fractions, whose dimension may exceed the rank for families A and G) are
computed on each access, for tables and JSON, and never stored; the
positive roots' in one forward pass over the tree.  All pairings are the
raw coordinate dot product; marks are normalization free, but comarks,
double comarks and the comark sum depend on this realization and are read
off the node norms on access.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction as Q
from itertools import chain, product
from operator import add, attrgetter, mul
from typing import Callable, Dict, List, Sequence, Tuple

from .exact import validated_make

Vector = Tuple[Q, ...]
# Integer vectors: coefficients in the simple basis, or planche sums
Coeffs = Sequence[int]
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

    _make = classmethod(validated_make)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def generate_positive_roots(gram: Sequence[Sequence[int]]) -> tuple:
    """Close the simple roots under root strings, from the Gram matrix alone.

    gram is G_ij = 2(alpha_i|alpha_j), integral, square and not empty.
    beta + alpha_i is a root iff p - <beta, alpha_i^> >= 1, where p counts
    how far the alpha_i-string descends from beta through known roots; with
    P = (c G) the pairings this is (p - 1) G_ii >= 2 P_i.

    From beta only the candidate steps are tried, in increasing i: the i
    with P_i < 0, and the i recorded for beta.  A step by alpha_i that comes
    to beta, new or known, records i with p + 1 for beta when the rule, read
    one step ahead with P_i(beta) = P_i + G_ii, lets the alpha_i-string go
    on past beta.  So every candidate step reaches a root, and p is read,
    not walked.  A candidate without a record has P_i < 0 and p = 0, and the
    rule reads 2 P_i <= -G_ii, true as 2 P_i / G_ii is an integer.  No other
    step finds a root: if beta - alpha_i is not a root, the string starts at
    beta and P_i >= 0 fails the rule; if it is, the rule failed one step
    down, or when the record for beta was skipped, and up a string 2 P_i
    grows by 2 G_ii a step while (p - 1) G_ii grows by G_ii.  By induction
    up the strings the records are exact on any input, and the roots, their
    order and the errors are those of trying every i with a walk down the
    string.

    A step by alpha_i adds row i of G to the nonzero pairings, 1 to the
    height and G_ii to 4(a|rho).  The new root's norm 2(a|a) = c . P, which
    must be positive, is the parent's plus (G c)_i + P_i after the step,
    read off row i, which is c' G c'^T exactly whether or not G is
    symmetric.

    Returns (parents, steps, columns, norms, heights, rho_pairings): the
    parallel tables in level order, as lists, and the pairing columns.
    parents and steps are the first-parent tree: root k was first reached
    from root parents[k] by alpha_(steps[k] + 1), so its coefficients are
    its parent's plus one at that step.  A simple root has parent -1 and its
    own index as step, and every parent comes before its children.  The
    nonzero pairings of a root are a dict {j: (c G)_j} until the root is
    read; then each pairing (c G)_j goes to column j, which is a pair of
    lists (positions, pairings), and the dict is dropped.  Roots are read
    in table order, so each column lists its positions in table order.

    The closure keys each root on one int, 4 bits per coefficient: a step
    by alpha_i adds 1 << 4i.  A coefficient of 15 raises, so no root's key
    holds 15 in any field, and a step that carries out of a field meets no
    root.  That bound also ends the closure on any input, at height 14r at
    most.  Finite systems stay far below: the largest coefficient is 6, in
    E8.
    """
    r = len(gram)
    if not r or any(len(row) != r for row in gram):
        raise ClosureError("the Gram matrix must be square and not empty")
    diag = [row[i] for i, row in enumerate(gram)]
    for i, g in enumerate(diag):
        if g <= 0:
            raise ClosureError(f"2(alpha_{i + 1}|alpha_{i + 1}) = {g} is not positive")
    for i, row in enumerate(gram):
        if any(2 * g % diag[j] for j, g in enumerate(row)):
            raise ClosureError(
                f"non-integral Cartan integer at alpha_{i + 1}; input is not crystallographic"
            )

    rows = [[(j, g) for j, g in enumerate(row) if g] for row in gram]
    # packed key -> table position; the tables below follow the positions
    position = {1 << 4 * i: i for i in range(r)}
    # records[k]: i -> p for each alpha_i-string that goes on past root k, p roots below it;
    # pairings[k]: root k's nonzero pairings {j: (c G)_j}.  Both are dropped when k is
    # read; every step to root k comes from the level below, so k's record is whole then.
    keys, pairings, records = list(position), dict(enumerate(map(dict, rows))), {}
    columns = [([], []) for _ in rows]
    parents, steps = [-1] * r, list(range(r))
    norms, heights, rho_pairings = diag[:], [1] * r, diag[:]
    # keys grows as the loop reads it: each root is read after every root of lower height.
    for k, beta in enumerate(keys):
        pairs, ups = pairings.pop(k), records.pop(k, {})
        for j, value in pairs.items():
            columns[j][0].append(k)
            columns[j][1].append(value)
        for i in sorted({*ups, *[j for j, p in pairs.items() if p < 0]}):
            cand, p = beta + (1 << 4 * i), ups.get(i, 0)
            if cand not in position:
                if (beta >> 4 * i) & 15 == 14:
                    raise ClosureError(
                        f"closure reached coefficient 15 at alpha_{i + 1}; "
                        "the 4-bit root keys hold at most 14"
                    )
                new, norm = pairs.copy(), norms[k]
                for j, g in rows[i]:
                    norm += g * (beta >> 4 * j & 15)
                    new[j] = new.get(j, 0) + g
                    if not new[j]:
                        del new[j]
                norm += new.get(i, 0)
                if norm <= 0:
                    raise ClosureError(
                        "closure reached a vector of length zero; input is not a finite root base"
                    )
                position[cand] = len(keys)
                pairings[len(keys)] = new
                keys.append(cand)
                parents.append(k)
                steps.append(i)
                norms.append(norm)
                heights.append(heights[k] + 1)
                rho_pairings.append(rho_pairings[k] + diag[i])
            # The rule at cand: (p + 1 - 1) G_ii >= 2 P_i(cand) = 2 (P_i + G_ii).
            if (p - 2) * diag[i] >= 2 * pairs.get(i, 0):
                records.setdefault(position[cand], {})[i] = p + 1
    return parents, steps, columns, norms, heights, rho_pairings


def highest_root(parents: Sequence[int], steps: Sequence[int]) -> Tuple[int, ...]:
    """The marks n_1..n_r: the coefficients of the unique maximal positive root.

    The closure lists roots in level order, so the last root has the greatest
    height, and its coefficients count the steps on its path up the
    first-parent tree, h - 1 of them.  That root lies in one irreducible
    component, so it has a zero coefficient exactly when the system is
    reducible.  The rank is the number of simple roots, the roots with
    parent -1.
    """
    marks, k = [0] * parents.count(-1), len(steps) - 1
    while k >= 0:
        marks[steps[k]] += 1
        k = parents[k]
    if not all(marks):
        raise ValueError("the highest root misses a simple root; the system is not irreducible")
    return tuple(marks)


def weyl_vectors(parents: Sequence[int], steps: Sequence[int], norms: Sequence[int]) -> Weyl:
    """rho and rho_check in the simple basis, as integer coefficients over a denominator.

    2 rho is the sum of the positive roots.  A root's coefficients are its
    parent's plus one at its step, so coefficient k of a root counts the
    roots on its path up the first-parent tree whose step is alpha_k, and
    coefficient k of 2 rho is the sum of the subtree sizes of the roots whose
    step is alpha_k.  The coroot of a is 4a / n with n = 2(a|a), so with L
    the lcm of the norms, L rho_check sums 2(L / n) a: the same sum with
    each root weighted 2L / n.  Every parent comes before its children, so
    one reverse pass over the level order finishes each subtree before it
    adds it to its parent.  The simple roots, the roots with parent -1,
    give the rank.
    """
    lcm, rank = math.lcm(*set(norms)), parents.count(-1)
    sizes, weights = [1] * len(norms), [2 * (lcm // n) for n in norms]
    two_rho, lcm_rho_check = [0] * rank, [0] * rank
    for k, parent, i in zip(range(len(sizes) - 1, -1, -1), reversed(parents), reversed(steps)):
        two_rho[i] += sizes[k]
        lcm_rho_check[i] += weights[k]
        # A simple root's parent -1 names the last root, which was read first.
        sizes[parent] += sizes[k]
        weights[parent] += weights[k]
    return (tuple(two_rho), 2), (tuple(lcm_rho_check), lcm)


class RootSystem(namedtuple("RootSystem", (
    "ident marks coxeter_number simply_laced "
    "gram parents steps pairing_columns norms heights rho_pairings weyl"
))):
    """Everything the identity checks need about one irreducible system.

    marks, node_norms, comarks and double_comarks are indexed 0..rank; entry
    0 belongs to alpha0, the negated highest root.  node_norms g_j =
    2(alpha_j|alpha_j) are integers, and the comark properties are read off
    them on each access, never stored: comark j is g_j n_j / 4 and double
    comark j is g_j comark_j / 4, in the raw coordinate normalization.
    coxeter_number is the mark sum; comark_sum is its analogue on the comark
    side and need not match the textbook dual Coxeter number when the
    highest root is not normalized to length 2.

    The integer tables list the positive roots in the closure's level
    order, which lists the simple roots first, in index order, and the
    highest root last.  parents and steps, one int per root, are the
    closure's first-parent tree (see generate_positive_roots): root k is
    root parents[k] plus alpha_(steps[k] + 1), and a simple root has parent
    -1.  No coefficient vector c is stored.  norms are 2(a|a), heights the
    coefficient sums, which are (a|rho_check), and rho_pairings 4(a|rho) =
    sum_k c_k G_kk.  The pairings 2(alpha_j|a) = (c G)_j are kept by column
    and only where they are not zero: pairing_columns[j - 1] is (positions,
    pairings), the table positions of the roots a that pair with alpha_j, in
    table order, and those pairings, as the closure collects them; alpha_j's
    own column holds G_jj, so none is empty.  gram is G_ij =
    2(alpha_i|alpha_j), and weyl is what weyl_vectors returns.

    The ambient Fraction tables simple_roots, positive_roots (in table
    order), alpha0, rho and rho_check are properties, computed from those
    integers on each access and never stored; no verify path reads them.
    positive_roots follows the tree forward, a root being its parent plus
    its step's planche row (_root_sums).  The repr leaves out the tables,
    gram onwards.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        shown = zip(self._fields, self[:self._fields.index("gram")])
        return "RootSystem(%s)" % ", ".join(f"{name}={value!r}" for name, value in shown)

    family = property(attrgetter("ident.family"))
    rank = property(attrgetter("ident.rank"))

    def _fractions(self, sums: Sequence[Coeffs], den: int = 1) -> Tuple[Vector, ...]:
        """Integer planche sums, d times ambient coordinates, over d * den as Fractions."""
        return tuple(map(tuple, _over(sums, den * _planche(self.ident)[0], Q)))

    def _vector(self, nums: Coeffs, den: int = 1) -> Vector:
        """sum_k (c_k / den) alpha_k, one dense planche column per coordinate."""
        columns = zip(*_planche(self.ident)[1])
        return self._fractions([[sum(map(mul, nums, column)) for column in columns]], den)[0]

    @property
    def node_norms(self) -> Tuple[int, ...]:
        """g_j = 2(alpha_j|alpha_j) for j = 0..rank, alpha0 first.

        Read off the norms in the closure's level order, which lists the
        simple roots first, in index order, and the highest root last; the
        comark data and k_root take the node order from here.
        """
        return (self.norms[-1], *self.norms[:self.rank])

    def _node_quarters(self, e: int) -> Tuple[Q, ...]:
        """n_j (g_j / 4)^e for j = 0..rank."""
        return tuple(Q(n * g**e, 4**e) for g, n in zip(self.node_norms, self.marks))

    comarks = property(lambda self: self._node_quarters(1))
    double_comarks = property(lambda self: self._node_quarters(2))
    comark_sum = property(lambda self: Q(sum(map(mul, self.node_norms, self.marks)), 4))

    simple_roots = property(lambda self: self._fractions(_planche(self.ident)[1]))
    positive_roots = property(lambda self: self._fractions(_root_sums(self)))
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

        by_height = [v for _, v in sorted(zip(self.heights, _root_sums(self)))]
        return {
            "family": self.family,
            "rank": self.rank,
            "positive_root_count": len(self.heights),
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
            "positive_roots": _over(by_height, _planche(self.ident)[0], lambda x, d: str(Q(x, d))),
        }


def build(ident: RootSystemId) -> RootSystem:
    """Construct and cross-validate the integer tables of an admissible id."""
    scale, scaled = _planche(ident)
    scaled_gram = [[0] * len(scaled) for _ in scaled]
    for column in zip(*scaled):
        nonzero = [(k, s) for k, s in enumerate(column) if s]
        for (i, s), (j, t) in product(nonzero, nonzero):
            scaled_gram[i][j] += 2 * s * t
    if any(g % (scale * scale) for row in scaled_gram for g in row):
        raise ClosureError(f"{ident}: 2(alpha_i|alpha_j) is not integral")
    gram = tuple(tuple(g // (scale * scale) for g in row) for row in scaled_gram)

    parents, steps, columns, norms, heights, rho_pairings = generate_positive_roots(gram)
    marks = (1, *highest_root(parents, steps))
    system = RootSystem(
        ident=ident,
        marks=marks,
        coxeter_number=sum(marks),
        simply_laced=len(set(norms)) == 1,
        gram=gram,
        parents=tuple(parents),
        steps=tuple(steps),
        pairing_columns=tuple((tuple(ks), tuple(ps)) for ks, ps in columns),
        norms=tuple(norms),
        heights=tuple(heights),
        rho_pairings=tuple(rho_pairings),
        weyl=weyl_vectors(parents, steps, norms),
    )
    _validate(system)
    return system


def _validate(system: RootSystem) -> None:
    """Internal consistency ties between the generated pieces, on O(#roots + r^2) data.

    Each tie reads tables the closure or the tree pass built, never a
    coefficient vector:
    - 2 #roots = r h, with #roots the size of the tree and h the mark sum
      read off its last path, catches a closure that lost or repeated a
      root, and marks read off a root that is not the highest;
    - the heights fill [1, h-1] catches a heights table that disagrees with
      the marks, such as a missing level or a last root below the top;
    - the heights sum to sum_k (2 rho)_k, as each root's height is the length
      of its path and the tree pass counts each root once per step on it:
      this ties the tree to the heights the closure counted, and catches a
      wrong parent, or a height carried wrong;
    - the norms have one length exactly for families A, D and E, which
      catches a norm table of the wrong system;
    - the Weyl vectors in the simple basis: every simple root has height
      (alpha_k|rho_check) = 1 and 4(alpha_k|rho) = G_kk, which is what makes
      heights and rho_pairings the word arguments.  As (G x)_k =
      2(alpha_k|x), for rho = u / d and rho_check = v / L these read 2(G u)_k
      = d G_kk and (G v)_k = 2L.  They catch a wrong step in the tree, which
      leaves every count above as it was, and a wrong norm weight.
    """
    r, h, heights = system.rank, system.coxeter_number, system.heights
    count = len(system.parents)
    if 2 * count != r * h:
        raise ClosureError(
            f"{system.ident}: {count} positive roots; the count must equal rank * h / 2"
        )
    (u, d), (v, lcm) = system.weyl
    if set(heights) != set(range(1, h)) or d * sum(heights) != 2 * sum(u):
        raise ClosureError(f"{system.ident}: root heights must fill [1, h-1] and sum to 2 rho")
    if system.simply_laced != (system.ident.family in SIMPLY_LACED_FAMILIES):
        raise ClosureError(f"{system.ident}: root lengths disagree with the family")
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


def _root_sums(system: RootSystem) -> List[Coeffs]:
    """d times each positive root in planche coordinates, as ints, in one forward pass.

    A root's sums are its parent's plus the planche row of its step, and a
    simple root's are its own row, so the level order, which lists every
    parent before its children, builds them all without a coefficient
    vector.  Tables and JSON read it; no verify path does.  The sums are
    lists: they are garbage once converted, and freed lists give their
    memory back where small tuples would wait in the interpreter's free
    lists.
    """
    scaled, sums = _planche(system.ident)[1], []
    for parent, i in zip(system.parents, system.steps):
        sums.append(list(map(add, sums[parent], scaled[i])) if parent >= 0 else list(scaled[i]))
    return sums


def _over(vectors: Sequence[Coeffs], den: int, form: Callable[[int, int], object]) -> List[list]:
    """Each coordinate x of the integer vectors as form(x, den), one call per distinct x."""
    value = {x: form(x, den) for x in set(chain.from_iterable(vectors))}
    return [list(map(value.__getitem__, v)) for v in vectors]
