"""Relation lattice on a gamma grid and exact rational certificates.

For gamma(x) = Gamma(x)/Gamma(1-x) on the grid {j/N}, two families of proven
identities span everything the verifier needs: the reflection identities and
the gamma image of the Gauss multiplication formula.  A word whose exponent
vector lies in the rational span of the relation vectors equals the matching
product of relation values, which stays an exact prime-power constant.

The reflections are solved in closed form, and only the multiplication
relations go through elimination.  Folding an exponent vector v to
q_j = v_j - v_(N-j), 1 <= j <= (N-1)/2, maps exactly the span of reflection(j)
and half to zero, so v lies in the relation span iff its fold lies in the span
of the folded multiplication vectors M_m.  Solving the fold for coefficients
x_m leaves the residual v - sum_m x_m M_m in the reflection span, and its
entries at j < N/2 and at N/2 are the reflection and half coefficients.

The certificate is the one an elimination of the full system, reflections
first, gives.  That eliminator picks the greedy column basis and sets the
free variables to zero.  The reflection columns come first and have disjoint
supports, so each is a pivot.  A multiplication column is a pivot of the full
system iff its fold is a pivot of the folded system, because the fold's
kernel is the span of the reflections.  The pivot columns form a basis, so
the solution that is zero on the free columns is unique, and both routes
give identical coefficients.

Of the folded multiplication columns, in order (d ascending, k ascending),
the solver gets only those with d prime and 2dk < N.  A greedy pivot is a
column outside the span of the columns before it, and every other column
lies in that span, so dropping them changes no prefix span: the pivots and
the solution on them stay the same.
- For d = p m, p prime and m >= 2, multiplication(d, k) is the exact sum of
  multiplication(m, k + b N/d) over b < p and multiplication(p, m k), with
  values multiplying to match (the composition law of distribution
  relations, Kubert, Bull. SMF 1979).  Each index is in range, and m, p < d.
- multiplication(d, N/d - k) is the reflection image of multiplication(d, k)
  with the inverse value, so its fold is the negative of the fold at k, and
  the fold is zero when 2dk = N.

Reflections have value one, and multiplication(p, k) has the value
p^((N - 2pk)/N), so the derived constant's exponent of p is
sum_k x_(p,k) (N - 2pk)/N.  It is summed in integers, over the common
denominator of the x_m times N, and reduced with one gcd per prime.

One table per grid, _grid(n), built in one pass over the solver relations,
holds all a proof reads: the reflection tags, per solver column its tag, p,
the weight N - 2pk and its entries at j <= N/2, which are all the residual
reads, and the solver on the folds, its rank checked.  A proof then formats
no tag and scans no relation's full vector.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache
from itertools import starmap
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .exact import ONE, FactoredConstant, factorize, fraction_str, term_json, validated_make
from .gammaword import GammaWord


class RankError(ArithmeticError):
    """The solver relations on a grid do not have the rank the theory gives them."""


class Relation(namedtuple("Relation", "tag vector value")):
    """A proven identity prod_j gamma(j/N)^(v_j) = value on one grid; vector holds the (j, v_j)."""

    __slots__ = ()

    def to_json_obj(self) -> dict:
        """The tag, the (j, exponent) entries and the value, as `relations --format json` prints.

        The dict and its lists are new on each call; the entries are the
        shared, read-only records of exact.term_json and of the value's
        to_json_obj.
        """
        return {
            "tag": self.tag,
            "vector": list(starmap(term_json, self.vector)),
            "value": self.value.to_json_obj(),
        }


def _check_grid(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"grid denominator must be an integer >= 2, got {n}")


@lru_cache(maxsize=None)
def _reflection_tag(j: int) -> str:
    """Tag of the reflection pairing j with N - j, j < N/2; the one at 2j = N is half.

    Memoized, as the multiplication tags are: a tag names the same relation
    on every grid, so all grids share one string per tag (167 hits and 22
    misses on the default sweep).  One entry per j below half the largest
    grid proved on.
    """
    return f"reflection({j})"


def reflection_relations(n: int) -> List[Relation]:
    """gamma(j/N) gamma((N-j)/N) = 1 for j < N/2, plus gamma(1/2) = 1 for even N.

    The vectors' (j, 1) entries are linalg.shared_pairs' tuples, read-only.
    """
    _check_grid(n)
    ones = linalg.shared_pairs(n)[1]
    out = [Relation(_reflection_tag(j), (ones[j], ones[n - j]), ONE)
           for j in range(1, (n + 1) // 2)]
    if n % 2 == 0:
        out.append(Relation("half", (ones[n // 2],), ONE))
    return out


@lru_cache(maxsize=None)
def _multiplication_tag(d: int, k: int) -> str:
    """Tag of multiplication(d, k), one string per tag for all grids, as _reflection_tag's.

    82 hits and 21 misses on the default sweep, 876 and 66 on the seed-1
    lattice words.  One entry per (d, k) with d dividing a grid N proved
    on and k < N/d.
    """
    return f"multiplication({d},{k})"


def _multiplication_vector(n: int, d: int, k: int) -> Tuple[Tuple[int, int], ...]:
    """The exponent vector of multiplication(d, k) on the 1/N grid, sorted by j.

    Each entry (j, +-1) is linalg.shared_pairs' tuple, read by index: every
    vector, every _grid column and every relation of a process shares it,
    so a vector is read-only.
    """
    pairs = linalg.shared_pairs(n)
    step = n // d
    # The d factors k + i N/d, each with exponent 1: a slice of the table.
    vector = pairs[1][k:n:step]
    # dk = k + i N/d + rest: gamma(dk/N) cancels factor i when rest is 0, and
    # otherwise joins the ascending factors, with exponent -1, right after it.
    i, rest = divmod((d - 1) * k, step)
    vector[i : i + 1] = [vector[i], pairs[-1][d * k]] if rest else []
    return tuple(vector)


def _multiplication(n: int, d: int, k: int, primes: Sequence[Tuple[int, int]]) -> Relation:
    """multiplication(d, k) on the 1/N grid; primes is the factorization of d as (p, m) pairs."""
    value = FactoredConstant.over([(p, m * (n - 2 * d * k)) for p, m in primes], n)
    return Relation(_multiplication_tag(d, k), _multiplication_vector(n, d, k), value)


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
        if n % d == 0:
            primes = tuple(factorize(d).items())
            out.extend(_multiplication(n, d, k, primes) for k in range(1, n // d))
    return out


def relations_for(n: int) -> Tuple[Relation, ...]:
    """All relations on the 1/N grid in deterministic order, reflections first.

    There are N // 2 reflections, and the one at position j - 1 pairs j with
    N - j (half when 2j = N).  Built afresh on each call: no verify path
    reads it, and the relations command and kernel_consistency read one
    grid once.
    """
    return tuple(reflection_relations(n) + multiplication_relations(n))


class Certificate(namedtuple("Certificate", "terms derived_constant")):
    """Rational relation coefficients reproducing a word's exponent vector.

    The certified statement: the gamma part of the word equals
    derived_constant = prod over (tag, coefficient) entries of value(tag)^coefficient.
    Canonical form: terms holds (tag, numerator, denominator) int triples,
    each coefficient in lowest terms with a positive denominator.  The
    constructor takes such triples, reduced or not, and refuses any other
    entry with ValueError: it checks each numerator and denominator itself
    (an int, not a bool, Fraction or float, over an int >= 1) and reduces
    it with one gcd.  It is the only construction path, _make and _replace
    included.
    """

    __slots__ = ()

    def __new__(cls, terms: Sequence[tuple], derived_constant: FactoredConstant) -> Certificate:
        reduced = []
        for term in terms:
            try:
                tag, n, d = term
            except (TypeError, ValueError):
                raise ValueError(f"{term!r} is no (tag, numerator, denominator) triple") from None
            if type(n) is not int or type(d) is not int or d < 1:
                raise ValueError(f"coefficient {n!r}/{d!r} is not an int over a positive int")
            g = math.gcd(n, d)
            reduced.append((tag, n // g, d // g))
        return tuple.__new__(cls, (tuple(reduced), derived_constant))

    _make = classmethod(validated_make)

    def to_json_obj(self) -> dict:
        """The cited relations with their coefficients, then the derived constant's entries.

        The dict and its lists are new on each call, but each entry is a
        shared, read-only record: _citation_json's, one per distinct (tag,
        n, d), and the constant's, one per distinct prime power.  So the
        trees of all certificates in a process hold each record once.
        """
        return {
            "relations": list(starmap(_citation_json, self.terms)),
            "derived_constant": self.derived_constant.to_json_obj(),
        }


@lru_cache(maxsize=None)
def _citation_json(tag: str, n: int, d: int) -> dict:
    """The record of the relation tag cited with coefficient n/d, once per distinct triple.

    Memoized as exact.term_json is, and read-only as its records are; so
    fraction_str runs once per distinct coefficient in a process (1,152
    hits and 170 misses on the default sweep, 3,217 and 826 on the seed-1
    lattice words).  One entry per distinct (tag, coefficient) cited.
    """
    return {"tag": tag, "coefficient": fraction_str(n, d)}


def _fold(pairs: Sequence[Tuple[int, int]], n: int) -> List[int]:
    """q_j = v_j - v_(N-j) for 1 <= j <= (N-1)/2: zero exactly on the reflection span."""
    folded = [0] * ((n - 1) // 2)
    for j, e in pairs:
        if 2 * j < n:
            folded[j - 1] += e
        elif 2 * j > n:
            folded[n - j - 1] -= e
    return folded


@lru_cache(maxsize=None)
def _grid(n: int) -> tuple:
    """What prove_constant reads per grid, built in one pass once per N.

    The triple (reflection tags, columns, solver).  The tag of the
    reflection at j sits at position j - 1, for 1 <= j <= N/2.  The solver
    relations are the multiplications with d prime and 2dk < N, in
    multiplication_relations(n) order (the module docstring gives the
    reason), and each gives one column (tag, p, N - 2pk, entries at
    j <= N/2): multiplication(p, k) has the value p^((N - 2pk)/N).  A vector
    is sorted by j, so its entries at j <= N/2 are a prefix, and the slice
    holds the vector's (j, e) pair objects, linalg.shared_pairs' tuples.
    The tags are the memoized ones, shared by all grids and by the
    certificates.  The solver is the linalg.PreparedSolver on the relations'
    folds, or None where there are none; no full vector is kept.  Its
    transform's entries of size at most 2 are the same table's tuples, so
    every grid in the process shares one tuple per (index, value) pair,
    and the table is read-only.

    The solver's rank must be (N - 1)//2 - phi(N)//2, phi Euler's totient,
    and any other rank raises RankError, so every grid a run proves on is
    tied to a theorem, not only the grids the kernel check covers.  By the
    criterion of Koblitz and Ogus (appendix to Deligne, Proc. Symp. Pure
    Math. 33, 1979), an exponent vector g lies in the relation span iff
    B_u(g) = sum_j g_j (2 <u j/N> - 1) is the same for every unit u mod N,
    where <x> is the fractional part.  B_(-u) = -B_u, so for N >= 3 that asks
    B_u(g) = 0 for one u of each pair +-u: phi(N)/2 conditions, none for
    N = 2.  They are independent: take one of the phi(N)/2 odd characters
    mod N, induced by the primitive chi mod f; then
    g = sum over units a mod f of chi(a) e_(aN/f) gives
    B_u(g) = conj(chi)(u) sum_a chi(a) (2a/f - 1) = 2 conj(chi)(u) B_(1,chi),
    and the Bernoulli number B_(1,chi) of an odd primitive character is not
    zero (it is -L(0, chi), and L(1, conj chi) != 0).  So u -> B_u(g) takes
    every odd character as a value, the conditions have rank phi(N)//2, and
    the span has dimension N - 1 - phi(N)//2.  The fold's kernel is the span of the N//2
    reflections, and the solver relations span the fold of the whole span
    (module docstring), so their folds have rank
    N - 1 - phi(N)//2 - N//2 = (N - 1)//2 - phi(N)//2.  The rank held on
    every N = 2..400 when the check was written.

    Memoized: each grid is built once for all the words on it (325 hits
    and 24 misses on the default sweep, 664 and 95 on the seed-1 lattice
    words, where the 95 grids hold 0.36 MB).  One entry per grid proved
    on, O(N^2) ints each.
    """
    # The reflection at N/2, for even N, is half.
    tags = tuple(map(_reflection_tag, range(1, (n + 1) // 2))) + ("half",) * (n % 2 == 0)
    primes = factorize(n)
    columns, folds = [], []
    for p in sorted(primes):
        for k in range(1, (n // p + 1) // 2):
            v = _multiplication_vector(n, p, k)
            prefix = v[: bisect_right(v, (n // 2, math.inf))]
            columns.append((_multiplication_tag(p, k), p, n - 2 * p * k, prefix))
            folds.append(_fold(v, n))
    solver = linalg.PreparedSolver(folds) if folds else None
    expected = (n - 1) // 2 - n // math.prod(primes) * math.prod(p - 1 for p in primes) // 2
    rank = solver.rank if solver else 0
    if rank != expected:
        raise RankError(f"the solver relations on the 1/{n} grid have rank {rank}, not {expected}")
    return tags, tuple(columns), solver


def prove_constant(word: GammaWord) -> Optional[Certificate]:
    """Express the word's exponent vector in the rational relation span.

    Returns a certificate whose derived constant equals the word's value,
    or None when the vector lies outside the span.
    """
    if not word.exponents:
        return Certificate((), ONE)
    n = word.denominator
    folded = _fold(word.exponents, n)
    tags, columns, solver = _grid(n)
    if solver is None:
        # No relation to eliminate (N prime, or N = 4): the fold must vanish.
        solution = None if any(folded) else []
    else:
        solution = solver.solve(folded)
    if solution is None:
        return None
    # The residual v - sum_m x_m M_m at j <= N/2, in integers over the common
    # denominator of the x_m: entry j is the coefficient of the reflection at j.
    # The derived constant's exponent of p, sum_k x_(p,k) (N - 2pk)/N, is
    # summed over the same denominator times N.  The Certificate constructor
    # brings each coefficient to lowest terms.
    denominator = math.lcm(*(d for _, _, d in solution))
    residual = {j: e * denominator for j, e in word.exponents if 2 * j <= n}
    powers = []
    for c, x, d in solution:
        _, p, weight, entries = columns[c]
        scaled = x * (denominator // d)
        powers.append((p, scaled * weight))
        for j, e in entries:
            residual[j] = residual.get(j, 0) - scaled * e
    terms = [(tags[j - 1], r, denominator) for j, r in sorted(residual.items()) if r]
    terms += [(columns[c][0], x, d) for c, x, d in solution]
    derived = FactoredConstant.over(powers, denominator * n)
    return Certificate(terms, derived)


def kernel_consistency(n: int) -> tuple[bool, Optional[Tuple[Tuple[str, Q], ...]]]:
    """Check that every rational dependency among the relations has value one.

    This is what makes the derived constant independent of which particular
    solution the eliminator picks.  Each nullspace vector's entry x/y at a
    relation with value prod p^(e/d) contributes the triples (p, e x, d y),
    which the FactoredConstant constructor sums per prime.  Returns
    (True, None), or (False, witness) with the offending combination as
    (tag, coefficient) pairs, the coefficients Fractions.  The relations are
    relations_for(n), read through the module attribute.
    """
    relations = relations_for(n)
    columns = [[v.get(j, 0) for j in range(1, n)] for v in (dict(r.vector) for r in relations)]
    for vector in linalg.nullspace(columns):
        powers = [(p, e * x, d * y) for c, x, y in vector for p, e, d in relations[c].value.powers]
        if not FactoredConstant(powers).is_one:
            return False, tuple((relations[c].tag, Q(x, y)) for c, x, y in vector)
    return True, None
