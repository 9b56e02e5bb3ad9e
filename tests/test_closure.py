"""The sparse candidate closure against the tuple-slicing closure it replaced."""

import math
import random
from collections import Counter
from operator import mul

import pytest

from gammaroots.rootsys import ClosureError, RootSystemId, build, generate_positive_roots


def reference_positive_roots(gram, max_height=1000):
    """The closure on coefficient tuples: every candidate and every string step is a new tuple.

    Same rule as generate_positive_roots: beta + alpha_i is a root iff
    (p - 1) G_ii >= 2 P_i, with p the length of the alpha_i-string below
    beta and P = (c G) the pairings, which a step updates by row i of G.
    """
    r = len(gram)
    for i, row in enumerate(gram):
        if row[i] <= 0:
            raise ClosureError(f"2(alpha_{i + 1}|alpha_{i + 1}) = {row[i]} is not positive")
    for i, row in enumerate(gram):
        if any(2 * g % gram[j][j] for j, g in enumerate(row)):
            raise ClosureError(f"non-integral Cartan integer at alpha_{i + 1}")
    known = {tuple(int(k == i) for k in range(r)): tuple(gram[i]) for i in range(r)}
    current = list(known)
    height = 1
    while current:
        if height >= max_height:
            raise ClosureError(f"no closure below height {max_height}")
        found = []
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
                        raise ClosureError("closure reached a vector of length zero")
                    known[cand] = cand_pairs
                    found.append(cand)
        current = found
        height += 1
    return known


def densified(gram):
    """generate_positive_roots(gram) as reference_positive_roots lists it.

    Each root becomes (coefficient tuple, full pairing tuple), in the
    closure's order.  The coefficients must be bytes, the sparse pairings
    must hold no zero, and the carried norms, heights and rho pairings must
    be c . P, sum(c) and sum_k c_k G_kk.
    """
    coeffs, pairings, norms, heights, rho_pairings = generate_positive_roots(gram)
    rows = []
    for c, pairs in zip(coeffs, pairings, strict=True):
        assert type(c) is bytes and len(c) == len(gram) and all(pairs.values())
        rows.append((tuple(c), tuple(pairs.get(j, 0) for j in range(len(gram)))))
    assert norms == [sum(map(mul, c, p)) for c, p in rows]
    assert heights == [sum(c) for c, _ in rows]
    assert rho_pairings == [sum(x * gram[k][k] for k, x in enumerate(c)) for c, _ in rows]
    return rows


def test_closure_matches_the_reference_on_every_sweep_system(systems):
    assert len(systems) == 49
    for ident, system in systems.items():
        # Same roots, same pairings, same insertion order.
        assert densified(system.gram) == list(reference_positive_roots(system.gram).items()), ident


def test_closure_matches_the_reference_past_the_rank_cap(large_systems):
    grams = {ident: system.gram for ident, system in large_systems.items()}
    grams.update({(family, 48): build(RootSystemId(family, 48)).gram for family in "ABCD"})
    for ident, gram in grams.items():
        assert densified(gram) == list(reference_positive_roots(gram).items()), ident


def random_gram(rng):
    """A random integral Gram matrix of rank 2..6 with integral Cartan integers.

    Neighbours i, i + 1 are joined with probability 0.8 and other pairs with
    0.1, by a multiple of -1 to -3 (one in ten of +1 to +3) of what keeps
    2 G_ij / G_jj integral.  Half the matrices are symmetric; in the rest
    the two Cartan integers of a pair are drawn independently.
    """
    r = rng.randint(2, 6)
    diag = [rng.choice((2, 2, 4, 6)) for _ in range(r)]
    gram = [[g if i == j else 0 for j in range(r)] for i, g in enumerate(diag)]
    symmetric = rng.random() < 0.5
    for i in range(r):
        for j in range(i + 1, r):
            if rng.random() < (0.8 if j == i + 1 else 0.1):
                sign = -1 if rng.random() < 0.9 else 1
                a, b = rng.choice((1, 1, 1, 1, 2, 3)), rng.choice((1, 1, 1, 1, 2, 3))
                if symmetric:
                    gram[i][j] = gram[j][i] = sign * a * math.lcm(diag[i], diag[j]) // 2
                else:
                    gram[i][j], gram[j][i] = sign * a * diag[j] // 2, sign * b * diag[i] // 2
    return tuple(map(tuple, gram)), symmetric


def test_closure_matches_the_reference_on_random_matrices():
    """Skipped steps never insert a root: same roots and order, or ClosureError in both."""
    rng = random.Random(2010)
    outcomes = Counter()
    for _ in range(2000):
        gram, symmetric = random_gram(rng)
        try:
            # The packed keys stop at coefficient 14, so at height 14r at most.
            expected = list(reference_positive_roots(gram, 14 * len(gram) + 1).items())
        except ClosureError:
            expected = None
        if expected and max(max(c) for c, _ in expected) > 14:
            expected = None
        if expected is None:
            with pytest.raises(ClosureError):
                generate_positive_roots(gram)
        else:
            assert densified(gram) == expected, gram
        outcomes[symmetric, expected is None, len(expected or ()) > len(gram)] += 1
    # Failures, and closures past the simple roots, on symmetric input and not.
    assert all(outcomes[symmetric, False, True] > 100 for symmetric in (False, True))
    assert all(outcomes[symmetric, True, False] > 100 for symmetric in (False, True))


def climbing_matrix(k):
    """A non-symmetric matrix with closure alpha_1, alpha_2 and alpha_1 + m alpha_2, m <= k.

    From alpha_1 + m alpha_2 the alpha_2-string descends m steps, and the
    pairing with alpha_2 is 2m - k, so the rule accepts the next step while
    m < k.  The symmetric part is 2I, so every norm is positive.  Finite
    root systems stop at coefficient 6 (E8), so only such an input reaches
    the bound of the 4-bit keys.
    """
    return ((2, -k), (k, 2))


def test_closure_climbs_to_the_largest_coefficient_a_key_holds():
    gram = climbing_matrix(14)
    closure = densified(gram)
    assert closure == list(reference_positive_roots(gram).items())
    assert [c for c, _ in closure] == [(1, 0), (0, 1)] + [(1, m) for m in range(1, 15)]


def test_coefficient_past_the_4_bit_keys_raises():
    gram = climbing_matrix(15)
    assert (1, 15) in reference_positive_roots(gram)
    with pytest.raises(ClosureError, match="coefficient 15 at alpha_2"):
        generate_positive_roots(gram)
    with pytest.raises(ClosureError, match="coefficient 15"):
        generate_positive_roots(climbing_matrix(40))
