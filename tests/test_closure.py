"""The packed-key root closure against the tuple-slicing closure it replaced."""

from operator import mul

import pytest

from gammaroots.rootsys import ClosureError, generate_positive_roots


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


def test_closure_matches_the_reference_on_every_sweep_system(systems):
    assert len(systems) == 49
    for ident, system in systems.items():
        packed = generate_positive_roots(system.gram)
        # Same roots, same pairings, same insertion order.
        assert list(packed.items()) == list(reference_positive_roots(system.gram).items()), ident


def test_closure_matches_the_reference_past_the_rank_cap(large_systems):
    for ident, system in large_systems.items():
        packed = generate_positive_roots(system.gram)
        assert list(packed.items()) == list(reference_positive_roots(system.gram).items()), ident


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
    packed = generate_positive_roots(gram)
    assert list(packed.items()) == list(reference_positive_roots(gram).items())
    assert list(packed) == [(1, 0), (0, 1)] + [(1, m) for m in range(1, 15)]


def test_coefficient_past_the_4_bit_keys_raises():
    gram = climbing_matrix(15)
    assert (1, 15) in reference_positive_roots(gram)
    with pytest.raises(ClosureError, match="coefficient 15 at alpha_2"):
        generate_positive_roots(gram)
    with pytest.raises(ClosureError, match="coefficient 15"):
        generate_positive_roots(climbing_matrix(40))
