"""The sparse candidate closure and its first-parent tree against reference closures.

reference_closure is the tuple-slicing closure the sparse one
replaced; byte_closure and reference_weyl_vectors are the closure's
coefficient bytes and the column-sum Weyl vectors the tree replaced.
"""

import math
import random
from collections import Counter
from operator import mul

import pytest

from gammaroots.rootsys import (
    ClosureError,
    RootSystemId,
    build,
    generate_positive_roots,
    highest_root,
    weyl_vectors,
)
from test_rootsys import pairing_dicts, root_coeffs


def reference_closure(gram, max_height=1000):
    """The closure on coefficient tuples: every candidate and every string step is a new tuple.

    Same rule as generate_positive_roots: beta + alpha_i is a root iff
    (p - 1) G_ii >= 2 P_i, with p the length of the alpha_i-string below
    beta and P = (c G) the pairings, which a step updates by row i of G.
    Yields (coefficients, pairings) for each simple root and then for each
    vector the rule accepts, as it is found; a vector of length zero is
    yielded, then raises.
    """
    r = len(gram)
    for i, row in enumerate(gram):
        if row[i] <= 0:
            raise ClosureError(f"2(alpha_{i + 1}|alpha_{i + 1}) = {row[i]} is not positive")
    for i, row in enumerate(gram):
        if any(2 * g % gram[j][j] for j, g in enumerate(row)):
            raise ClosureError(f"non-integral Cartan integer at alpha_{i + 1}")
    known = {tuple(int(k == i) for k in range(r)): tuple(gram[i]) for i in range(r)}
    yield from known.items()
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
                    yield cand, cand_pairs
                    if sum(map(mul, cand, cand_pairs)) <= 0:
                        raise ClosureError("closure reached a vector of length zero")
                    known[cand] = cand_pairs
                    found.append(cand)
        current = found
        height += 1


def reference_positive_roots(gram, max_height=1000):
    """The reference closure as a dict, coefficient tuple to pairing tuple, in insertion order."""
    return dict(reference_closure(gram, max_height))


def densified(gram):
    """generate_positive_roots(gram) as reference_positive_roots lists it.

    Each root becomes (coefficient tuple, full pairing tuple), in the
    closure's order, its coefficients read off the tree by root_coeffs.
    The tree must be two lists of ints with every parent before its child
    and each simple root first, parent -1 and its own index as step; the
    pairing columns must list their positions in table order and hold no
    zero, each root's pairings rebuilt from them by pairing_dicts, and the
    carried norms, heights and rho pairings must be c . P, sum(c) and
    sum_k c_k G_kk.
    """
    r = len(gram)
    parents, steps, columns, norms, heights, rho_pairings = generate_positive_roots(gram)
    assert type(parents) is type(steps) is list
    assert (parents[:r], steps[:r]) == ([-1] * r, list(range(r)))
    assert all(0 <= parent < k for k, parent in enumerate(parents) if k >= r)
    assert len(columns) == r
    pairings = pairing_dicts(columns, len(parents))
    rows = []
    for c, pairs in zip(root_coeffs(parents, steps, r), pairings, strict=True):
        rows.append((tuple(c), tuple(pairs.get(j, 0) for j in range(r))))
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


def matches_the_reference(gram):
    """Same roots and order as the reference, or the same ClosureError: (error kind, root count).

    The kind is None and the count that of the roots on success; on an
    error the count is None.  Each error of the reference opens the
    message of the closure's error, and a reference root with a coefficient
    past 14, which the 4-bit keys cannot hold, stands for the closure's
    coefficient-15 error.
    """
    expected = []
    try:
        for c, pairs in reference_closure(gram):
            # The 4-bit keys hold coefficients up to 14; an infinite closure
            # reaches 15 below height 14r + 2, so this also ends it.
            if max(c) > 14:
                raise ClosureError("closure reached coefficient 15")
            expected.append((c, pairs))
    except ClosureError as error:
        with pytest.raises(ClosureError) as raised:
            generate_positive_roots(gram)
        assert str(raised.value).startswith(str(error)), (gram, str(raised.value))
        return str(error).split(" at ")[0].split(" = ")[0], None
    assert densified(gram) == expected, gram
    return None, len(expected)


def test_closure_matches_the_reference_on_random_matrices():
    """Skipped steps never insert a root: same roots and order, or the same ClosureError in both.

    The seeded matrices fail on vectors of length zero.  The climbing
    matrices below, alone and beside a third node, add the coefficient-15
    errors of the 4-bit keys, and the closures just below them.
    """
    rng = random.Random(2010)
    outcomes = Counter()
    errors = Counter()
    for _ in range(2000):
        gram, symmetric = random_gram(rng)
        error, count = matches_the_reference(gram)
        errors[error] += 1
        outcomes[symmetric, error is not None, (count or 0) > len(gram)] += 1
    # Failures, and closures past the simple roots, on symmetric input and not.
    assert all(outcomes[symmetric, False, True] > 100 for symmetric in (False, True))
    assert all(outcomes[symmetric, True, False] > 100 for symmetric in (False, True))
    assert errors["closure reached a vector of length zero"] > 100
    for k in range(1, 41):
        (a, b), (c, d) = climbing_matrix(k)
        for gram in (((a, b), (c, d)), ((a, b, 0), (c, d, -1), (0, -1, 2))):
            errors[matches_the_reference(gram)[0]] += 1
    assert errors["closure reached coefficient 15"] == 52, errors


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
    """The closure refuses a finite closure, one the keys cannot hold."""
    gram = climbing_matrix(15)
    assert (1, 15) in reference_positive_roots(gram)
    with pytest.raises(ClosureError, match="coefficient 15 at alpha_2"):
        generate_positive_roots(gram)
    with pytest.raises(ClosureError, match="coefficient 15"):
        generate_positive_roots(climbing_matrix(40))


# Reads a packed key's hex digits, low digit first, as one coefficient byte each.
_NIBBLES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def byte_closure(gram):
    """The closure before its tree: (coefficient bytes, norms) in level order, for valid input.

    The candidate steps and string records of generate_positive_roots on
    packed keys, 4 bits per coefficient, each key unpacked to one byte per
    simple root at the end (byte k holds c_(k+1)).  Finite systems only:
    it checks nothing.
    """
    r = len(gram)
    diag = [row[i] for i, row in enumerate(gram)]
    rows = [[(j, g) for j, g in enumerate(row) if g] for row in gram]
    position = {1 << 4 * i: i for i in range(r)}
    keys, pairings, records = list(position), [dict(row) for row in rows], [{} for _ in rows]
    norms = diag[:]
    for k, beta in enumerate(keys):
        pairs, ups = pairings[k], records[k]
        for i in sorted({*ups, *[j for j, p in pairs.items() if p < 0]}):
            cand, p = beta + (1 << 4 * i), ups.get(i, 0)
            if cand not in position:
                new, norm = pairs.copy(), norms[k]
                for j, g in rows[i]:
                    norm += g * (beta >> 4 * j & 15)
                    new[j] = new.get(j, 0) + g
                    if not new[j]:
                        del new[j]
                position[cand] = len(keys)
                keys.append(cand)
                pairings.append(new)
                records.append({})
                norms.append(norm + new.get(i, 0))
            if (p - 2) * diag[i] >= 2 * pairs.get(i, 0):
                records[position[cand]][i] = p + 1
    return [("%0*x" % (r, key))[::-1].encode().translate(_NIBBLES) for key in keys], norms


def reference_weyl_vectors(coeffs, norms):
    """weyl_vectors as column sums of the coefficient bytes, grouped by norm.

    2 rho sums the positive roots, and L rho_check sums 2(L / n) a with L
    the lcm of the norms n = 2(a|a).
    """
    by_norm = {}
    for c, n in zip(coeffs, norms):
        by_norm.setdefault(n, []).append(c)
    lcm = math.lcm(*by_norm)
    two_rho = [0] * len(coeffs[0])
    lcm_rho_check = two_rho[:]
    for n, roots in by_norm.items():
        for k, total in enumerate(map(sum, zip(*roots))):
            two_rho[k] += total
            lcm_rho_check[k] += 2 * (lcm // n) * total
    return (tuple(two_rho), 2), (tuple(lcm_rho_check), lcm)


def test_tree_matches_the_byte_closure(systems):
    """The tree's coefficients, marks and Weyl vectors against the bytes and column sums.

    On the 49 sweep systems, A-D at rank 64 and B200.
    """
    assert len(systems) == 49
    chosen = [*systems.values(), *(build(RootSystemId(f, 64)) for f in "ABCD")]
    for system in [*chosen, build(RootSystemId("B", 200))]:
        coeffs, norms = byte_closure(system.gram)
        assert root_coeffs(system.parents, system.steps, system.rank) == coeffs, system.ident
        assert list(system.norms) == norms, system.ident
        assert system.marks == (1, *coeffs[-1]), system.ident
        assert highest_root(system.parents, system.steps) == tuple(coeffs[-1])
        assert system.weyl == reference_weyl_vectors(coeffs, norms), system.ident
        assert weyl_vectors(system.parents, system.steps, system.norms) == system.weyl
