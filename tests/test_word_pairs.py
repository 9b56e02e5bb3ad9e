"""The shared (j, e) pairs of gamma words.

GammaWord's constructor checks each exponent pair and then swaps it for the
one tuple the process keeps for its value, in gammaword._PAIRS, so every
word holding a pair holds the same object.  The intern is keyed by value,
not indexed by j, so a word on a grid no solver prepares costs O(terms).
"""

from operator import is_

import pytest

from gammaroots import fateev, gammaword, linalg
from gammaroots.gammaword import GammaWord, word_from_terms


def test_words_with_a_common_pair_hold_one_pair_object():
    made = [
        GammaWord(7, [(1, 2), (3, -2)]),
        GammaWord(9, ((3, -2), (5, 1))),
        GammaWord(11, ((j, e) for j, e in [[2, 1], [3, -2]])),
        GammaWord(5, [[3, -2]]),
        GammaWord(8)._replace(exponents=[(3, -2)]),
        GammaWord(4, [(1, 1)])._make([8, [(3, -2)]]),
        word_from_terms([(6, -2), (2, 1)], 14),
    ]
    pairs = [pair for word in made for pair in word.exponents if pair == (3, -2)]
    assert len(pairs) == len(made)
    assert type(pairs[0]) is tuple and all(pair is gammaword._PAIRS[3, -2] for pair in pairs)


def test_two_words_of_the_sweep_share_their_common_pairs(systems):
    """fateev._word builds each word afresh; the pairs it stores are the intern's."""
    system = systems[("B", 4)]
    table = fateev.k_root(system, fateev.F_PRIME)
    first, second = (fateev._word(system, index, table) for index in (1, 2))
    common = set(first.exponents) & set(second.exponents)
    assert common
    for pair in common:
        assert first.exponents[first.exponents.index(pair)] is (
            second.exponents[second.exponents.index(pair)]
        )
    seen = {}
    for (family, rank), system in systems.items():
        for variant in fateev.VARIANTS:
            if fateev.admissible(system, variant):
                for index in range(1, rank + 1):
                    for pair in fateev.lhs_word(system, index, variant).exponents:
                        assert seen.setdefault(pair, pair) is pair


def test_a_tuple_of_shared_pairs_is_kept_and_an_equal_tuple_is_not():
    kept = GammaWord(6, [(1, 1), (5, -1)]).exponents
    assert GammaWord(6, kept).exponents is kept
    fresh = tuple((j, e) for j, e in kept)
    assert fresh == kept and not any(map(is_, fresh, kept))
    word = GammaWord(6, fresh)
    assert word.exponents is not fresh and all(map(is_, word.exponents, kept))


def test_a_word_on_a_huge_grid_adds_one_intern_entry_and_no_table_row():
    n = 10**12
    rows = [len(row) for row in linalg.shared_pairs(0)]
    before = len(gammaword._PAIRS)
    word = GammaWord(n, ((n - 1, 1),))
    assert len(gammaword._PAIRS) - before <= 1
    assert word.exponents[0] is gammaword._PAIRS[n - 1, 1]
    assert [len(row) for row in linalg.shared_pairs(0)] == rows


@pytest.mark.parametrize("j, exponent", [(10**9, True), (10**9 + 1, 1.0), (10**9 + 2, 0)])
def test_a_refused_pair_is_not_interned(j, exponent):
    """(j, True) and (j, 1.0) equal (j, 1) as dict keys, so a pair is interned only once checked."""
    n = 10**9 + 7
    with pytest.raises(ValueError):
        GammaWord(n, ((j, exponent),))
    assert (j, exponent) not in gammaword._PAIRS
    (shared,) = GammaWord(n, ((j, 1),)).exponents
    assert list(map(type, shared)) == [int, int] and shared is gammaword._PAIRS[j, 1]


@pytest.mark.parametrize("exponents", [[(0, 1)], [(-3, 1)], [(2, 1), (2, -1)], [(3, 1), (2, 1)]])
def test_an_index_not_above_the_last_kept_is_refused_as_out_of_order(exponents):
    """The order check reads the last interned pair's index, and 0 before the first pair."""
    with pytest.raises(ValueError, match="^indices must be strictly increasing$"):
        GammaWord(5, exponents)
