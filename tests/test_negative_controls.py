"""Negative controls: every distinct identity of the sweep, perturbed, fails in every mode.

A passing sweep shows little unless the same checks refuse a wrong
identity.  Each of the 349 distinct (word, right side) pairs is perturbed
twice, on its own grid N:

- the right side times 2^(1/N): the word still proves, but to another
  constant, so exact, numeric and both report a mismatch;
- the word times gamma(1/N): no relation reaches gamma(1/N) alone, so exact
  finds the word outside the lattice, and numeric and both, which evaluate
  it, report a mismatch.

gamma(1/2) = 1, so on N = 2 the second perturbation would change nothing.
The one such pair, A1's gamma(1/2)^(-2) = 1, takes gamma(1/4) on the grid 4
instead.
"""

from fractions import Fraction as Q

from gammaroots.exact import FactoredConstant, const_mul
from gammaroots.fateev import MISMATCH, MODES, NOT_IN_LATTICE, PROVED_EXACT, _verdict
from gammaroots.gammaword import GammaWord, word_from_terms
from gammaroots.numeric import PrecisionContext

# The sweep's one pair on N = 2 (A1, alpha_1, every variant).
HALF_GRID_PAIR = (GammaWord(2, ((1, -2),)), FactoredConstant())


def times_gamma_of_one_over_n(word):
    """The word times gamma(1/N); on N = 2, where gamma(1/2) = 1, times gamma(1/4) on grid 4."""
    n, exponents = word.denominator, word.exponents
    if n == 2:
        n, exponents = 4, [(2 * j, e) for j, e in exponents]
    # The term at 1 keeps the grid: word_from_terms reduces it by gcd(N, 1, ...) = 1.
    return word_from_terms([*exponents, (1, 1)], n)


def test_the_half_grid_pair_is_the_only_one(sweep_sides):
    assert len(sweep_sides) == 349
    assert [pair for pair in sweep_sides if pair[0].denominator == 2] == [HALF_GRID_PAIR]
    assert times_gamma_of_one_over_n(HALF_GRID_PAIR[0]) == GammaWord(4, ((1, 1), (2, -2)))


def test_perturbed_sweep_identities_fail_in_every_mode(sweep_sides):
    ctx = PrecisionContext.for_digits()
    for word, rhs in sweep_sides:
        assert _verdict(word, rhs, "both", ctx)[0] == PROVED_EXACT, word
        wrong_rhs = const_mul(rhs, FactoredConstant(((2, Q(1, word.denominator)),)))
        for mode in MODES:
            assert _verdict(word, wrong_rhs, mode, ctx)[0] == MISMATCH, (word, mode)
        wrong_word = times_gamma_of_one_over_n(word)
        expected = {"exact": NOT_IN_LATTICE, "numeric": MISMATCH, "both": MISMATCH}
        for mode in MODES:
            assert _verdict(wrong_word, rhs, mode, ctx)[0] == expected[mode], (word, mode)
