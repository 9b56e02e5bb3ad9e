"""Gamma-word construction, merging, evaluation."""

import random

import mpmath
import pytest

from gammaroots.gammaword import GammaWord, brace_str, eval_ln, word_from_terms


def reflection_fold(w):
    """The word under gamma(x) gamma(1-x) = 1 and gamma(1/2) = 1.

    Indices above N/2 fold onto N - j with negated exponent and the middle
    index drops, so two words with the same value on one grid fold alike.
    """
    n = w.denominator
    folded = {}
    for j, e in w.exponents:
        if 2 * j == n:
            continue
        if 2 * j > n:
            j, e = n - j, -e
        folded[j] = folded.get(j, 0) + e
    return GammaWord(n, tuple(sorted((j, e) for j, e in folded.items() if e)))


def test_merge_on_common_grid():
    w = word_from_terms([(1, -1), (2, -1), (1, 1)], 3)
    assert (w.denominator, w.exponents) == (3, ((2, -1),))


def test_grid_lcm_of_mixed_denominators():
    # 1/2 and 1/3 over the common denominator 6
    w = word_from_terms([(3, 1), (2, 1)], 6)
    assert (w.denominator, w.exponents) == (6, ((2, 1), (3, 1)))


def test_grid_includes_cancelled_terms():
    w = word_from_terms([(1, 1), (1, -1), (3, 1)], 6)
    assert (w.denominator, w.exponents) == (6, ((3, 1),))


def test_empty_word():
    w = word_from_terms([], 12)
    assert w.exponents == ()
    assert w.denominator == 1


def test_argument_range_checked():
    for bad in (0, 6, 7, -2):
        with pytest.raises(ValueError):
            word_from_terms([(bad, 1)], 6)


def test_integer_arguments_over_shared_denominator():
    w = word_from_terms([(2, 1), (4, -1), (6, 0)], 12)
    assert (w.denominator, w.exponents) == (6, ((1, 1), (2, -1)))
    # the grid is that of the reduced arguments 1/6, 1/3, 1/2
    assert w == word_from_terms([(1, 1), (2, -1), (3, 0)], 6)
    for bad in (0, 12, -3):
        with pytest.raises(ValueError):
            word_from_terms([(bad, 1)], 12)


def test_word_validation():
    with pytest.raises(ValueError):
        GammaWord(6, ((3, 0),))
    with pytest.raises(ValueError):
        GammaWord(6, ((4, 1), (2, 1)))
    with pytest.raises(ValueError):
        GammaWord(6, ((7, 1),))
    with pytest.raises(ValueError):
        GammaWord(0)


def test_word_rejects_bool():
    for denominator, exponents in ((True, ()), (2, ((True, True),)), (4, ((1, True),))):
        with pytest.raises(ValueError):
            GammaWord(denominator, exponents)


def test_reduce_reflection_preserves_value():
    rng = random.Random(3)
    tolerance = mpmath.mpf(10) ** -40
    for _ in range(8):
        n = rng.randint(2, 12)
        pairs = {}
        for _ in range(rng.randint(1, 5)):
            j = rng.randint(1, n - 1)
            pairs[j] = pairs.get(j, 0) + rng.randint(-3, 3)
        w = GammaWord(n, tuple(sorted((j, e) for j, e in pairs.items() if e)))
        diff = abs(eval_ln(w, 50) - eval_ln(reflection_fold(w), 50))
        assert diff < tolerance


def test_eval_ln_known_value():
    # this word's value is exactly 2^(-1/3)
    w = GammaWord(6, ((1, -1), (2, 1), (4, -1)))
    with mpmath.workprec(300):
        diff = abs(eval_ln(w, 60) + mpmath.ln(2) / 3)
    assert diff < mpmath.mpf(10) ** -50


def test_brace_str():
    assert brace_str(GammaWord(6, ((1, -1), (2, 1), (3, -1), (4, -1)))) == "{2}/({1}{4})"
    assert brace_str(GammaWord(6, ((1, 2), (2, -1)))) == "{1}^2/{2}"
    assert brace_str(GammaWord(1)) == "1"
    assert brace_str(GammaWord(4, ((2, 7),))) == "1"


def test_json_obj():
    w = GammaWord(6, ((1, -1), (4, 2)))
    assert w.to_json_obj() == {
        "N": 6,
        "terms": [{"j": 1, "exponent": -1}, {"j": 4, "exponent": 2}],
        "coeff": [],
    }
