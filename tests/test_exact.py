"""Factored-constant arithmetic: canonical form, exact ops, logarithms."""

import json
import random
from fractions import Fraction as Q

import mpmath
import pytest

from gammaroots.exact import (
    ONE,
    FactoredConstant,
    _is_prime,
    const_ln,
    const_mul,
    const_pow,
    factor_power,
)


def test_factor_power_basic():
    assert factor_power(12, Q(1, 2)) == FactoredConstant(((2, Q(1)), (3, Q(1, 2))))


def test_factor_power_rational_base():
    assert factor_power(Q(8, 27), Q(2, 3)) == FactoredConstant(((2, Q(2)), (3, Q(-2))))


def test_factor_power_large_base():
    c = factor_power(2**26 * 3**12 * 5**5, Q(-1, 30))
    assert c == FactoredConstant(((2, Q(-13, 15)), (3, Q(-2, 5)), (5, Q(-1, 6))))


def test_factor_power_rejects_non_positive():
    for bad in (0, -3, Q(-1, 2)):
        with pytest.raises(ValueError):
            factor_power(bad, 1)


def test_trivial_cases_are_one():
    assert ONE.is_one
    assert factor_power(1, Q(5, 7)).is_one
    assert factor_power(17, 0).is_one


def test_const_mul_cancels_inverse():
    a = factor_power(Q(2, 3), Q(5, 7))
    assert const_mul(a, const_pow(a, -1)) == ONE


def test_const_pow():
    c = const_pow(FactoredConstant(((2, Q(6)), (3, Q(21)))), Q(-1, 12))
    assert c == FactoredConstant(((2, Q(-1, 2)), (3, Q(-7, 4))))
    # multiplying back by 18 = 2 * 3^2 leaves the expected residue
    assert const_mul(factor_power(18, 1), c) == FactoredConstant(
        ((2, Q(1, 2)), (3, Q(1, 4)))
    )


def test_canonical_form():
    c = FactoredConstant(((3, Q(1)), (2, Q(0)), (2, Q(2))))
    assert c.prime_powers == ((2, Q(2)), (3, Q(1)))
    assert FactoredConstant(((2, Q(1)), (2, Q(-1)))) == ONE


def test_rejects_composite_base():
    with pytest.raises(ValueError):
        FactoredConstant(((4, Q(1)),))
    with pytest.raises(ValueError):
        FactoredConstant(((1, Q(1)),))


def test_rejects_non_integer_base():
    # int(2.5) would be 2 and int(3.9) would be 3: a float base is refused, not truncated
    for base in (2.5, 3.9, 2.0, Q(2), "2"):
        with pytest.raises(ValueError, match="is not an int"):
            FactoredConstant(((base, Q(1)),))
    with pytest.raises(ValueError, match="is not an int"):
        FactoredConstant(((3.9, 0.5),))


def test_rejects_bool_base_and_exponent():
    # a bool is an int subclass, but True is no base or exponent
    for pair in ((True, Q(1)), (2, True), (3, False)):
        with pytest.raises(ValueError, match="is not an int"):
            FactoredConstant((pair,))


def test_rejects_float_exponent():
    for exponent in (0.5, 1.0, 0.0):
        with pytest.raises(ValueError, match="not an int or Fraction"):
            FactoredConstant(((3, exponent),))
    # ints and Fractions are exact and stay accepted
    assert FactoredConstant(((3, 1), (2, Q(1, 2)))).prime_powers == ((2, Q(1, 2)), (3, Q(1)))


def test_composite_base_still_raises_once_primes_are_cached():
    for p in (2, 3, 5, 7, 11):
        FactoredConstant(((p, Q(1)),))
        const_mul(factor_power(p, Q(1, 2)), factor_power(p * p, Q(1, 3)))
    assert _is_prime.cache_info().hits > 0
    for composite in (4, 9, 15, 49, 121):
        with pytest.raises(ValueError):
            FactoredConstant(((2, Q(1)), (composite, Q(1))))
        # the check runs on every construction, not only the first
        with pytest.raises(ValueError):
            FactoredConstant(((composite, Q(-1)),))


def test_equality_means_equal_value():
    left = const_mul(factor_power(6, Q(1, 3)), factor_power(2, Q(2, 3)))
    right = const_mul(factor_power(2, 1), factor_power(3, Q(1, 3)))
    assert left == right


def test_const_ln_known_value():
    v = const_ln(FactoredConstant(((2, Q(1, 2)),)), 30)
    with mpmath.workprec(150):
        assert abs(v - mpmath.ln(2) / 2) < mpmath.mpf(10) ** -28


def test_const_ln_additive_over_mul():
    rng = random.Random(7)
    primes = (2, 3, 5, 7)
    with mpmath.workprec(200):
        for _ in range(20):
            a = FactoredConstant(
                tuple((p, Q(rng.randint(-9, 9), rng.randint(1, 9))) for p in primes)
            )
            b = const_pow(a, Q(rng.randint(-5, 5), rng.randint(1, 5)))
            lhs = const_ln(const_mul(a, b), 40)
            rhs = const_ln(a, 40) + const_ln(b, 40)
            assert abs(lhs - rhs) < mpmath.mpf(10) ** -38


def test_json_obj():
    c = const_mul(factor_power(12, Q(1, 2)), factor_power(5, Q(-1, 3)))
    obj = c.to_json_obj()
    assert obj == [
        {"base": 2, "exponent_numerator": 1, "exponent_denominator": 1},
        {"base": 3, "exponent_numerator": 1, "exponent_denominator": 2},
        {"base": 5, "exponent_numerator": -1, "exponent_denominator": 3},
    ]
    json.dumps(obj)


def test_str_forms():
    assert str(ONE) == "1"
    assert str(factor_power(8, Q(-1, 2))) == "2^(-3/2)"
    assert str(factor_power(6, 1)) == "2*3"
