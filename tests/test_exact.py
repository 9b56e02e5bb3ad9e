"""Factored-constant arithmetic: canonical form, exact ops, logarithms."""

import json
import math
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
from gammaroots.prover import Certificate


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
    assert c.powers == ((2, 2, 1), (3, 1, 1))
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
    assert FactoredConstant(((3, 1), (2, Q(1, 2)))).powers == ((2, 1, 2), (3, 1, 1))


NOT_RATIONAL = (0.1, 0.5, 1.0, "1/2", True, False)


def test_const_pow_refuses_an_exponent_that_is_no_int_or_fraction():
    """The constructor's rule: a float, a str or a bool exponent raises, never coerced."""
    value = FactoredConstant(((2, Q(1, 3)),))
    for exponent in NOT_RATIONAL:
        with pytest.raises(ValueError, match="not an int or Fraction"):
            const_pow(value, exponent)
    assert const_pow(value, Q(3, 2)) == FactoredConstant(((2, Q(1, 2)),))
    assert const_pow(value, 3) == FactoredConstant(((2, 1),))


def test_factor_power_refuses_a_base_or_exponent_that_is_no_int_or_fraction():
    for bad in NOT_RATIONAL:
        with pytest.raises(ValueError, match="not an int or Fraction"):
            factor_power(bad, 1)
        with pytest.raises(ValueError, match="not an int or Fraction"):
            factor_power(12, bad)
    assert factor_power(Q(12), Q(1, 2)) == factor_power(12, Q(1, 2))


def test_factor_power_refuses_a_base_of_zero_or_below():
    for base in (0, -2, Q(-1, 2), -1):
        with pytest.raises(ValueError, match="non-positive"):
            factor_power(base, 1)


def test_integer_path_matches_the_pair_constructor_and_a_fraction_reference():
    """FactoredConstant.over, the pair constructor and the triple constructor agree.

    Seeded random exponents, compared with a plain Fraction reference: equal
    objects and hashes, the same to_json_obj and str, and only ints stored.
    The cases cover repeated bases, sums that cancel to zero, negative
    numerators and integral exponents; Certificate terms are checked the
    same way, from reduced and from unreduced triples, and a (tag,
    coefficient) pair is refused.
    """
    rng = random.Random(24)
    primes = (2, 3, 5, 7, 11, 13)
    seen = dict.fromkeys(("repeated", "cancelled", "negative", "integral"), 0)
    for _ in range(600):
        pairs = []
        for _ in range(rng.randint(0, 7)):
            e = Q(rng.randint(-12, 12), rng.randint(1, 9))
            pairs.append((rng.choice(primes), e.numerator if e.denominator == 1 else e))
        if pairs and rng.random() < 0.3:
            p = pairs[0][0]
            pairs.append((p, -sum(e for b, e in pairs if b == p)))
        reference: dict = {}
        for p, e in pairs:
            reference[p] = reference.get(p, Q(0)) + e
        want = sorted((p, e) for p, e in reference.items() if e)
        seen["repeated"] += len(reference) < len(pairs)
        seen["cancelled"] += len(want) < len(reference)
        seen["negative"] += any(e < 0 for _, e in want)
        seen["integral"] += any(e.denominator == 1 for _, e in want)

        denominator = rng.randint(1, 4) * math.lcm(*(Q(e).denominator for _, e in pairs))
        by_pairs = FactoredConstant(pairs)
        by_ints = FactoredConstant.over([(p, int(e * denominator)) for p, e in pairs], denominator)
        by_triples = FactoredConstant([(p, int(e * denominator), denominator) for p, e in pairs])
        assert by_pairs == by_ints == by_triples == FactoredConstant(by_ints.powers)
        assert hash(by_pairs) == hash(by_ints) == hash(by_triples)
        assert by_ints.powers == tuple((p, e.numerator, e.denominator) for p, e in want)
        assert all(type(x) is int for triple in by_ints.powers for x in triple)
        assert by_ints.to_json_obj() == [
            {"base": p, "exponent_numerator": e.numerator, "exponent_denominator": e.denominator}
            for p, e in want
        ]
        text = "*".join(str(p) if e == 1 else f"{p}^({e})" for p, e in want)
        assert str(by_ints) == (text or "1")

        tags = [(f"t{i}", e) for i, (_, e) in enumerate(pairs)]
        reduced = [(tag, Q(e).numerator, Q(e).denominator) for tag, e in tags]
        scaled = [(tag, int(e * denominator), denominator) for tag, e in tags]
        certificate = Certificate(reduced, by_ints)
        assert certificate == Certificate(scaled, by_pairs)
        assert hash(certificate) == hash(Certificate(scaled, by_pairs))
        assert certificate.terms == tuple(reduced)
        if tags:
            with pytest.raises(ValueError):
                Certificate(tags, by_ints)
        assert [(tag, Q(n, d)) for tag, n, d in certificate.terms] == [(tag, Q(e)) for tag, e in tags]
        assert certificate.to_json_obj()["relations"] == [
            {"tag": tag, "coefficient": str(Q(e))} for tag, e in tags
        ]
    assert min(seen.values()) > 20, seen


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


def test_integer_path_validates_its_terms_and_denominator():
    for terms, denominator in (
        ([(4, 1)], 1), ([(2.0, 1)], 1), ([(True, 1)], 1), ([(2, Q(1))], 1), ([(2, 1.0)], 1),
        ([(2, 1)], 0), ([(2, 1)], -3), ([(2, 1)], 2.0), ([], True), ([(2, 0), (6, 0)], 1),
    ):
        with pytest.raises(ValueError):
            FactoredConstant.over(terms, denominator)
    for triple in ((2, 1, 0), (2, 1, -2), (2, 1, 2.0), (2, 0.5, 1), (2, 1, True)):
        with pytest.raises(ValueError):
            FactoredConstant((triple,))
        with pytest.raises(ValueError):
            Certificate([("t", *triple[1:])], ONE)
    # An entry of one field, or of four or more, is no pair or triple.
    for entry in ((2,), (2, 1, 2, 3), (2, 1, 1, 1, 1), (2, Q(1, 2), 1, 1)):
        with pytest.raises(ValueError):
            FactoredConstant((entry,))
        with pytest.raises(ValueError):
            FactoredConstant._make(((entry,),))
        with pytest.raises(ValueError):
            Certificate([("t", *entry[1:])], ONE)
        with pytest.raises(ValueError):
            Certificate((), ONE)._replace(terms=[("t", *entry[1:])])
    # An entry that is no sequence at all, and a Certificate numerator that is
    # a Fraction or a bool: each raises ValueError on every construction path.
    for entry in (5, None):
        for make in (
            lambda: FactoredConstant([entry]),
            lambda: FactoredConstant._make(([entry],)),
            lambda: ONE._replace(powers=[entry]),
            lambda: Certificate([entry], ONE),
            lambda: Certificate._make(([entry], ONE)),
            lambda: Certificate((), ONE)._replace(terms=[entry]),
        ):
            with pytest.raises(ValueError):
                make()
    for numerator in (Q(1, 2), Q(2), True):
        for make in (
            lambda: Certificate([("t", numerator, 1)], ONE),
            lambda: Certificate._make(([("t", numerator, 1)], ONE)),
            lambda: Certificate((), ONE)._replace(terms=[("t", numerator, 1)]),
        ):
            with pytest.raises(ValueError):
                make()
    assert FactoredConstant.over([(3, 4), (2, -6), (3, 2)], 12) == FactoredConstant(
        ((2, Q(-1, 2)), (3, Q(1, 2)))
    )


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
