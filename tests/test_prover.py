"""Relation lattice and exact certificates."""

import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import mpmath
import pytest

from gammaroots import linalg, prover
from gammaroots.exact import (
    ONE,
    FactoredConstant,
    const_ln,
    const_mul,
    const_pow,
    factor_power,
    factorize,
)
from gammaroots.fateev import VARIANTS, admissible, k_root, verify_all
from gammaroots.gammaword import GammaWord
from gammaroots.linalg import PreparedSolver
from gammaroots.numeric import PrecisionContext, eval_word_ln
from gammaroots.prover import (
    Certificate,
    Relation,
    _fold,
    _grid,
    kernel_consistency,
    multiplication_relations,
    prove_constant,
    reflection_relations,
    relation_word,
    relations_for,
)
from test_linalg import reference_nullspace, reference_solve_many

import gammaroots

REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


def test_reflection_relations_smallest_grid():
    rels = reflection_relations(2)
    assert len(rels) == 1
    assert rels[0].tag == "half"
    assert rels[0].vector == ((1, 1),)
    assert rels[0].value is ONE


def test_reflection_relations_grid_six():
    vectors = [r.vector for r in reflection_relations(6)]
    assert vectors == [((1, 1), (5, 1)), ((2, 1), (4, 1)), ((3, 1),)]


def test_multiplication_relations_grid_six():
    rels = {r.tag: r for r in multiplication_relations(6)}
    assert set(rels) == {
        "multiplication(2,1)",
        "multiplication(2,2)",
        "multiplication(3,1)",
    }
    double = rels["multiplication(2,1)"]
    assert double.vector == ((1, 1), (2, -1), (4, 1))
    assert double.value == factor_power(2, Q(1, 3))
    # the order-3 relation merges an index pair and has unit value
    triple = rels["multiplication(3,1)"]
    assert triple.vector == ((1, 1), (5, 1))
    assert triple.value.is_one


def _order_and_index(relation):
    """(d, k) of a multiplication(d,k) relation."""
    d, k = map(int, relation.tag[len("multiplication("):-1].split(","))
    return d, k


def _net(relations):
    """The exponent vector of the product of the relations, as {j: exponent}."""
    net = {}
    for relation in relations:
        for j, e in relation.vector:
            net[j] = net.get(j, 0) + e
    return {j: e for j, e in net.items() if e}


def test_multiplication_values_follow_the_formula():
    # d^(1 - 2dk/N) for every divisor d >= 2 of N and every 1 <= k < N/d
    for n in range(2, 97):
        for r in multiplication_relations(n):
            d, k = _order_and_index(r)
            assert r.value == factor_power(d, 1 - Q(2 * d * k, n)), r.tag


def test_composite_order_multiplication_is_a_sum_of_lower_orders():
    """d = p m, p the smallest prime of d: M(d,k) = sum_b<p M(m, k + bN/d) + M(p, mk)."""
    checked = 0
    for n in range(2, 121):
        relations = {_order_and_index(r): r for r in multiplication_relations(n)}
        for (d, k), relation in relations.items():
            p = min(factorize(d))
            m = d // p
            if m == 1:
                continue
            parts = [relations[m, k + b * n // d] for b in range(p)] + [relations[p, m * k]]
            assert _net(parts) == _net([relation]), (n, relation.tag)
            value = ONE
            for part in parts:
                value = const_mul(value, part.value)
            assert value == relation.value, (n, relation.tag)
            checked += 1
    assert checked > 1000


def test_multiplication_at_n_over_d_minus_k_is_the_reflection_image():
    """M(d,k) + M(d, N/d - k) lies in the reflection span, and their values multiply to one."""
    for n in range(2, 121):
        relations = {_order_and_index(r): r for r in multiplication_relations(n)}
        for (d, k), relation in relations.items():
            image = relations[d, n // d - k]
            assert image.vector == tuple(sorted((n - j, e) for j, e in relation.vector))
            net = _net([relation, image])
            assert all(net.get(n - j) == e for j, e in net.items()), (n, relation.tag)
            assert const_mul(relation.value, image.value).is_one, (n, relation.tag)


def grid_and_folds(n):
    """_grid(n), built afresh, and the folded columns it hands linalg.PreparedSolver.

    The folds are [] where it hands none.  _grid's cache is emptied before
    and after, so the grid is built while the recording solver is in place
    and no recording solver stays cached.
    """
    received = []

    class Recording(PreparedSolver):
        def __init__(self, columns):
            received.append(columns)
            super().__init__(columns)

    _grid.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "PreparedSolver", Recording)
            table = _grid(n)
    finally:
        _grid.cache_clear()
    assert len(received) <= 1
    return table, received[0] if received else []


def test_solver_relations_are_the_prime_order_half():
    """The solver's relations: the multiplications with d prime and 2dk < N, in order.

    Each column of _grid(n) carries the tag, p and weight N - 2pk of the
    relation of its tag, the value p^((N - 2pk)/N) the prover sums is that
    relation's value, and its entries are the relation's vector at j <= N/2.
    The fold the solver receives for it is the fold of the relation's
    vector; prefix and fold together fix the whole vector.
    """
    for n in range(2, 401):
        # multiplication_relations(n) is relations_for(n) past the reflections,
        # built here without filling relations_for's cache with 400 grids.
        indices = [(d, k) for d in range(2, n + 1) if n % d == 0 for k in range(1, n // d)]
        relations = multiplication_relations(n)
        assert [r.tag for r in relations] == [f"multiplication({d},{k})" for d, k in indices]
        want = [
            (r, d, k)
            for r, (d, k) in zip(relations, indices)
            if factorize(d) == {d: 1} and 2 * d * k < n
        ]
        (_, columns, _), folds = grid_and_folds(n)
        assert [column[:3] for column in columns] == [
            (r.tag, d, n - 2 * d * k) for r, d, k in want
        ], n
        assert [entries for *_, entries in columns] == [
            tuple((j, e) for j, e in r.vector if 2 * j <= n) for r, _, _ in want
        ], n
        assert folds == [_fold(r.vector, n) for r, _, _ in want], n
        values = [FactoredConstant(((p, Q(weight, n)),)) for _, p, weight, _ in columns]
        assert values == [r.value for r, _, _ in want], n


def test_reduced_solver_matches_the_full_multiplication_set():
    """Same pivot tags, and the same solution by tag on every folded column.

    Equal pivot tags make the two spans equal, so both solvers reject the
    same targets; the solution is linear on the span, which the columns span.
    """
    for n in range(2, 151):
        full = relations_for(n)[n // 2:]
        _, columns, solver = _grid(n)
        reduced = [tag for tag, *_ in columns]
        if solver is None:
            assert not reduced
            assert all(not any(_fold(r.vector, n)) for r in full), n
            continue
        columns = [_fold(r.vector, n) for r in full]
        reference = PreparedSolver(columns)
        assert [full[c].tag for c in reference.pivots] == [reduced[c] for c in solver.pivots]
        for target in columns:
            want = [(full[c].tag, Q(*x)) for c, *x in reference.solve(target)]
            assert [(reduced[c], Q(*x)) for c, *x in solver.solve(target)] == want, n


def test_relation_counts():
    # reflections: floor(N/2); multiplications: sum over divisors d >= 2 of (N/d - 1)
    for n in (2, 6, 12, 30):
        rels = relations_for(n)
        reflections = [r for r in rels if not r.tag.startswith("multiplication")]
        multiplications = [r for r in rels if r.tag.startswith("multiplication")]
        assert len(reflections) == n // 2
        expected = sum(n // d - 1 for d in range(2, n + 1) if n % d == 0)
        assert len(multiplications) == expected


def test_relations_grid_validation():
    with pytest.raises(ValueError):
        relations_for(1)


@pytest.mark.parametrize("n", range(2, 13))
def test_relations_hold_numerically(n):
    ctx = PrecisionContext.for_digits(50)
    bound = mpmath.mpf(10) ** -40
    for rel in relations_for(n):
        residual = abs(
            eval_word_ln(relation_word(rel, n), ctx) - const_ln(rel.value, 50)
        )
        assert residual < bound, rel.tag


def _replay(word, certificate):
    """Recombine the certificate's relations; must reproduce the word exactly."""
    relations = {r.tag: r for r in relations_for(word.denominator)}
    combined: dict[int, Q] = {}
    value = ONE
    for tag, c in certificate.coefficients:
        relation = relations[tag]
        value = const_mul(value, const_pow(relation.value, c))
        for j, e in relation.vector:
            combined[j] = combined.get(j, Q(0)) + c * e
    assert {j: v for j, v in combined.items() if v} == {
        j: Q(e) for j, e in word.exponents
    }
    return value


def test_prove_constant_known_word():
    word = GammaWord(6, ((1, -1), (2, 1), (4, -1)))
    certificate = prove_constant(word)
    assert certificate is not None
    assert certificate.derived_constant == factor_power(2, Q(-1, 3))
    assert _replay(word, certificate) == certificate.derived_constant


def test_prove_constant_grid_twelve():
    # value gamma(1/12)^-1 gamma(3/12) gamma(8/12)^-1 = 2^(-1/2) 3^(-1/4)
    word = GammaWord(12, ((1, -1), (3, 1), (8, -1)))
    certificate = prove_constant(word)
    assert certificate is not None
    assert certificate.derived_constant == FactoredConstant(
        ((2, Q(-1, 2)), (3, Q(-1, 4)))
    )
    assert _replay(word, certificate) == certificate.derived_constant


def test_prove_constant_outside_span():
    # on the 1/5 grid only the two reflection pairs exist; a lone factor is free
    assert prove_constant(GammaWord(5, ((1, 1),))) is None
    # gamma(1/4)^(-2) is a Gamma(1/4) power up to pi factors, not a prime power
    assert prove_constant(GammaWord(4, ((1, -2),))) is None


def test_prove_constant_empty_word():
    certificate = prove_constant(GammaWord(1))
    assert certificate is not None
    assert certificate.coefficients == ()
    assert certificate.derived_constant is ONE


def test_proved_words_evaluate_to_their_constant():
    ctx = PrecisionContext.for_digits(50)
    for word in (
        GammaWord(6, ((1, -1), (2, 1), (4, -1))),
        GammaWord(12, ((1, -1), (3, 1), (8, -1))),
        GammaWord(8, ((2, -1), (5, 1), (7, -1))),
    ):
        certificate = prove_constant(word)
        assert certificate is not None
        residual = abs(
            eval_word_ln(word, ctx) - const_ln(certificate.derived_constant, 50)
        )
        assert residual < mpmath.mpf(10) ** -40


@pytest.mark.parametrize("n", range(2, 97))
def test_kernel_consistency_small_grids(n, monkeypatch):
    """The kernel check on each grid the lattice words use is consistent and constructs no Fraction.

    The acceptance gate checks N <= 46, the sweep's grids.  A Fraction is
    built only for the witness of an inconsistent grid.
    """
    built = []
    new = Q.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", counting)
    verdict = kernel_consistency(n)
    assert verdict == (True, None)
    assert built == []


def test_kernel_inconsistency_detected(monkeypatch):
    # two relations with equal vectors but different values cannot coexist
    doctored = (
        Relation("good", ((1, 1), (4, 1)), ONE),
        Relation("bad", ((1, 1), (4, 1)), factor_power(2, 1)),
    )
    monkeypatch.setattr(prover, "relations_for", lambda n: doctored)
    consistent, witness = kernel_consistency(5)
    assert not consistent
    assert {tag for tag, _ in witness} == {"good", "bad"}


def fraction_product(pairs):
    """prod value^c over (relation, Fraction c) pairs, summed per prime in Fractions.

    The reference for the prover's integer combinations: it shares no code
    with prover, and FactoredConstant only stores the sums.
    """
    exponents = {}
    for relation, c in pairs:
        for p, e, d in relation.value.powers:
            exponents[p] = exponents.get(p, 0) + Q(e, d) * c
    return FactoredConstant([(p, e) for p, e in exponents.items() if e])


def test_kernel_combination_matches_a_fraction_reference(monkeypatch):
    """kernel_consistency's verdict and witness against the reference nullspace and product.

    Each grid's relations keep their vectors, and a seeded few have their
    value multiplied by a prime power, so some dependencies lose value one.
    The witness must be the first reference basis vector whose Fraction
    product is not one, as nonzero (tag, Fraction) pairs, or None when there
    is none.
    """
    rng = random.Random(12)
    inconsistent = 0
    for n in (6, 12, 30, 46):
        relations = relations_for(n)
        columns = [[0] * (n - 1) for _ in relations]
        for column, relation in zip(columns, relations):
            for j, e in relation.vector:
                column[j - 1] = e
        basis = reference_nullspace(columns)
        for trial in range(10):
            doctored = tuple(
                r._replace(value=const_mul(r.value, factor_power(rng.choice((2, 3, 5)), 1)))
                if trial and rng.random() < 0.1 else r
                for r in relations
            )
            want = next(
                (tuple((r.tag, c) for r, c in zip(doctored, vector) if c)
                 for vector in basis if not fraction_product(zip(doctored, vector)).is_one),
                None,
            )
            monkeypatch.setattr(prover, "relations_for", lambda n: doctored)
            assert kernel_consistency(n) == (want is None, want), (n, trial)
            inconsistent += want is not None
    assert 0 < inconsistent < 36


def test_certificate_json_obj():
    certificate = prove_constant(GammaWord(6, ((1, -1), (2, 1), (4, -1))))
    obj = certificate.to_json_obj()
    assert set(obj) == {"relations", "derived_constant"}
    for entry in obj["relations"]:
        assert set(entry) == {"tag", "coefficient"}
        Q(entry["coefficient"])  # parses back to a rational


def _seeded_words(n, rng, per_kind):
    """Exponent maps on the 1/N grid of three kinds, per_kind of each.

    Integer combinations of a few relations (in the span), sparse random
    words (mostly outside it), and combinations perturbed by +-1 at one
    index (in or out, depending on the grid).
    """
    relations = relations_for(n)

    def combination():
        vector = {}
        for _ in range(rng.randint(1, 5)):
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            for j, e in rng.choice(relations).vector:
                vector[j] = vector.get(j, 0) + c * e
        return vector

    words = []
    for _ in range(per_kind):
        words.append(combination())
        words.append({rng.randint(1, n - 1): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 4))})
        perturbed = combination()
        j = rng.randint(1, n - 1)
        perturbed[j] = perturbed.get(j, 0) + rng.choice((-1, 1))
        words.append(perturbed)
    return [GammaWord(n, tuple(sorted((j, e) for j, e in w.items() if e))) for w in words]


@pytest.mark.parametrize("n", range(2, 97))
def test_certificates_match_fraction_reference(n):
    """Certificates equal those of a plain Fraction Gauss-Jordan solve of the full system.

    The reference eliminates every relation, reflections included, on N - 1
    rows: the route the prover's closed-form reflections replace.
    """
    relations = relations_for(n)
    words = _seeded_words(n, random.Random(n), per_kind=4)
    columns = [[Q(0)] * (n - 1) for _ in relations]
    for column, relation in zip(columns, relations):
        for j, e in relation.vector:
            column[j - 1] = Q(e)
    targets = []
    for word in words:
        target = [Q(0)] * (n - 1)
        for j, e in word.exponents:
            target[j - 1] = Q(e)
        targets.append(target)
    proved = 0
    for word, solution in zip(words, reference_solve_many(columns, targets)):
        want = None
        if solution is not None:
            want = Certificate(
                [(r.tag, c.numerator, c.denominator) for r, c in zip(relations, solution) if c],
                fraction_product(zip(relations, solution)),
            )
            proved += 1
        assert prove_constant(word) == want, word
    assert proved > 0
    # On the 1/2 grid the half relation alone spans every word.
    assert proved < len(words) or n == 2


# sha256 of the certificates of the benchmark's lattice words for seed 1, as
# its child driver prints them (a JSON list, null for words outside the
# span), taken while the prover still eliminated the reflections.
LATTICE_SEED_1_SHA256 = "3c843c1f277660e0e2ab86f4a1f716499a055b5479a3ee9680f1a78e72c6e528"


def load_replay():
    """perfbench/replay.py, the benchmark's checker, which imports nothing from gammaroots."""
    spec = importlib.util.spec_from_file_location("perfbench_replay_golden", REPLAY)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    return replay


def lattice_words(seed):
    """The benchmark's lattice words for seed, as GammaWords."""
    return [
        GammaWord(w["N"], tuple((j, e) for j, e in w["terms"]))
        for w in load_replay().lattice_words(seed)
    ]


def test_lattice_certificates_golden_digest():
    certificates = [prove_constant(word) for word in lattice_words(1)]
    text = json.dumps(
        [None if c is None else c.to_json_obj() for c in certificates], separators=(",", ":")
    )
    assert hashlib.sha256(text.encode()).hexdigest() == LATTICE_SEED_1_SHA256


def refused_certificates(words):
    """The words whose certificate perfbench/replay.py's check_certificate refuses.

    The replay rebuilds each cited relation from its tag by formula, sums
    the coefficients times the vectors, which must give the word's exponent
    vector, and the values, which must give the derived constant.  A word
    without a certificate counts as refused.
    """
    check = load_replay().check_certificate
    refused = []
    for word in words:
        certificate = prove_constant(word)
        if certificate is None or check(
            word.denominator, dict(word.exponents), certificate.to_json_obj()
        ) is None:
            refused.append(word)
    return refused


def test_every_sweep_and_lattice_certificate_replays(sweep_sides):
    """The certificates of the 349 distinct sweep identities and of the seed-1 lattice words replay.

    verify compares only the derived constant, and reflections have value
    one, so it would pass wrong reflection coefficients; the replay checks
    every coefficient.  The lattice words are checked as the benchmark
    checks them: an in-span word must prove to the constant it was built
    from, and an out-of-span word must get no certificate.
    """
    assert refused_certificates([word for word, _ in sweep_sides]) == []
    replay = load_replay()
    words = replay.lattice_words(1)
    certificates = [prove_constant(word) for word in lattice_words(1)]
    tally = replay.Tally()
    replay.check_lattice(words, [c and c.to_json_obj() for c in certificates], tally)
    assert tally.attempted == len(words) > 700
    assert tally.failed == 0, tally.errors


# Large grids past the Fraction reference (N <= 96) and the reduced-vs-full
# solver check (N <= 150); 398 is B100's grid.  The digests were taken while
# the elimination still rebuilt every row update as a new dict: of the
# certificates of _seeded_words(N, Random(N), per_kind=8) on each grid, as
# the lattice golden prints them, and of the pivot tags per grid.
LARGE_GRIDS = (120, 210, 398, 420, 840)
LARGE_GRID_CERTIFICATES_SHA256 = "6b875fd95bd01d01c8a80ce3e417ca8384b83995c31c0b3d01deb37dd4636509"
LARGE_GRID_PIVOTS_SHA256 = "78ae285b91ab6e8a6a9a0dffbb02b2beef70414176c51baf58986494a9ac46c7"


def test_large_grid_certificates_golden_digest():
    certificates = []
    pivots = []
    proved = 0
    for n in LARGE_GRIDS:
        for word in _seeded_words(n, random.Random(n), per_kind=8):
            certificate = prove_constant(word)
            proved += certificate is not None
            certificates.append(None if certificate is None else certificate.to_json_obj())
        _, columns, solver = _grid(n)
        pivots.append([n, [columns[c][0] for c in solver.pivots]])
    assert proved == 40
    assert [len(tags) for _, tags in pivots] == [43, 80, 99, 161, 323]
    text = json.dumps(certificates, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_GRID_CERTIFICATES_SHA256
    text = json.dumps(pivots, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_GRID_PIVOTS_SHA256


# sha256 of the prepared solver's integer form on every grid N = 2..400: per
# grid, the JSON of [N, None] where there is no solver relation, else of
# [N, [pivots, pivot values, transform]], taken before the elimination loop
# skipped the gcd at pivot 1.  Every certificate is read off these numbers.
SOLVER_FORM_SHA256 = "02a4992167ca353f8867061a3d59e301abcbbad0b736a53ff83fec73e01e746e"


def test_solver_integer_form_golden_digest():
    digest = hashlib.sha256()
    for n in range(2, 401):
        solver = _grid(n)[2]
        form = None if solver is None else [
            list(solver.pivots),
            list(solver.pivot_values),
            [[list(entry) for entry in column] for column in solver.transform],
        ]
        digest.update(json.dumps([n, form], separators=(",", ":")).encode())
    assert digest.hexdigest() == SOLVER_FORM_SHA256


def koblitz_ogus_in_span(word):
    """Membership in the relation span by the Koblitz-Ogus criterion.

    Theorem (Koblitz and Ogus, appendix to Deligne, "Valeurs de fonctions L
    et periodes d'integrales", Proc. Symp. Pure Math. 33 (1979)), in the form
    used here: an exponent vector g on the grid 1/N, standing for
    prod_j gamma(j/N)^(g_j) with gamma(x) = Gamma(x)/Gamma(1-x), lies in the
    rational span of the reflection and multiplication relations if and only
    if

        u -> sum_j g_j (2 <u j / N> - 1)

    is constant over the units u mod N, where <x> is the fractional part and
    a term with u j = 0 mod N contributes 0.  Times N, each term is the
    integer g_j (2 (u j mod N) - N), so the test needs no fractions and no
    linear algebra.
    """
    n = word.denominator
    values = {
        sum(e * (2 * (u * j % n) - n) for j, e in word.exponents if u * j % n)
        for u in range(1, n)
        if math.gcd(u, n) == 1
    }
    return len(values) <= 1


def test_koblitz_ogus_criterion_agrees_with_prover():
    """The prover's verdict and the Koblitz-Ogus criterion agree on every grid up to 96."""
    rng = random.Random(1979)
    inside = outside = 0
    for n in range(2, 97):
        for word in _seeded_words(n, rng, per_kind=20):
            proved = prove_constant(word) is not None
            assert proved == koblitz_ogus_in_span(word), (n, word.exponents)
            inside += proved
            outside += not proved
    assert inside > 1000 and outside > 1000


def test_importing_prover_leaves_the_front_end_unloaded():
    code = (
        "import sys\n"
        "import gammaroots.prover\n"
        "print(sorted(m for m in ('gammaroots.cli', 'gammaroots.fateev', "
        "'gammaroots.rootsys', 'gammaroots.numeric', 'argparse', 'mpmath') "
        "if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(gammaroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_exact_values_store_only_ints_and_tags(systems):
    """No stored field of a right side, certificate or derived constant holds a Fraction.

    Checked recursively over every k_root right side of the 49 sweep systems
    and every certificate, with its derived constant, of the sweep and of the
    lattice words for seed 1: each leaf is an int, or a str tag.  Only the
    reader coefficients builds Fractions.
    """
    right_sides = [
        rhs
        for s in systems.values()
        for variant in VARIANTS
        if admissible(s, variant)
        for rhs in k_root(s, variant).rhs
    ]
    sweep = [r.certificate for r in verify_all(systems.values(), mode="exact").reports]
    lattice = [c for c in map(prove_constant, lattice_words(1)) if c is not None]
    assert len(right_sides) == 842 and len(sweep) == 842 and len(lattice) > 300
    for certificate in sweep + lattice:
        assert type(certificate) is Certificate
        assert type(certificate.derived_constant) is FactoredConstant
    for value in right_sides + sweep + lattice:
        stack = [value]
        while stack:
            item = stack.pop()
            if isinstance(item, tuple):
                stack.extend(item)
            else:
                assert type(item) in (int, str), (value, item)


def test_the_exact_route_builds_no_fraction(systems, monkeypatch):
    """verify_all in exact mode and prove_constant with its JSON construct no Fraction.

    Over the 49 sweep systems and the lattice words for seed 1, built
    beforehand, every Fraction construction is counted; the count must
    stay zero.
    """
    words = lattice_words(1)
    built = []
    new = Q.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", counting)
    summary = verify_all(systems.values(), mode="exact")
    certificates = [prove_constant(word) for word in words]
    json.dumps([None if c is None else c.to_json_obj() for c in certificates])
    assert built == []
    assert summary.all_passed and any(certificates)
