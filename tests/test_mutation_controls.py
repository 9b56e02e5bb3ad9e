"""Mutation controls: doctor one check at a time and see a small verify run fail.

A passing run shows little unless each check it relies on would refuse a
wrong answer.  Each test below replaces one piece of the exact or numeric
route with a wrong copy, runs `gammaroots verify` on a small selection
through cli.main, and requires exit 1; the same run undoctored, before and
after, exits 0.  The kernel check and the certificate replay, which verify
does not run, are run on their own the same way.  The prover's per-grid
table, the ln gamma ratio table, the right sides' logarithms, the primes'
logarithms and the Stirling data are memoized, so the caches a doctored
piece would poison are emptied before and after it runs.  The
certificates' JSON records are memoized too, and their control replaces
the memo with a wrong one; the solvers' and relation vectors' shared pairs
come from one table, and its control hands out a doctored copy of it; the
words' pairs come from one intern, and its control seeds a doctored copy
of it.
"""

import ast
import inspect
import os
from functools import lru_cache

import pytest

from gammaroots import cli, exact, fateev, gammaword, linalg, numeric, prover
from gammaroots.cli import EXIT_OK, EXIT_VERIFICATION_FAILED
from gammaroots.gammaword import GammaWord
from gammaroots.rootsys import RootSystemId, build
import test_numeric
import test_prover
from test_prover import grid_and_folds, refused_certificates

# G2, F4 and B2..B4: 30 cases, some proved with multiplication relations.
SELECTION = ("--family", "G", "--family", "F", "--family", "B", "--rank-max", "4")
RELATION_CACHES = (prover._grid,)


def run_verify(mode):
    return cli.main(["verify", *SELECTION, "--mode", mode, "--output", os.devnull])


def doctored_exit(owner, name, doctored, mode, caches=()):
    """run_verify(mode) with owner.name replaced by doctored, the caches emptied around it."""
    assert run_verify(mode) == EXIT_OK
    empty(caches)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, name, doctored)
            code = run_verify(mode)
    finally:
        empty(caches)
    assert run_verify(mode) == EXIT_OK
    return code


def empty(caches):
    """Clear each lru_cache, such as numeric._ln_ratio, or each dict."""
    for cache in caches:
        (cache.cache_clear if hasattr(cache, "cache_clear") else cache.clear)()


def test_a_solver_answer_off_by_one_fails_the_run():
    solve = linalg.PreparedSolver.solve

    def off_by_one(self, target):
        solution = solve(self, target)
        if solution:
            (column, numerator, denominator), *rest = solution
            solution = [(column, numerator + denominator, denominator), *rest]
        return solution

    exit_code = doctored_exit(linalg.PreparedSolver, "solve", off_by_one, "exact")
    assert exit_code == EXIT_VERIFICATION_FAILED


@pytest.mark.parametrize("mode", ["exact", "both"])
def test_a_right_side_exponent_numerator_off_by_one_fails_the_run(mode):
    """k_root's FactoredConstant.over with its first numerator raised by one.

    Only the name fateev reads is doctored, so the prover's derived
    constants stay right while each right side with a term, a constant
    other than 1, is 1/W off in one exponent.
    """
    over = exact.FactoredConstant.over

    class OffByOne(exact.FactoredConstant):
        __slots__ = ()

        @classmethod
        def over(cls, terms, denominator):
            terms = list(terms)
            if terms:
                p, m = terms[0]
                terms[0] = (p, m + 1)
            return over(terms, denominator)

    exit_code = doctored_exit(fateev, "FactoredConstant", OffByOne, mode)
    assert exit_code == EXIT_VERIFICATION_FAILED


def test_a_multiplication_relation_with_a_shifted_index_fails_the_run():
    vector = prover._multiplication_vector

    def shifted(n, d, k):
        """The smallest index moved up by one, where that index is free."""
        original = vector(n, d, k)
        (j, e), *rest = original
        return original if j + 1 in dict(rest) else ((j + 1, e), *rest)

    exit_code = doctored_exit(
        prover, "_multiplication_vector", shifted, "exact", RELATION_CACHES
    )
    assert exit_code == EXIT_VERIFICATION_FAILED


def test_a_multiplication_relation_doubled_keeps_the_rank_and_fails_the_run(capsys):
    """Every exponent of every multiplication vector doubled, its value left as it is.

    Doubling a vector keeps the span of the relations and so the rank of
    every grid: the rank check passes, no error reaches stderr, and the
    run must fail on the certificates, whose derived constants use the
    halved coefficients the doubled vectors need.
    """
    vector = prover._multiplication_vector

    def doubled(n, d, k):
        return tuple((j, 2 * e) for j, e in vector(n, d, k))

    capsys.readouterr()
    exit_code = doctored_exit(
        prover, "_multiplication_vector", doubled, "exact", RELATION_CACHES
    )
    assert exit_code == EXIT_VERIFICATION_FAILED
    assert capsys.readouterr().err == ""


def test_a_kernel_vector_off_by_one_fails_the_kernel_check():
    """The nullspace prover reads with one numerator at a multiplication column raised by one.

    verify never runs the kernel check, so this control runs
    kernel_consistency itself, on the grids up to the sweep's 46: the
    doctored nullspace must make it return (False, witness) on some grid,
    and every grid is consistent undoctored, before and after.
    """
    nullspace = linalg.nullspace

    def off_by_one(columns):
        basis = nullspace(columns)
        # Columns are the relations_for order: the N // 2 reflections first.
        first = (len(columns[0]) + 1) // 2
        for vector in basis:
            for i, (c, numerator, denominator) in enumerate(vector):
                if c >= first:
                    vector[i] = (c, numerator + 1, denominator)
                    return basis
        return basis

    grids = range(2, 47)
    assert all(prover.kernel_consistency(n) == (True, None) for n in grids)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "nullspace", off_by_one)
        verdicts = [prover.kernel_consistency(n) for n in grids]
    assert all(prover.kernel_consistency(n) == (True, None) for n in grids)
    failed = [witness for consistent, witness in verdicts if not consistent]
    assert failed and all(any(tag.startswith("multiplication") for tag, _ in w) for w in failed)


def test_a_zeroed_folded_column_fails_the_rank_check():
    """The solver built with its first folded column zeroed, on every grid up to 96.

    That column, multiplication(p, 1) for the smallest prime p, is always a
    pivot, so zeroing it lowers the rank exactly where the other columns do
    not span it; _grid must raise on those grids, of which there
    are some, and on no other, and on none undoctored, before and after.
    """
    prepared = linalg.PreparedSolver

    class Zeroed(prepared):
        def __init__(self, columns):
            first, *rest = columns
            super().__init__([[0] * len(first), *rest])

    grids = range(2, 97)
    lowered = set()
    for n in grids:
        (_, _, solver), folds = grid_and_folds(n)
        rest = folds[1:]
        if solver is not None and solver.rank > (prepared(rest).rank if rest else 0):
            lowered.add(n)
    raised = set()
    empty(RELATION_CACHES)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "PreparedSolver", Zeroed)
            for n in grids:
                try:
                    prover._grid(n)
                except prover.RankError:
                    raised.add(n)
    finally:
        empty(RELATION_CACHES)
    assert 6 in raised and raised == lowered
    for n in grids:
        prover._grid(n)


def test_doubled_certificate_column_entries_are_refused_by_the_replay(sweep_sides):
    """_grid's column entries doubled, on the 349 distinct sweep identities.

    The entries feed only the residual, whose coefficients are those of the
    reflections, of value one, so every derived constant, all verify
    compares, stays the same.  verify does not replay certificates, so this
    control runs the benchmark's replay itself: it must refuse some
    certificates, and none undoctored, before and after.
    """
    grid = prover._grid

    def doubled(n):
        tags, columns, solver = grid(n)
        columns = tuple(
            (tag, p, weight, tuple((j, 2 * e) for j, e in entries))
            for tag, p, weight, entries in columns
        )
        return tags, columns, solver

    words = [word for word, _ in sweep_sides]
    honest = [prover.prove_constant(word).derived_constant for word in words]
    assert refused_certificates(words) == []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prover, "_grid", doubled)
        refused = refused_certificates(words)
        derived = [prover.prove_constant(word).derived_constant for word in words]
    assert refused_certificates(words) == []
    assert refused and derived == honest


def test_a_zero_residual_bound_fails_the_run():
    def zero(decimal_digits):
        return 0, 0

    assert doctored_exit(numeric, "_bound", zero, "numeric") == EXIT_VERIFICATION_FAILED


def without_ln2_term():
    """A copy of numeric._ln with its k ln 2 term taken out: ln(m 2^k) read as ln m.

    Compiled from the source in a copy of the module's namespace, as below,
    so numeric is left as it is.  Every logarithm of an argument outside
    [2/3, 4/3) is then wrong and still rounds, except at a power of two,
    where k ln 2 is the whole value: ln 2^k reads 0, and the rounding test
    never decides.
    """
    tree = ast.parse(inspect.getsource(numeric._ln))
    terms = [node for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and ast.unparse(node) == "k * _machin(prec, LN2)"]
    assert len(terms) == 1

    class Dropped(ast.NodeTransformer):
        def visit_BinOp(self, node):
            return ast.Constant(0) if node is terms[0] else self.generic_visit(node)

    namespace = dict(vars(numeric))
    exec(compile(ast.fix_missing_locations(Dropped().visit(tree)), numeric.__file__, "exec"),
         namespace)
    return namespace["_ln"]


def test_a_logarithm_without_its_ln2_term_fails_the_run(capsys):
    """ln_gamma's two logarithms and the right side's ln p, all through numeric._ln, read ln m.

    The run fails at ln 2, whose rounding test raises past its ceiling, and
    cli reports that as a failed verification; with powers of two left
    right, the residuals alone fail it.  The tables built from the
    logarithms, the ln gamma ratios, the right sides' logarithms and the
    per-context Stirling data, are emptied around each doctored run, and so
    is the prime memo, which would otherwise hand out the honest ln 2.
    """
    dropped, ln = without_ln2_term(), numeric._ln
    assert dropped(5, -2, 53) == ln(5, -2, 53) != (0, 0)
    assert dropped(3, 0, 53) != ln(3, 0, 53)
    caches = (numeric._ln_ratio, numeric.const_ln_pair, numeric._ln_prime,
              numeric._stirling_data)
    assert doctored_exit(numeric, "_ln", dropped, "numeric", caches) == EXIT_VERIFICATION_FAILED
    assert "rounding test did not decide" in capsys.readouterr().err

    def wrong_off_powers_of_two(man, exp, bits):
        return (ln if man & (man - 1) == 0 else dropped)(man, exp, bits)

    code = doctored_exit(numeric, "_ln", wrong_off_powers_of_two, "numeric", caches)
    assert code == EXIT_VERIFICATION_FAILED and capsys.readouterr().err == ""


def with_single_table_steps():
    """A copy of numeric._ln_table whose chain steps add atanh(1/q), not 2 atanh(1/q).

    Compiled from the source in a copy of the module's namespace, so its
    recursion walks the doctored chain and numeric is left as it is.  Each
    entry r != 2^t then holds half of ln(r / 2^t) within the same error
    bound, so every logarithm whose reduction reads such an entry is wrong
    and still rounds.
    """
    tree = ast.parse(inspect.getsource(numeric._ln_table))
    factors = [node for node in ast.walk(tree)
               if isinstance(node, ast.BinOp) and ast.unparse(node) == "2 * step"]
    assert len(factors) == 1

    class Single(ast.NodeTransformer):
        def visit_BinOp(self, node):
            return node.right if node is factors[0] else self.generic_visit(node)

    namespace = dict(vars(numeric))
    exec(compile(ast.fix_missing_locations(Single().visit(tree)), numeric.__file__, "exec"),
         namespace)
    return namespace["_ln_table"]


def test_a_table_step_without_its_factor_2_fails_the_run(pinned_numeric_route):
    """ln(r / 2^t) chained by single atanh steps: the pinned logarithms and the run both fail.

    test_ln_is_mpf_log_on_every_pinned_argument, replayed with the doctored
    table, refuses the pinned arguments, and verify --mode numeric exits 1.
    The prime memo keeps ln p, so it is emptied around each doctored run
    with the tables built from the logarithms.
    """
    single, honest = with_single_table_steps(), numeric._ln_table
    assert single(1 << 8, 8, 288) == honest(1 << 8, 8, 288) == 0
    assert 2 * single(257, 8, 288) - honest(257, 8, 288) in range(-4, 5)
    caches = (numeric._ln_prime, numeric._ln_ratio, numeric.const_ln_pair, numeric._stirling_data)
    empty(caches)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numeric, "_ln_table", single)
            with pytest.raises(AssertionError):
                test_numeric.test_ln_is_mpf_log_on_every_pinned_argument(pinned_numeric_route)
    finally:
        empty(caches)
    assert doctored_exit(numeric, "_ln_table", single, "numeric", caches) == EXIT_VERIFICATION_FAILED


def without_complement_negation():
    """A copy of numeric.word_ln_pair with the one negation in it, -e of a complement, taken out.

    The copy is compiled from the source, in a copy of the module's
    namespace, so it reads the same _ln_ratio table and leaves numeric as
    it is.  A point above 1/2 then reads its lower half's entry times e,
    not times -e: the sign of the ratio it fills is wrong, and nothing else.
    """
    tree = ast.parse(inspect.getsource(numeric.word_ln_pair))
    negations = [node for node in ast.walk(tree)
                 if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)]
    assert [ast.unparse(node) for node in negations] == ["-e"]

    class Unnegated(ast.NodeTransformer):
        def visit_UnaryOp(self, node):
            return node.operand if node is negations[0] else node

    namespace = dict(vars(numeric))
    exec(compile(ast.fix_missing_locations(Unnegated().visit(tree)), numeric.__file__, "exec"),
         namespace)
    return namespace["word_ln_pair"]


@pytest.mark.parametrize("mode", ["numeric", "both"])
def test_a_complement_filled_with_the_wrong_sign_fails_the_run(mode):
    """A point above 1/2 read as its lower half's ratio itself, not as its negation.

    A word whose points all lie below 1/2 reads the same as undoctored, and
    one whose points all lie above reads negated (an exact zero sum).
    """
    same_sign = without_complement_negation()
    ctx = numeric.PrecisionContext.for_digits()
    below, above = GammaWord(12, ((1, 2), (5, -1))), GammaWord(12, ((7, 1), (11, -2)))
    assert same_sign(below, ctx) == numeric.word_ln_pair(below, ctx)
    wrong = same_sign(above, ctx)
    assert wrong[0] != 0 and numeric.word_ln_pair(above, ctx) == (-wrong[0], wrong[1])
    exit_code = doctored_exit(numeric, "word_ln_pair", same_sign, mode, (numeric._ln_ratio,))
    assert exit_code == EXIT_VERIFICATION_FAILED


@pytest.mark.parametrize("mode", ["numeric", "both"])
def test_a_cached_right_side_log_off_by_twice_the_bound_fails_the_run(mode):
    """Each cached ln rhs shifted by twice the bound 10^(10 - digits), at the working precision.

    One ulp of a 60-digit log, about 10^-73, lies far inside the 10^-50
    bound, as any rounding error must; twice the bound is the least shift
    the check has to refuse.  The shift reaches the pair residual reads.
    """
    ln = numeric.const_ln_pair.__wrapped__

    @lru_cache(maxsize=None)
    def shifted(a, decimal_digits):
        bound, bound_exp = numeric._bound(decimal_digits)
        bits = exact.working_precision_bits(decimal_digits)
        return numeric._sum(*ln(a, decimal_digits), 2 * bound, bound_exp, bits)

    assert doctored_exit(numeric, "const_ln_pair", shifted, mode) == EXIT_VERIFICATION_FAILED


def test_a_certificate_record_memo_keyed_without_the_denominator_fails_the_replay(sweep_sides):
    """A copy of prover._citation_json keyed on (tag, n): n/d and n/d' share the first one's record.

    A certificate that cites a tag with n/d' after another cited it with
    n/d then prints n/d.  No verdict of verify reads the JSON, so this
    control runs the checks that do: the seed-1 lattice certificates'
    pinned digest and the benchmark's replay of the sweep and lattice
    certificates must both fail, and pass undoctored, before and after.
    The doctored memo is its own dict, so the product's memo is left as
    it is.
    """
    honest = prover._citation_json.__wrapped__
    records, denominators = {}, {}

    def collided(tag, n, d):
        denominators.setdefault((tag, n), set()).add(d)
        if (tag, n) not in records:
            records[tag, n] = honest(tag, n, d)
        return records[tag, n]

    checks = (
        test_prover.test_lattice_certificates_golden_digest,
        lambda: test_prover.test_every_sweep_and_lattice_certificate_replays(sweep_sides),
    )
    for check in checks:
        check()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(prover, "_citation_json", collided)
            with pytest.raises(AssertionError):
                check()
        check()
    assert any(len(seen) > 1 for seen in denominators.values())


def test_a_shared_pair_table_off_by_one_in_its_index_fails_the_digest_and_the_replay(
    sweep_sides,
):
    """A copy of linalg's pair table whose row for the value 2 holds (i + 1, 2) at i.

    One wrong shared tuple poisons every grid that reads it: each transform
    entry 2 is booked one transform row down, and where it sits in the last
    row a solve indexes past the end and raises IndexError instead of
    giving a wrong answer.  So this control runs the checks that read the
    transform itself: the pinned digest of the solvers' integer form must
    fail, with an AssertionError, and so must the benchmark's replay of the
    sweep and lattice certificates, whose solves reach such a last row;
    both pass undoctored, before and after.  The doctored table is a copy,
    so the product's is left as it is, and the grid cache is emptied around
    each doctored check.
    """
    honest = linalg.shared_pairs

    def shifted(size):
        table = list(honest(size))
        table[2] = [(i + 1, 2) for i in range(len(table[2]))]
        return table

    checks = (
        (test_prover.test_solver_integer_form_golden_digest, AssertionError),
        (lambda: test_prover.test_every_sweep_and_lattice_certificate_replays(sweep_sides),
         IndexError),
    )
    for check, failure in checks:
        check()
        empty(RELATION_CACHES)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(linalg, "shared_pairs", shifted)
                with pytest.raises(failure):
                    check()
        finally:
            empty(RELATION_CACHES)
        check()


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_a_word_pair_interned_with_its_exponent_negated_fails_the_run(mode):
    """A copy of gammaword's pair intern seeded so that one (j, 1) comes back as (j, -1).

    One wrong shared pair poisons every word built to hold it: each word
    of the run with the factor gamma(j/N) at exponent 1, on any grid, is
    built with exponent -1 there, so its proof and its cross-check both
    answer for another word.  The j is the first of G2's alpha_2 Fprime
    word with exponent 1.  The doctored intern is a copy, so the product's
    is left as it is, and no word outlives the run.
    """
    word = fateev.lhs_word(build(RootSystemId("G", 2)), 2, fateev.F_PRIME)
    j = next(j for j, e in word.exponents if e == 1)
    doctored = {**gammaword._PAIRS, (j, 1): (j, -1)}
    exit_code = doctored_exit(gammaword, "_PAIRS", doctored, mode)
    assert exit_code == EXIT_VERIFICATION_FAILED
