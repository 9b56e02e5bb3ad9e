"""Mutation controls: doctor one check at a time and see a small verify run fail.

A passing run shows little unless each check it relies on would refuse a
wrong answer.  Each test below replaces one piece of the exact or numeric
route with a wrong copy, runs `gammaroots verify` on a small selection
through cli.main, and requires exit 1; the same run undoctored, before and
after, exits 0.  The kernel check and the certificate replay, which verify
does not run, are run on their own the same way.  The prover's per-grid
table and the ln gamma ratio table are memoized, so the caches a doctored
piece would poison are emptied before and after it runs.
"""

import ast
import inspect
import os
from functools import lru_cache

import mpmath
import pytest

from gammaroots import cli, exact, fateev, linalg, numeric, prover
from gammaroots.cli import EXIT_OK, EXIT_VERIFICATION_FAILED
from gammaroots.gammaword import GammaWord
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
        return mpmath.mpf(0)

    assert doctored_exit(numeric, "_residual_bound", zero, "numeric") == EXIT_VERIFICATION_FAILED


def without_complement_negation():
    """A copy of numeric.eval_word_ln with the one negation in it, -e of a complement, taken out.

    The copy is compiled from the source, in a copy of the module's
    namespace, so it reads the same _ln_ratio table and leaves numeric as
    it is.  A point above 1/2 then reads its lower half's entry times e,
    not times -e: the sign of the ratio it fills is wrong, and nothing else.
    """
    tree = ast.parse(inspect.getsource(numeric.eval_word_ln))
    negations = [node for node in ast.walk(tree)
                 if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)]
    assert [ast.unparse(node) for node in negations] == ["-e"]

    class Unnegated(ast.NodeTransformer):
        def visit_UnaryOp(self, node):
            return node.operand if node is negations[0] else node

    namespace = dict(vars(numeric))
    exec(compile(ast.fix_missing_locations(Unnegated().visit(tree)), numeric.__file__, "exec"),
         namespace)
    return namespace["eval_word_ln"]


@pytest.mark.parametrize("mode", ["numeric", "both"])
def test_a_complement_filled_with_the_wrong_sign_fails_the_run(mode):
    """A point above 1/2 read as its lower half's ratio itself, not as its negation.

    A word whose points all lie below 1/2 reads the same as undoctored, and
    one whose points all lie above reads negated (an exact zero sum).
    """
    same_sign = without_complement_negation()
    ctx = numeric.PrecisionContext.for_digits()
    below, above = GammaWord(12, ((1, 2), (5, -1))), GammaWord(12, ((7, 1), (11, -2)))
    assert same_sign(below, ctx) == numeric.eval_word_ln(below, ctx)
    wrong = same_sign(above, ctx)
    assert wrong != 0 and wrong + numeric.eval_word_ln(above, ctx) == 0
    exit_code = doctored_exit(numeric, "eval_word_ln", same_sign, mode, (numeric._ln_ratio,))
    assert exit_code == EXIT_VERIFICATION_FAILED


@pytest.mark.parametrize("mode", ["numeric", "both"])
def test_a_cached_right_side_log_off_by_twice_the_bound_fails_the_run(mode):
    """Each cached ln rhs shifted by 2 * 10^(10 - digits), at the working precision.

    One ulp of a 60-digit log, about 10^-73, lies far inside the 10^-50
    bound, as any rounding error must; twice the bound is the least shift
    the check has to refuse.
    """
    ln = exact.const_ln.__wrapped__

    @lru_cache(maxsize=None)
    def shifted(a, decimal_digits):
        with mpmath.workprec(exact.working_precision_bits(decimal_digits)):
            return ln(a, decimal_digits) + 2 * mpmath.mpf(10) ** (10 - decimal_digits)

    assert doctored_exit(numeric, "const_ln", shifted, mode) == EXIT_VERIFICATION_FAILED
