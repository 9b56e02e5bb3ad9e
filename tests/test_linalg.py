"""Exact elimination on small integer systems with rational solutions.

The eliminator works on integer rows; the reference below is the plain
Gauss-Jordan over Fractions it replaced, written out so the two can be
compared on the same inputs.
"""

import random
from fractions import Fraction as Q

import pytest

from gammaroots.linalg import PreparedSolver, nullspace


def reference_rref(rows, ncols):
    """Gauss-Jordan over Fractions in place, pivoting in the first ncols columns only.

    Returns (rows, pivot columns); pivot rows come first, scaled to pivot 1.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_solve_many(columns, targets):
    """Reference solve of each target: free variables zero, None when inconsistent."""
    ncols, nrows = len(columns), len(columns[0])
    rows = [
        [Q(columns[j][i]) for j in range(ncols)] + [Q(t[i]) for t in targets]
        for i in range(nrows)
    ]
    reduced, pivots = reference_rref(rows, ncols)
    out = []
    for k in range(ncols, ncols + len(targets)):
        if any(reduced[r][k] != 0 for r in range(len(pivots), nrows)):
            out.append(None)
            continue
        x = [Q(0)] * ncols
        for r, c in enumerate(pivots):
            x[c] = reduced[r][k]
        out.append(x)
    return out


def reference_nullspace(columns):
    ncols, nrows = len(columns), len(columns[0])
    rows = [[Q(columns[j][i]) for j in range(ncols)] for i in range(nrows)]
    reduced, pivots = reference_rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Q(0)] * ncols
        vec[f] = Q(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(vec)
    return basis


def densify(solution, ncols, prepared=None):
    """The (column, numerator, denominator) triples of solve or nullspace as a dense Fraction list.

    Each entry must be a nonzero int numerator over a positive int, listed
    once in column order; given the prepared solver, the denominator must be
    its column's pivot value.  None stays None.
    """
    if solution is None:
        return None
    columns = [c for c, _, _ in solution]
    assert columns == sorted(set(columns)), "entries must come once each, in column order"
    for c, n, d in solution:
        assert type(n) is int and type(d) is int, "answers are ints, not Fractions"
        assert n and d >= 1, "only nonzero entries, over a positive denominator"
    if prepared is not None:
        pivot_value = dict(zip(prepared.pivots, prepared.pivot_values))
        assert all(d == pivot_value[c] for c, _, d in solution), "over the pivot value"
    x = [Q(0)] * ncols
    for c, n, d in solution:
        x[c] = Q(n, d)
    return x


def _assert_matches_reference(cols, targets):
    prepared = PreparedSolver(cols)
    for target, want in zip(targets, reference_solve_many(cols, targets)):
        assert densify(prepared.solve(target), len(cols), prepared) == want
    basis = nullspace(cols)
    assert [densify(vector, len(cols)) for vector in basis] == reference_nullspace(cols)
    # The free column closes each vector with a one.
    assert all(vector[-1][1:] == (1, 1) for vector in basis)


def _targets(rng, cols):
    """Targets in the column span (integer combinations) and arbitrary ones."""
    nrows = len(cols[0])
    out = []
    for _ in range(3):
        coeffs = [rng.randint(-6, 6) for _ in cols]
        out.append([sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(nrows)])
        out.append([rng.randint(-6, 6) for _ in range(nrows)])
    return out


def test_solve_unique():
    assert PreparedSolver([[1, 0], [1, 1]]).solve([3, 2]) == [(0, 1, 1), (1, 2, 1)]


def test_solve_inconsistent():
    assert PreparedSolver([[1, 1], [2, 2]]).solve([1, 0]) is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    cols = [[1, 0], [1, 0], [0, 1]]
    # the free column 1 is zero, so it is not listed
    assert PreparedSolver(cols).solve([5, 7]) == [(0, 5, 1), (2, 7, 1)]


def test_nullspace_basis_annihilates():
    cols = [[1, 0], [1, 0], [0, 1]]
    basis = nullspace(cols)
    assert basis == [[(0, -1, 1), (1, 1, 1)]]
    for vector in basis:
        for i in range(2):
            assert sum(Q(n, d) * cols[j][i] for j, n, d in vector) == 0


def test_nullspace_answers_over_the_pivot_values():
    # Column 2 is free.  Row [1, 3, 4] supplies the pivot 1 of column 0, and
    # the pivot of column 1 is 6; the answer is not reduced, as in solve.
    assert nullspace([[2, 1], [0, 3], [2, 4]]) == [[(0, -1, 1), (1, -6, 6), (2, 1, 1)]]


def test_nullspace_trivial():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_prepared_solver_matches_direct():
    rng = random.Random(11)
    for _ in range(25):
        ncols, nrows = rng.randint(1, 6), rng.randint(1, 5)
        cols = [[rng.randint(-3, 3) for _ in range(nrows)] for _ in range(ncols)]
        prepared = PreparedSolver(cols)
        for _ in range(4):
            if rng.random() < 0.5:
                coeffs = [rng.randint(-2, 2) for _ in range(ncols)]
                target = [
                    sum(coeffs[j] * cols[j][i] for j in range(ncols))
                    for i in range(nrows)
                ]
            else:
                target = [rng.randint(-4, 4) for _ in range(nrows)]
            want = reference_solve_many(cols, [target])[0]
            assert densify(prepared.solve(target), ncols, prepared) == want


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        PreparedSolver([[1, 0], [1]])
    with pytest.raises(ValueError):
        PreparedSolver([[1, 0]]).solve([0])


def test_empty_columns_rejected():
    with pytest.raises(ValueError):
        PreparedSolver([])


def test_matches_reference_on_random_rational_matrices():
    rng = random.Random(20260)
    for _ in range(60):
        ncols, nrows = rng.randint(1, 8), rng.randint(1, 7)
        density = rng.choice((0.3, 0.6, 1.0))
        cols = [
            [rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(nrows)]
            for _ in range(ncols)
        ]
        _assert_matches_reference(cols, _targets(rng, cols))


def test_matches_reference_on_degenerate_matrices():
    rng = random.Random(7)
    base = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(3)]
    cases = {
        # rank 2 from 4 columns: two are combinations of the others
        "rank deficient": base[:2] + [
            [a + 2 * b for a, b in zip(base[0], base[1])],
            [3 * a - 2 * b for a, b in zip(base[0], base[1])],
        ],
        "zero rows": [col[:2] + [0, 0] + col[2:3] for col in base],
        "zero column": [base[0], [0] * 5, base[1]],
        "duplicate columns": [base[0], base[1], base[0], base[2], base[1]],
        "all zero": [[0] * 3 for _ in range(2)],
        "more columns than rows": [[rng.randint(-6, 6) for _ in range(2)] for _ in range(6)],
        "small entries": [[rng.randint(-3, 3) for _ in range(6)] for _ in range(9)],
    }
    for name, cols in cases.items():
        _assert_matches_reference(cols, _targets(rng, cols))


def test_prepared_solver_integer_targets_rational_solutions():
    # the third column is the sum of the first two, so it stays free
    cols = [[2, 1], [0, 3], [2, 4]]
    prepared = PreparedSolver(cols)
    # Each answer is over its column's pivot value, unreduced.
    assert prepared.pivot_values == (2, 6)
    assert prepared.solve([2, 4]) == [(0, 2, 2), (1, 6, 6)]
    assert prepared.solve([1, 1]) == [(0, 1, 2), (1, 1, 6)]
    x = densify(prepared.solve([1, 1]), 3, prepared)
    assert x == reference_solve_many(cols, [[1, 1]])[0] == [Q(1, 2), Q(1, 6), Q(0)]
    assert [sum(x[j] * cols[j][i] for j in range(3)) for i in range(2)] == [1, 1]
