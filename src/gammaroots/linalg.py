"""Exact linear algebra over the rationals by fraction-free integer elimination.

Systems here are small (up to a few hundred columns) and their entries are
small integers, so one Gauss-Jordan routine over sparse integer rows
({column: int}) serves both the prepared solver and nullspace.
Columns and targets are integer vectors.  A row update, in place, is
row_i = a row_i - b row_r with a = p/g, b = f/g and g = gcd(p, f), where p
is the pivot and f the row's entry in the pivot column; a row scaled by
a != 1 is then divided by its gcd (after Bareiss, Math. Comp. 22, 1968).
No Fraction arithmetic runs anywhere here: the solver and nullspace take
their input as a list of column vectors and answer in ints, a vector of
unknowns as its nonzero entries in column order, each entry the ints
(column, numerator, denominator) with a positive denominator.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

Column = Sequence[int]
Row = Dict[int, int]


def _check_columns(columns: Sequence[Column]) -> int:
    if not columns:
        raise ValueError("at least one column required")
    nrows = len(columns[0])
    for col in columns:
        if len(col) != nrows:
            raise ValueError("dimension mismatch")
    return nrows


def _integer_rows(columns: Sequence[Column]) -> List[Row]:
    """Sparse rows of the matrix whose columns are given."""
    nrows = len(columns[0])
    rows: List[Row] = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i in compress(range(nrows), col):
            rows[i][j] = col[i]
    return rows


def _eliminate(rows: List[Row], ncols: int) -> List[int]:
    """Fraction-free Gauss-Jordan on columns 0..ncols-1; returns the pivot columns.

    Rows are reordered and rewritten in place.  Afterwards row r < rank holds
    its pivot value, positive, at pivots[r] and zero at every other pivot
    column: a row that supplies a negative pivot is negated, and every later
    update scales it by a positive factor.  The rows from rank on are zero
    in columns below ncols.  Entries at columns >= ncols (a carried
    transform) take part in every row operation but are never pivoted on.
    The pivot columns are the greedy column basis, the same set Gauss-Jordan
    over the rationals picks, whichever row supplies a pivot.

    Per pivot, the rows holding its column are found in one scan, in row
    order, so the candidates at or below r are a bisection away; the pivot
    row's items are read once and subtracted from each holder; and a pivot
    of 1, which divides every entry, needs no gcd and scales no row.
    """
    pivots: List[int] = []
    nrows = len(rows)
    for c in range(ncols):
        r = len(pivots)
        holders = [i for i, row in enumerate(rows) if c in row]
        candidates = holders[bisect_left(holders, r):]
        if not candidates:
            continue
        # The smallest pivot entry, then the sparsest row, keeps entries small.
        best = min(candidates, key=lambda i: (abs(rows[i][c]), len(rows[i])))
        rows[r], rows[best] = rows[best], rows[r]
        if rows[r][c] < 0:
            rows[r] = {k: -v for k, v in rows[r].items()}
        pivot_items = tuple(rows[r].items())
        p = rows[r][c]
        for i in holders:
            if i == best:
                continue
            # The swap moved the row that was at r to best.
            row = rows[best if i == r else i]
            f = row[c]
            # A pivot of 1 divides every f: no scaling, so no gcd to take.
            a, b = (1, f) if p == 1 else (p // (g := math.gcd(p, f)), f // g)
            if a != 1:
                for k, v in row.items():
                    row[k] = a * v
            for k, v in pivot_items:
                v = row.get(k, 0) - b * v
                if v:
                    row[k] = v
                else:
                    del row[k]
            # Scaling is what grows entries multiplicatively, so only a scaled
            # row is reduced; an unscaled one grows by the subtraction alone.
            if a != 1:
                common = math.gcd(*row.values())
                if common > 1:
                    for k, v in row.items():
                        row[k] = v // common
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return pivots


def nullspace(columns: Sequence[Column]) -> List[List[Tuple[int, int, int]]]:
    """Basis of {x : sum_j x_j columns[j] = 0}, one vector per free column f.

    Each vector comes as solve answers: its nonzero entries in column order,
    (c, -R[r][f], p_r) at pivot column c = pivots[r], with p_r the pivot
    value, positive, and (f, 1, 1) last.  Row r of the eliminated matrix R is
    zero before its pivot column, so only pivots before f can have an entry.
    """
    _check_columns(columns)
    ncols = len(columns)
    rows = _integer_rows(columns)
    pivots = _eliminate(rows, ncols)
    free = sorted(set(range(ncols)).difference(pivots))
    return [[(c, -row[f], row[c]) for row, c in zip(rows, pivots) if f in row] + [(f, 1, 1)]
            for f in free]


class PreparedSolver:
    """Factored form of a fixed column set, for solving many right-hand sides.

    Eliminating the integer rows of [A | I] once records an integer row
    transform T with T A = R, where row r of R has the pivot value p_r at
    pivot column c_r and zero at every other pivot column, with p_r > 0.  A
    target b is consistent iff the transform rows below the rank annihilate
    it, and the particular solution with free variables zero is x[c_r] =
    (T b)_r / p_r.
    """

    def __init__(self, columns: Sequence[Column]):
        nrows = _check_columns(columns)
        ncols = len(columns)
        rows = _integer_rows(columns)
        for i, row in enumerate(rows):
            row[ncols + i] = 1
        pivots = _eliminate(rows, ncols)
        self.pivots = tuple(pivots)
        self.rank = len(pivots)
        self.pivot_values = tuple(rows[r][c] for r, c in enumerate(pivots))
        # Column i of T as (transform row, entry) pairs, so a sparse target
        # touches only the columns it needs.
        transform: List[List[Tuple[int, int]]] = [[] for _ in range(nrows)]
        for r, row in enumerate(rows):
            for k, v in row.items():
                if k >= ncols:
                    transform[k - ncols].append((r, v))
        self.transform = tuple(tuple(col) for col in transform)

    def solve(self, target: Sequence[int]) -> Optional[List[Tuple[int, int, int]]]:
        """One exact solution x of sum_j x_j columns[j] = target, or None.

        Free variables are set to zero, so the answer is deterministic.  The
        solution comes as its nonzero entries in column order, each as the
        ints (column, (T b)_r, p_r) with x_column = (T b)_r / p_r: the
        denominator is the pivot value, positive, and the pair is not
        reduced, as the consumer reduces it once; every column not listed
        is zero.
        """
        if len(target) != len(self.transform):
            raise ValueError("dimension mismatch")
        transformed = [0] * len(target)
        for b, column in zip(target, self.transform):
            if b:
                for r, t in column:
                    transformed[r] += t * b
        if any(transformed[self.rank:]):
            return None
        return [(c, y, p) for y, c, p in zip(transformed, self.pivots, self.pivot_values) if y]
