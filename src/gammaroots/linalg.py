"""Exact linear algebra over the rationals by fraction-free integer elimination.

Systems here are small (up to a few hundred columns) and their entries are
small integers, so one Gauss-Jordan routine over sparse integer rows
({column: int}) serves both the prepared solver and nullspace.
Columns and targets are integer vectors; a row update is
row_i = p row_i - f row_r followed by division by the row's gcd (after
Bareiss, Math. Comp. 22, 1968), so no Fraction arithmetic runs inside the
elimination.  Fractions appear only in the answers.  Vectors of unknowns
are indexed by column: the solver and nullspace take their input as a list
of column vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Dict, List, Optional, Sequence, Tuple

Column = Sequence[int]
Row = Dict[int, int]

_ZERO = Q(0)


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
    return [
        {j: col[i] for j, col in enumerate(columns) if col[i]}
        for i in range(len(columns[0]))
    ]


def _eliminate(rows: List[Row], ncols: int) -> List[int]:
    """Fraction-free Gauss-Jordan on columns 0..ncols-1; returns the pivot columns.

    Rows are reordered and rewritten in place.  Afterwards row r < rank holds
    its pivot value at pivots[r] and zero at every other pivot column, and the
    rows from rank on are zero in columns below ncols.  Entries at columns
    >= ncols (a carried transform) take part in every row operation but are
    never pivoted on.  The pivot columns are the greedy column basis, the same
    set Gauss-Jordan over the rationals picks, whichever row supplies a pivot.
    """
    pivots: List[int] = []
    nrows = len(rows)
    for c in range(ncols):
        r = len(pivots)
        candidates = [i for i in range(r, nrows) if c in rows[i]]
        if not candidates:
            continue
        # The smallest pivot entry, then the sparsest row, keeps entries small.
        best = min(candidates, key=lambda i: (abs(rows[i][c]), len(rows[i])))
        rows[r], rows[best] = rows[best], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(nrows):
            row = rows[i]
            f = row.get(c)
            if f is None or i == r:
                continue
            g = math.gcd(p, f)
            a, b = p // g, f // g
            updated = {k: a * v for k, v in row.items()}
            for k, v in pivot_row.items():
                updated[k] = updated.get(k, 0) - b * v
            updated = {k: v for k, v in updated.items() if v}
            common = math.gcd(*updated.values())
            if common > 1:
                updated = {k: v // common for k, v in updated.items()}
            rows[i] = updated
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return pivots


def nullspace(columns: Sequence[Column]) -> List[List[Q]]:
    """Basis of {x : sum_j x_j columns[j] = 0}, one vector per free column."""
    _check_columns(columns)
    ncols = len(columns)
    rows = _integer_rows(columns)
    pivots = _eliminate(rows, ncols)
    pivot_set = set(pivots)
    basis: List[List[Q]] = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [_ZERO] * ncols
        vec[f] = Q(1)
        for row, c in zip(rows, pivots):
            vec[c] = Q(-row.get(f, 0), row[c])
        basis.append(vec)
    return basis


class PreparedSolver:
    """Factored form of a fixed column set, for solving many right-hand sides.

    Eliminating the integer rows of [A | I] once records an integer row
    transform T with T A = R, where row r of R has the pivot value p_r at
    pivot column c_r and zero at every other pivot column.  A target b is
    consistent iff the transform rows below the rank annihilate it, and the
    particular solution with free variables zero is x[c_r] = (T b)_r / p_r.
    """

    def __init__(self, columns: Sequence[Column]):
        nrows = _check_columns(columns)
        ncols = len(columns)
        rows = _integer_rows(columns)
        for i, row in enumerate(rows):
            row[ncols + i] = 1
        pivots = _eliminate(rows, ncols)
        self.ncols = ncols
        self.nrows = nrows
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

    def solve(self, target: Sequence[int]) -> Optional[List[Tuple[int, Q]]]:
        """One exact solution x of sum_j x_j columns[j] = target, or None.

        Free variables are set to zero, so the answer is deterministic.  The
        solution comes as its nonzero entries (column, x_column) in column
        order; every column not listed is zero.
        """
        if len(target) != self.nrows:
            raise ValueError("dimension mismatch")
        transformed = [0] * self.nrows
        for b, column in zip(target, self.transform):
            if b:
                for r, t in column:
                    transformed[r] += t * b
        if any(transformed[self.rank:]):
            return None
        return [
            (c, Q(y, p)) for y, c, p in zip(transformed, self.pivots, self.pivot_values) if y
        ]
