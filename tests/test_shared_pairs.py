"""The shared (index, value) pairs of the solver transforms and relation vectors.

linalg.shared_pairs' table holds one (i, v) tuple per index i and value v
with 0 < |v| <= 2 for the whole process.  Every transform entry of that
size, every _grid column entry and every relation-vector entry is the
table's tuple, read by index; the table grows in place, so a tuple once
handed out stays the one object for its pair.
"""

import gc
import random
import sys
import tracemalloc

from gammaroots import linalg, prover

GRIDS = range(2, 97)


def built_in_shuffled_order():
    """The grids N = 2..96, their cache emptied first and rebuilt in a shuffled order."""
    order = list(GRIDS)
    random.Random(34).shuffle(order)
    prover._grid.cache_clear()
    for n in order:
        prover._grid(n)
    return [prover._grid(n) for n in GRIDS]


def test_every_small_pair_of_the_grids_and_relations_is_the_tables():
    grids = built_in_shuffled_order()
    relations = prover.relations_for(840)
    table = linalg.shared_pairs(0)
    shared = other = 0
    for _, columns, solver in grids:
        for _, _, _, entries in columns:
            assert all(pair is table[e][j] for pair in entries for j, e in [pair])
        for column in solver.transform if solver else ():
            for pair in column:
                r, v = pair
                if abs(v) <= 2:
                    assert pair is table[v][r]
                    shared += 1
                else:
                    other += 1
    # The seed-1 lattice words cover these grids: 7,489 transform entries,
    # of which 216 are larger than 2 and keep a tuple of their own.
    assert (shared, other) == (7273, 216)
    entries = [pair for relation in relations for pair in relation.vector]
    assert len(entries) > 10_000
    assert all(pair is table[e][j] for pair in entries for j, e in [pair])


def test_growing_the_table_keeps_every_pair_handed_out():
    grid = prover._grid(96)
    table = linalg.shared_pairs(96)
    before = [list(row) for row in table]
    size = len(table[1]) + 100
    relations = prover.relations_for(size)
    assert linalg.shared_pairs(0) is table
    for v in (-2, -1, 1, 2):
        row = table[v]
        assert len(row) == size and all(old is new for old, new in zip(before[v], row))
        assert row == [(i, v) for i in range(size)]
    assert not table[0]
    # The pairs of a grid built before the growth are still the table's.
    _, columns, solver = grid
    assert all(pair is table[pair[1]][pair[0]] for _, _, _, entries in columns for pair in entries)
    assert all(pair is table[pair[1]][pair[0]]
               for column in solver.transform for pair in column if abs(pair[1]) <= 2)
    assert relations[-1].vector[-1] is table[1][size - 1]


def unshared_copy(grids):
    """The grids with every (index, value) pair its own tuple, as they were before the table.

    Every tuple and list is rebuilt, pairs included, and each solver is a
    new PreparedSolver holding rebuilt pivots, pivot values and transform;
    only the tag strings and the ints are the grids' own objects.
    """
    out = []
    for tags, columns, solver in grids:
        columns = tuple((tag, p, weight, tuple([(j, e) for j, e in entries]))
                        for tag, p, weight, entries in columns)
        if solver is not None:
            copy = object.__new__(linalg.PreparedSolver)
            copy.pivots, copy.rank = tuple([*solver.pivots]), solver.rank
            copy.pivot_values = tuple([*solver.pivot_values])
            copy.transform = tuple(tuple([(r, v) for r, v in column])
                                   for column in solver.transform)
            solver = copy
        out.append((tuple([*tags]), columns, solver))
    return out


def form(grid):
    """The grid's content, its solver read as (pivots, pivot values, transform)."""
    tags, columns, solver = grid
    return tags, columns, solver and (solver.pivots, solver.pivot_values, solver.transform)


def traced(build):
    """(what build returns, the bytes it holds) under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, held


def test_the_grid_cache_holds_at_most_60_percent_of_an_unshared_copy():
    """The N = 2..96 grid cache, rebuilt from empty, against a copy with no pair shared.

    The tag memos are warm from a first build, so neither side counts the
    tag strings.  The table may have grown before, so the cache is charged
    its table pairs at i < 96, all its grids can read.  Before the pairs
    were shared the cache held 101% of its copy; with them shared it holds
    about 42%.  A ratio to a copy holds on every supported Python,
    where a byte bound would not.
    """
    built_in_shuffled_order()
    prover._grid.cache_clear()
    grids, held = traced(lambda: [prover._grid(n) for n in GRIDS])
    table = linalg.shared_pairs(0)
    held += sum(sys.getsizeof(pair) for v in (-2, -1, 1, 2) for pair in table[v][:96])
    copy, copy_held = traced(lambda: unshared_copy(grids))
    assert list(map(form, copy)) == list(map(form, grids))
    assert held <= 0.6 * copy_held, (held, copy_held)
