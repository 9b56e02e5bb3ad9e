"""Root system construction against closed-form planche data and literal tables."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction as Q

import pytest

import gammaroots
from gammaroots import cli, rootsys
from gammaroots.exact import DEFAULT_DIGITS
from gammaroots.fateev import VARIANTS, verify_all
from gammaroots.numeric import PrecisionContext
from gammaroots.rootsys import (
    ClosureError,
    RootSystem,
    RootSystemId,
    _planche,
    _validate,
    build,
    generate_positive_roots,
    highest_root,
    weyl_vectors,
)


def root_coeffs(parents, steps, rank):
    """Each root's coefficients as bytes (byte k holds c_(k+1)), from the first-parent tree.

    One forward pass over the level order: a root is its parent plus one at
    its step, and a simple root, parent -1, is one at its own index.
    """
    coeffs = []
    for parent, i in zip(parents, steps):
        c = bytearray(coeffs[parent] if parent >= 0 else rank)
        c[i] += 1
        coeffs.append(bytes(c))
    return coeffs


def inner(u, v):
    """(u|v) for ambient Fraction coordinates."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(u, v)), Q(0))


def unit(i, dim):
    return tuple(Q(1) if k == i else Q(0) for k in range(dim))


def closed_form_positive(family, n):
    """The classical positive systems, written down independently of closure."""
    roots = set()
    if family == "A":
        dim = n + 1
        for i in range(dim):
            for j in range(i + 1, dim):
                roots.add(tuple(a - b for a, b in zip(unit(i, dim), unit(j, dim))))
        return roots
    for i in range(n):
        for j in range(i + 1, n):
            roots.add(tuple(a - b for a, b in zip(unit(i, n), unit(j, n))))
            roots.add(tuple(a + b for a, b in zip(unit(i, n), unit(j, n))))
    if family == "B":
        roots.update(unit(i, n) for i in range(n))
    elif family == "C":
        roots.update(tuple(2 * x for x in unit(i, n)) for i in range(n))
    elif family != "D":
        raise ValueError(family)
    return roots


CLASSICAL_IDS = (
    [("A", n) for n in range(1, 13)]
    + [("B", n) for n in range(2, 13)]
    + [("C", n) for n in range(2, 13)]
    + [("D", n) for n in range(3, 13)]
)


@pytest.mark.parametrize("family,rank", CLASSICAL_IDS)
def test_closure_matches_closed_forms(systems, family, rank):
    system = systems[(family, rank)]
    assert set(system.positive_roots) == closed_form_positive(family, rank)


def test_id_validation():
    for family, rank in [("H", 3), ("A", 0), ("B", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 4)]:
        with pytest.raises(ValueError):
            RootSystemId(family, rank)
    assert str(RootSystemId("A", 12)) == "A12"


def test_id_rejects_bool_rank():
    for family, rank in [("A", True), ("G", True), ("A", False)]:
        with pytest.raises(ValueError, match="admits rank"):
            RootSystemId(family, rank)


def test_a2_table(systems):
    s = systems[("A", 2)]
    assert len(s.positive_roots) == 3
    assert s.coxeter_number == 3
    assert s.marks == (1, 1, 1)
    assert s.rho == (Q(1), Q(0), Q(-1))
    assert s.rho == s.rho_check
    assert s.simply_laced


def test_a1_minimal(systems):
    s = systems[("A", 1)]
    assert len(s.positive_roots) == 1
    assert s.coxeter_number == 2
    assert s.marks == (1, 1)


def test_g2_table(systems):
    s = systems[("G", 2)]
    assert len(s.positive_roots) == 6
    assert s.coxeter_number == 6
    assert s.marks == (1, 3, 2)
    assert s.comarks == (Q(3), Q(3), Q(6))
    assert s.double_comarks == (Q(9), Q(3), Q(18))
    assert s.comark_sum == 12
    assert not s.simply_laced


def test_b4_table(systems):
    s = systems[("B", 4)]
    assert s.marks == (1, 1, 2, 2, 2)
    assert s.comarks == (Q(1), Q(1), Q(2), Q(2), Q(1))
    assert s.double_comarks == (Q(1), Q(1), Q(2), Q(2), Q(1, 2))
    assert s.comark_sum == 7


def test_b2_weyl_covector(systems):
    assert systems[("B", 2)].rho_check == (Q(2), Q(1))


def test_c3_table(systems):
    s = systems[("C", 3)]
    assert s.marks == (1, 2, 2, 1)
    assert s.comarks == (Q(2), Q(2), Q(2), Q(2))
    assert s.double_comarks == (Q(4), Q(2), Q(2), Q(4))
    assert s.comark_sum == 8


def test_f4_table(systems):
    s = systems[("F", 4)]
    assert len(s.positive_roots) == 24
    assert s.coxeter_number == 12
    assert s.marks == (1, 2, 3, 4, 2)
    assert s.comarks == (Q(1), Q(2), Q(3), Q(2), Q(1))
    assert s.double_comarks == (Q(1), Q(2), Q(3), Q(1), Q(1, 2))
    assert s.comark_sum == 9
    assert s.rho == (Q(11, 2), Q(5, 2), Q(3, 2), Q(1, 2))
    assert s.simple_roots == (
        (Q(0), Q(1), Q(-1), Q(0)),
        (Q(0), Q(0), Q(1), Q(-1)),
        (Q(0), Q(0), Q(0), Q(1)),
        (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)),
    )


def test_e_tables(systems):
    e6, e7, e8 = systems[("E", 6)], systems[("E", 7)], systems[("E", 8)]
    assert (len(e6.positive_roots), e6.coxeter_number) == (36, 12)
    assert e6.marks == (1, 1, 2, 2, 3, 2, 1)
    assert (len(e7.positive_roots), e7.coxeter_number) == (63, 18)
    assert e7.marks == (1, 2, 2, 3, 4, 3, 2, 1)
    assert (len(e8.positive_roots), e8.coxeter_number) == (120, 30)
    assert e8.marks == (1, 2, 3, 4, 6, 5, 4, 3, 2)
    for s in (e6, e7, e8):
        assert s.simply_laced
        assert s.comark_sum == s.coxeter_number
        assert s.rho == s.rho_check


def test_d3_is_a3_in_disguise(systems):
    s = systems[("D", 3)]
    assert len(s.positive_roots) == 6
    assert s.coxeter_number == 4
    assert s.marks == (1, 1, 1, 1)


@pytest.mark.parametrize(
    "family,rank",
    CLASSICAL_IDS + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_structural_invariants(systems, family, rank):
    s = systems[(family, rank)]
    h = s.coxeter_number
    assert 2 * len(s.positive_roots) == rank * h
    assert sum(s.marks) == h
    assert s.marks[0] == 1
    heights = sorted(inner(a, s.rho_check) for a in s.positive_roots)
    assert heights[0] == 1 and heights[-1] == h - 1
    assert set(heights) == set(range(1, h))
    # marks reconstruct the highest root
    theta = tuple(-x for x in s.alpha0)
    combo = tuple(
        sum(m * a[k] for m, a in zip(s.marks[1:], s.simple_roots))
        for k in range(len(theta))
    )
    assert combo == theta
    # comarks and double comarks tie to root lengths
    nodes = (theta,) + s.simple_roots
    for a, mark, cm, dcm in zip(nodes, s.marks, s.comarks, s.double_comarks):
        assert cm == inner(a, a) * mark / 2
        assert dcm == inner(a, a) * cm / 2


def test_comark_sums_by_family(systems):
    for (family, rank), s in systems.items():
        expected = {
            "B": 2 * rank - 1,
            "C": 2 * rank + 2,
            "F": 9,
            "G": 12,
        }.get(family, s.coxeter_number)
        assert s.comark_sum == expected, (family, rank)


def test_positive_roots_deterministic(systems):
    s = systems[("E", 6)]
    assert s == build(RootSystemId("E", 6))
    hs = [inner(a, s.rho_check) for a in s.positive_roots]
    assert hs == sorted(hs)


def test_closure_rejects_affine_extension():
    # e1 - e2, e2 - e3, e3 - e1: alpha_0 + alpha_1 + alpha_2 has length zero
    affine_a2 = ((4, -2, -2), (-2, 4, -2), (-2, -2, 4))
    with pytest.raises(ClosureError, match="length zero"):
        generate_positive_roots(affine_a2)


def test_closure_rejects_non_crystallographic():
    # (1, 0) and (-3, 1): 2(a|b) / (b|b) = -6 / 10
    with pytest.raises(ClosureError, match="non-integral Cartan"):
        generate_positive_roots(((2, -6), (-6, 20)))


def test_closure_rejects_zero_diagonal():
    with pytest.raises(ClosureError, match="not positive"):
        generate_positive_roots(((0,),))
    with pytest.raises(ClosureError, match="alpha_2"):
        generate_positive_roots(((2, 0), (0, 0)))


@pytest.mark.parametrize("gram", [(), ((2, -1),), ((2,), (-1, 2)), ((2, -1, 0), (-1, 2))])
def test_closure_rejects_empty_or_ragged_gram(gram):
    with pytest.raises(ClosureError, match="square and not empty"):
        generate_positive_roots(gram)


def pairing_dicts(columns, count):
    """Each of count roots' nonzero pairings {j: (c G)_j}, rebuilt from the pairing columns.

    Each column must be a pair of equally long sequences, its positions in
    table order and its pairings not zero.
    """
    dicts = [{} for _ in range(count)]
    for j, (positions, pairings) in enumerate(columns):
        assert list(positions) == sorted(set(positions)), j
        for k, p in zip(positions, pairings, strict=True):
            assert p, (k, j)
            dicts[k][j] = p
    return dicts


def dense_pairings(system):
    """The full rows 2(alpha_j|a), j = 1..r, rebuilt from the nonzero columns."""
    dicts = pairing_dicts(system.pairing_columns, len(system.parents))
    return [tuple(p.get(j, 0) for j in range(system.rank)) for p in dicts]


@pytest.mark.parametrize("family,rank", [("B", 4), ("F", 4), ("G", 2), ("E", 6)])
def test_closure_carries_pairings_level_by_level(systems, family, rank):
    s = systems[(family, rank)]
    parents, steps, columns, *tables = generate_positive_roots(s.gram)
    assert [sum(c) for c in root_coeffs(parents, steps, rank)] == sorted(s.heights)
    assert (tuple(parents), tuple(steps)) == (s.parents, s.steps)
    assert all(type(ks) is type(ps) is list for ks, ps in columns)
    assert tuple((tuple(ks), tuple(ps)) for ks, ps in columns) == s.pairing_columns
    pairings = pairing_dicts(columns, len(parents))
    assert [tuple(p.get(j, 0) for j in range(rank)) for p in pairings] == dense_pairings(s)
    assert tables == [list(s.norms), list(s.heights), list(s.rho_pairings)]


def test_simple_roots_shapes(systems):
    a3 = systems[("A", 3)].simple_roots
    assert len(a3) == 3 and len(a3[0]) == 4
    g2 = systems[("G", 2)].simple_roots
    assert g2 == ((Q(1), Q(-1), Q(0)), (Q(-2), Q(1), Q(1)))


def test_json_obj(systems):
    obj = systems[("A", 2)].to_json_obj()
    assert obj["family"] == "A" and obj["rank"] == 2
    assert obj["coxeter_number"] == 3
    assert obj["comark_sum"] == "3"
    assert obj["marks"] == [1, 1, 1]
    assert obj["rho"] == ["1", "0", "-1"]
    assert len(obj["positive_roots"]) == 3


def test_comark_data_are_read_off_the_node_norms(systems):
    assert RootSystem._fields == (
        "ident", "marks", "coxeter_number", "simply_laced", "gram", "parents", "steps",
        "pairing_columns", "norms", "heights", "rho_pairings", "weyl",
    )
    for s in systems.values():
        # the closure lists the highest root last
        assert root_coeffs(s.parents, s.steps, s.rank)[-1] == bytes(s.marks[1:])
        assert s.node_norms == tuple(2 * inner(a, a) for a in (s.alpha0, *s.simple_roots))
        assert s.comark_sum == sum(s.comarks)


def test_built_systems_store_no_fraction(systems):
    """No field of a built system holds a Fraction, however deeply nested."""
    for s in (*systems.values(), build(RootSystemId("B", 64))):
        for name, value in zip(s._fields, s):
            stack = [value]
            while stack:
                item = stack.pop()
                assert not isinstance(item, Q), (s.ident, name)
                if isinstance(item, (tuple, list)):
                    stack.extend(item)
                elif isinstance(item, dict):
                    stack.extend(item.items())


def test_closure_rejects_reducible_base():
    a1_a1 = ((2, 0), (0, 2))
    parents, steps, columns, *_ = generate_positive_roots(a1_a1)
    assert (parents, steps, columns) == ([-1, -1], [0, 1], [([0], [2]), ([1], [2])])
    assert pairing_dicts(columns, len(parents)) == [{0: 2}, {1: 2}]
    with pytest.raises(ValueError, match="not irreducible"):
        highest_root(parents, steps)


@pytest.mark.parametrize(
    "family,rank",
    [(f, n) for f, n in CLASSICAL_IDS if n <= 6]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_integer_tables_match_ambient_coordinates(systems, family, rank):
    s = systems[(family, rank)]
    simple = s.simple_roots
    assert s.gram == tuple(tuple(2 * inner(u, v) for v in simple) for u in simple)
    coeffs = root_coeffs(s.parents, s.steps, s.rank)
    assert len(coeffs) == len(s.positive_roots)
    pairings = dense_pairings(s)
    for k, (c, a) in enumerate(zip(coeffs, s.positive_roots)):
        assert a == tuple(sum(x * u[d] for x, u in zip(c, simple)) for d in range(len(a)))
        assert pairings[k] == tuple(2 * inner(u, a) for u in simple)
        assert s.norms[k] == 2 * inner(a, a)
        assert s.heights[k] == inner(a, s.rho_check) == sum(c)
        assert s.rho_pairings[k] == 4 * inner(a, s.rho)
    assert s.marks[1:] == tuple(coeffs[-1])
    assert all(type(c) is bytes and len(c) == rank for c in coeffs)


def regrown(system, parents=None, steps=None, norms=None):
    """The system on a doctored tree or norm table, its Weyl vectors recomputed from them."""
    parents = system.parents if parents is None else parents
    steps = system.steps if steps is None else steps
    norms = system.norms if norms is None else norms
    weyl = weyl_vectors(parents, steps, norms)
    return system._replace(parents=tuple(parents), steps=tuple(steps), norms=norms, weyl=weyl)


def doctored_systems(systems):
    """One doctored D5 per tie of _validate, (message, system), each breaking that tie alone.

    - count: the last root cut off the tree;
    - heights fill [1, h-1]: the top height lowered and a simple root's
      raised by one, so the sum stays;
    - heights sum: a root of height 2 moved to height 3, which leaves the
      levels filled;
    - heights sum, on the tree: a root of height 4 hung from a simple root,
      which shortens its path;
    - Weyl vectors: one root's step changed, which keeps every path length;
    - rho_check: one root's norm changed to the other length.
    """
    s = systems[("D", 5)]
    r, heights = s.rank, list(s.heights)
    cut = s._replace(parents=s.parents[:-1], steps=s.steps[:-1])
    level = heights[:]
    level[-1], level[0] = level[-1] - 1, level[0] + 1
    raised = heights[:]
    raised[heights.index(2)] = 3
    assert heights.count(2) > 1 and heights.count(3) > 0
    hung = list(s.parents)
    hung[heights.index(4)] = 0
    moved = list(s.steps)
    k = heights.index(3)
    moved[k] = (moved[k] + 1) % r
    c4 = systems[("C", 4)]
    norms = list(c4.norms)
    norms[-1] = next(n for n in norms if n != norms[-1])
    heights_tie = "root heights must fill \\[1, h-1\\] and sum to 2 rho"
    return [
        ("rank \\* h / 2", cut),
        (heights_tie, s._replace(heights=tuple(level))),
        (heights_tie, s._replace(heights=tuple(raised))),
        (heights_tie, regrown(s, parents=hung)),
        ("rho and rho_check disagree", regrown(s, steps=moved)),
        ("rho and rho_check disagree", regrown(c4, norms=tuple(norms))),
    ]


def test_validate_raises_on_doctored_system(systems):
    _validate(systems[("D", 5)])
    for message, doctored in doctored_systems(systems):
        with pytest.raises(ClosureError, match=message):
            _validate(doctored)


def test_each_heights_tie_fires_on_its_own(systems):
    """The fill and the sum each fail alone, the other holding, and the Weyl ties hold."""
    s = systems[("D", 5)]
    h = s.coxeter_number
    (u, d), _ = s.weyl
    _, (_, level), (_, raised), (_, hung), *_ = doctored_systems(systems)
    for doctored, fills, sums in ((level, False, True), (raised, True, False)):
        assert (set(doctored.heights) == set(range(1, h))) is fills
        assert (d * sum(doctored.heights) == 2 * sum(u)) is sums
        assert doctored.weyl == s.weyl
    # On the tree the sum fails though the heights table is the closure's.
    assert hung.heights == s.heights
    assert 2 * sum(hung.weyl[0][0]) != hung.weyl[0][1] * sum(s.heights)


def test_validation_survives_optimized_mode(systems):
    """Every system of doctored_systems still raises under python -O."""
    doctored = [system for _, system in doctored_systems(systems)]
    code = (
        "import pickle, sys\n"
        "from gammaroots.rootsys import ClosureError, _validate\n"
        "for s in pickle.load(sys.stdin.buffer):\n"
        "    try:\n"
        "        _validate(s)\n"
        "    except ClosureError:\n"
        "        print('raised')\n"
        "    else:\n"
        "        print('passed')\n"
    )
    src = os.path.dirname(os.path.dirname(gammaroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, input=pickle.dumps(doctored),
        capture_output=True, check=True,
    )
    assert out.stdout.decode().split() == ["raised"] * len(doctored)


def test_validate_checks_the_weyl_vectors_against_the_gram_matrix(systems):
    """A wrong step moves 2 rho and a wrong norm weight moves L rho_check; both raise.

    Neither changes a path length, so the count and heights ties hold.
    """
    s = systems[("C", 4)]
    last = len(s.steps) - 1
    moved = list(s.steps)
    moved[last] = (moved[last] + 1) % s.rank
    doctored = regrown(s, steps=moved)
    assert doctored.weyl[0] != s.weyl[0] and doctored.heights == s.heights
    with pytest.raises(ClosureError, match="rho and rho_check disagree with alpha_"):
        _validate(doctored)
    norms = list(s.norms)
    norms[0] = next(n for n in norms if n != norms[0])
    doctored = regrown(s, norms=tuple(norms))
    assert doctored.weyl[0] == s.weyl[0] and doctored.weyl[1] != s.weyl[1]
    with pytest.raises(ClosureError, match="rho and rho_check disagree"):
        _validate(doctored)
    (two_rho, two), (lcm_rho_check, lcm) = s.weyl
    off = (lcm_rho_check[0] + 1,) + lcm_rho_check[1:]
    with pytest.raises(ClosureError, match="rho and rho_check disagree with alpha_1"):
        _validate(s._replace(weyl=((two_rho, two), (off, lcm))))
    # A wrong 2 rho denominator now fails the heights sum, which reads it first.
    with pytest.raises(ClosureError, match="root heights must fill \\[1, h-1\\] and sum to 2 rho"):
        _validate(s._replace(weyl=((two_rho, two + 2), (lcm_rho_check, lcm))))


def test_verify_never_computes_ambient_coordinates(monkeypatch, capsys):
    ids = [("A", 3), ("B", 12), ("D", 5), ("E", 8), ("F", 4), ("G", 2)]
    fresh = [build(RootSystemId(family, rank)) for family, rank in ids]

    def refuse(*args):
        raise RuntimeError("ambient coordinates computed")

    with monkeypatch.context() as patch:
        patch.setattr(rootsys, "_planche", refuse)
        with pytest.raises(RuntimeError, match="ambient coordinates"):
            fresh[0].rho
        ctx = PrecisionContext.for_digits(DEFAULT_DIGITS)
        summary = verify_all(fresh, VARIANTS, "both", ctx)
    assert summary.all_passed
    e8 = fresh[ids.index(("E", 8))]
    assert cli.main(["table", "E", "8", "--format", "json"]) == 0
    assert capsys.readouterr().out == cli.dumps_canonical(e8.to_json_obj()) + "\n"
    assert len(e8.to_json_obj()["positive_roots"]) == len(e8.parents) == 120


def dense_combine(coeffs, scaled):
    """sum_k coeffs_k scaled_k, walking the whole planche row of each nonzero coefficient.

    The formula the ambient tables were built with before they read the rows
    by sparse column, kept as the reference.
    """
    out = [0] * len(scaled[0])
    for c, row in zip(coeffs, scaled):
        if c:
            for d, x in enumerate(row):
                out[d] += c * x
    return tuple(out)


def reference_ambient(system):
    """The five ambient tables, by name, from dense_combine."""
    scale, scaled = _planche(system.ident)

    def over(nums, den):
        return tuple(Q(x, den * scale) for x in dense_combine(nums, scaled))

    (two_rho, two), (lcm_rho_check, lcm) = system.weyl
    coeffs = root_coeffs(system.parents, system.steps, system.rank)
    return {
        "simple_roots": tuple(tuple(Q(x, scale) for x in row) for row in scaled),
        "positive_roots": tuple(over(c, 1) for c in coeffs),
        "alpha0": over([-m for m in system.marks[1:]], 1),
        "rho": over(two_rho, two),
        "rho_check": over(lcm_rho_check, lcm),
    }


def test_ambient_tables_match_the_dense_reference(systems, large_systems):
    assert len(systems) == 49
    for system in [*systems.values(), *large_systems.values()]:
        reference = reference_ambient(system)
        for name, expected in reference.items():
            table = getattr(system, name)
            vectors = table if name in ("simple_roots", "positive_roots") else (table,)
            assert type(table) is tuple and all(type(v) is tuple for v in vectors)
            assert all(type(x) is Q for v in vectors for x in v), (system.ident, name)
            assert table == expected, (system.ident, name)
        # The JSON lists the roots by height, then by ambient coordinates.
        by_height = sorted(zip(system.heights, reference["positive_roots"]))
        roots = [[str(x) for x in root] for _, root in by_height]
        assert system.to_json_obj()["positive_roots"] == roots, system.ident
