"""The nine value types: validated, immutable namedtuples with value equality.

FactoredConstant, GammaWord, RootSystemId, PrecisionContext and the terms of
Certificate validate on every construction path: the constructor, _make and
_replace.  All nine have no instance
__dict__ and refuse attribute assignment, and equal fields give equal
objects with equal hashes.
"""

import os
import subprocess
import sys
from fractions import Fraction as Q

import pytest

import gammaroots
from gammaroots.exact import ONE, FactoredConstant
from gammaroots.fateev import F, VerificationReport, VerificationSummary, verify, verify_all
from gammaroots.gammaword import GammaWord
from gammaroots.numeric import PrecisionContext
from gammaroots.prover import Certificate, Relation, prove_constant, reflection_relations
from gammaroots.rootsys import RootSystem, RootSystemId, build

CTX_20 = tuple(PrecisionContext.for_digits(20))

# (type, valid fields, invalid fields)
VALIDATED = [
    (FactoredConstant, (((2, Q(1, 2)),),), (((4, 1),),)),
    (FactoredConstant, (((2, Q(1, 2)),),), (((2, True),),)),
    (FactoredConstant, (((2, Q(1, 2)),),), (((2.0, 1),),)),
    (GammaWord, (4, ((1, 1),)), (4, ((0, 1),))),
    (GammaWord, (4, ((1, 1),)), (4, ((1, 0),))),
    (GammaWord, (4, ((1, 1),)), (True, ())),
    (GammaWord, (4, ((1, 1),)), (2, ((True, True),))),
    (RootSystemId, ("A", 3), ("A", True)),
    (RootSystemId, ("A", 3), ("H", 3)),
    (RootSystemId, ("A", 3), ("E", 9)),
    (GammaWord, (4, [[1, 1]]), (4, [[1, 1], [1, 2]])),
    (PrecisionContext, CTX_20, (20, CTX_20[1], 0, 3)),
    (PrecisionContext, CTX_20, (20, CTX_20[1] - 1, *CTX_20[2:])),
    (PrecisionContext, CTX_20, (20, CTX_20[1], CTX_20[2], True)),
    (Certificate, ((("half", 1, 2),), ONE), ((("half", 0.5, 1),), ONE)),
    (Certificate, ((("half", 1, 2),), ONE), ((("half", Q(1, 2)),), ONE)),
    (Certificate, ((("half", 1, 2),), ONE), ((("half", 1),), ONE)),
]


@pytest.mark.parametrize("cls,good,bad", VALIDATED)
def test_bad_fields_raise_on_every_construction_path(cls, good, bad):
    fields = dict(zip(cls._fields, bad))
    for make in (
        lambda: cls(*bad),
        lambda: cls(**fields),
        lambda: cls._make(bad),
        lambda: cls(*good)._replace(**fields),
    ):
        with pytest.raises(ValueError):
            make()
    assert cls._make(good) == cls(*good)


def test_replace_validates_one_field():
    with pytest.raises(ValueError, match="strictly increasing|outside"):
        GammaWord(4, ((1, 1),))._replace(exponents=((0, 1),))
    with pytest.raises(ValueError, match="not prime"):
        FactoredConstant(((2, 1),))._replace(powers=((6, 1),))
    with pytest.raises(ValueError, match="admits rank"):
        RootSystemId("G", 2)._replace(rank=3)
    # _replace canonicalizes as the constructor does
    assert FactoredConstant()._replace(powers=((3, 1), (2, 0))).powers == ((3, 1, 1),)


def instances(systems):
    """Two separately built, equal instances of each of the nine types."""
    a2 = systems[("A", 2)]
    word = GammaWord(6, ((1, 1), (5, 1)))

    def pair(make):
        return make(), make()

    return [
        pair(lambda: FactoredConstant(((3, Q(1, 3)), (2, 1)))),
        pair(lambda: GammaWord(6, ((1, 1), (5, -1)))),
        pair(lambda: reflection_relations(6)[0]),
        pair(lambda: prove_constant(word)),
        pair(lambda: PrecisionContext.for_digits(20)),
        pair(lambda: RootSystemId("B", 4)),
        pair(lambda: build(RootSystemId("A", 2))),
        pair(lambda: verify(a2, 1, F, "exact")),
        pair(lambda: verify_all([a2], mode="exact")),
    ]


def test_the_nine_types_are_covered(systems):
    assert {type(a) for a, _ in instances(systems)} == {
        FactoredConstant, GammaWord, Relation, Certificate, PrecisionContext,
        RootSystemId, RootSystem, VerificationReport, VerificationSummary,
    }


def test_equal_fields_give_equal_objects_and_hashes(systems):
    for a, b in instances(systems):
        assert a is not b
        assert a == b and not a != b, type(a).__name__
        assert hash(a) == hash(b), type(a).__name__


def test_assignment_raises(systems):
    for obj, _ in instances(systems):
        for name in (obj._fields[0], obj._fields[-1], "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        with pytest.raises(AttributeError):
            del obj.extra
        assert not hasattr(obj, "extra")


def test_no_value_type_has_a_dict(systems):
    for obj, _ in instances(systems):
        name = type(obj).__name__
        assert not hasattr(obj, "__dict__"), name
        for cls in type(obj).__mro__[:-2]:
            assert vars(cls).get("__slots__") == (), (name, cls)
        with pytest.raises(AttributeError):
            obj.extra = None
    system = build(RootSystemId("A", 2))
    for table in ("simple_roots", "positive_roots", "alpha0", "rho", "rho_check"):
        assert getattr(system, table) == getattr(system, table)
        with pytest.raises(AttributeError):
            setattr(system, table, None)
        with pytest.raises(AttributeError):
            delattr(system, table)


def test_word_stores_its_exponents_as_tuples():
    kept = ((1, 1), (3, -1))
    assert GammaWord(4, kept).exponents is kept
    for given in ([(1, 1), (3, -1)], [[1, 1], [3, -1]], ([1, 1], [3, -1]), ((1, 1), [3, -1])):
        word = GammaWord(4, given)
        assert word == GammaWord(4, kept) and hash(word) == hash(GammaWord(4, kept))
        assert type(word.exponents) is tuple and all(type(p) is tuple for p in word.exponents)
    listed = [[1, 1]]
    word = GammaWord(4, listed)
    listed[0][1] = 2
    listed.append([3, 1])
    assert word.exponents == ((1, 1),)
    assert GammaWord(4)._replace(exponents=[[1, 2]]).exponents == ((1, 2),)


def test_root_system_ids_sort_by_family_then_rank():
    ids = [RootSystemId(*key) for key in [("B", 2), ("A", 10), ("G", 2), ("A", 3), ("A", 9)]]
    assert [str(i) for i in sorted(ids)] == ["A3", "A9", "A10", "B2", "G2"]
    assert RootSystemId("A", 10) > RootSystemId("A", 9)


def test_root_system_repr_names_no_table(systems):
    text = repr(systems[("B", 12)])
    assert text.startswith("RootSystem(ident=RootSystemId(family='B', rank=12), marks=(1, ")
    assert text.endswith(", simply_laced=False)")
    tables = RootSystem._fields[RootSystem._fields.index("gram"):]
    assert tables == ("gram", "parents", "steps", "pairing_columns", "norms", "heights",
                      "rho_pairings", "weyl")
    for name in tables:
        assert f"{name}=" not in text
    assert len(text) < 2000


def test_importing_the_package_loads_no_dataclasses():
    code = (
        "import sys\n"
        "import gammaroots.cli, gammaroots.fateev, gammaroots.prover\n"
        "import gammaroots.rootsys, gammaroots.numeric\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(gammaroots.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "[]"
