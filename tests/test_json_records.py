"""The JSON records of words, relations, certificates and constants: shared and read-only.

exact.term_json, exact._power_json and prover._citation_json build one dict
per distinct record for the whole process, and each to_json_obj hands out
that dict wherever the record occurs.  So equal records are one object,
every JSON tree of a process shares them, and a tree is read-only: a
producer that changed a record would change every tree that holds it.
"""

import gc
import hashlib
import json
import tracemalloc
from fractions import Fraction as Q

import pytest

from gammaroots import exact, prover
from gammaroots.cli import dumps_canonical
from gammaroots.exact import FactoredConstant
from gammaroots.fateev import verify_all
from gammaroots.gammaword import GammaWord
from gammaroots.numeric import PrecisionContext
from gammaroots.prover import Certificate, prove_constant, reflection_relations
from test_prover import LATTICE_SEED_1_SHA256, lattice_words

MEMOS = (exact.term_json, exact._power_json, prover._citation_json)


@pytest.fixture(scope="module")
def default_sweep(systems):
    """The summary of the default `verify`: the 49 systems, mode both, 60 digits."""
    return verify_all(systems.values(), mode="both", ctx=PrecisionContext.for_digits())


@pytest.fixture(scope="module")
def lattice_certificates():
    """The certificates of the benchmark's seed-1 lattice words, None outside the span."""
    return [prove_constant(word) for word in lattice_words(1)]


def lattice_tree(certificates):
    """The certificates' JSON tree, as the benchmark's lattice child builds it."""
    return [None if c is None else c.to_json_obj() for c in certificates]


def test_certificates_citing_one_coefficient_share_its_record():
    third = FactoredConstant([(2, Q(1, 3))])
    one = Certificate([("reflection(1)", 1, 2), ("half", 1, 3)], third)
    other = Certificate([("multiplication(2,1)", 3, 1), ("reflection(1)", 2, 4)], third)
    first, second = one.to_json_obj()["relations"], other.to_json_obj()["relations"]
    # 2/4 is reduced to 1/2, so the two cite reflection(1) with one coefficient.
    assert first[0] is second[1]
    assert first[0] == {"tag": "reflection(1)", "coefficient": "1/2"}
    assert second[0] == {"tag": "multiplication(2,1)", "coefficient": "3"}
    # The same tag with another coefficient, or another tag, is another record.
    assert Certificate([("reflection(1)", 1, 3)], third).to_json_obj()["relations"][0] == {
        "tag": "reflection(1)", "coefficient": "1/3"}
    assert first[1] == {"tag": "half", "coefficient": "1/3"} and first[1] is not first[0]


def test_words_and_relations_with_one_term_share_its_record():
    word, other = GammaWord(6, ((1, 2), (5, -1))), GammaWord(12, ((1, 2), (7, 1)))
    terms, other_terms = word.to_json_obj()["terms"], other.to_json_obj()["terms"]
    assert terms[0] is other_terms[0] and terms[0] == {"j": 1, "exponent": 2}
    assert terms[1] == {"j": 5, "exponent": -1} and other_terms[1] == {"j": 7, "exponent": 1}
    # reflection(1) on the 1/6 grid is gamma(1/6) gamma(5/6): its (5, 1) term is a word's too.
    vector = reflection_relations(6)[0].to_json_obj()["vector"]
    assert vector == [{"j": 1, "exponent": 1}, {"j": 5, "exponent": 1}]
    assert vector[1] is GammaWord(6, ((5, 1),)).to_json_obj()["terms"][0]


def test_constants_with_one_prime_power_share_its_record():
    one, other = FactoredConstant([(2, Q(1, 3))]), FactoredConstant([(2, Q(2, 6)), (5, -1)])
    first, second = one.to_json_obj(), other.to_json_obj()
    assert first[0] is second[0]
    assert first[0] == {"base": 2, "exponent_numerator": 1, "exponent_denominator": 3}
    assert second[1] == {"base": 5, "exponent_numerator": -1, "exponent_denominator": 1}
    # A certificate's derived constant is a constant like any other.
    assert Certificate([], other).to_json_obj()["derived_constant"][0] is first[0]


def test_a_tree_built_between_two_sweep_trees_leaves_them_equal(
    default_sweep, lattice_certificates
):
    """The default sweep's tree, the seed-1 lattice trees, then the sweep's again.

    The trees share records, so a producer that changed one, say a
    certificate's coefficient text, would change the second sweep text.
    The lattice text between them is the pinned one.
    """
    first = dumps_canonical(default_sweep.to_json_obj())
    text = json.dumps(lattice_tree(lattice_certificates), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == LATTICE_SEED_1_SHA256
    assert dumps_canonical(default_sweep.to_json_obj()) == first


def allocated(build):
    """(what build returns, the bytes its result holds) under tracemalloc, the memos emptied.

    The memos start empty, so the bytes count every record the result
    holds, and the memos' own tables, once.
    """
    for memo in MEMOS:
        memo.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, held


# The fields of a verify report that hold an identity's JSON.
IDENTITY_KEYS = ("lhs_word", "rhs_constant", "certificate")


def unshared_copy(tree):
    """The tree's content with no record shared: json.loads of its text.

    A verify tree also shares each identity's word, constant and
    certificate among the reports that cite it (VerificationSummary's id
    memo).  The copy keeps that sharing, loading each distinct text once,
    so a verify tree and its copy differ in the records alone: a plain
    json.loads copy of the default sweep's tree would repeat each identity
    in each of its reports, and the tree before the records were shared
    held only 42% of that.
    """
    if isinstance(tree, list):
        return json.loads(json.dumps(tree))
    loaded = {}

    def load(value):
        text = json.dumps(value)
        if text not in loaded:
            loaded[text] = json.loads(text)
        return loaded[text]

    return {**tree, "reports": [{**r, **{k: load(r[k]) for k in IDENTITY_KEYS}}
                                for r in tree["reports"]]}


@pytest.mark.parametrize("workload", ["sweep", "lattice"])
def test_a_tree_holds_at_most_60_percent_of_an_unshared_copy(
    workload, default_sweep, lattice_certificates
):
    """The default sweep's tree and the seed-1 lattice trees, against unshared copies.

    The copy holds one dict per occurrence of a record, as the trees did
    before their records were shared, when they held 86% (sweep) and 88%
    (lattice) of it.  With the records shared they hold about 44% and 34%.
    A ratio to a copy holds on every supported Python, where a byte bound
    would not.
    """
    if workload == "sweep":
        tree, held = allocated(default_sweep.to_json_obj)
    else:
        tree, held = allocated(lambda: lattice_tree(lattice_certificates))
    copy, copy_held = allocated(lambda: unshared_copy(tree))
    assert dumps_canonical(copy) == dumps_canonical(tree)
    assert held <= 0.6 * copy_held, (workload, held, copy_held)
