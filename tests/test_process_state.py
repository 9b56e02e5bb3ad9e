"""The process-wide state of src/gammaroots: every memo and module-level table, listed.

Each memo and table keeps what it is given for the life of the process,
so each must pay for its memory with reuse the runs measure, and state its
growth bound.  STATE lists every one with its key and that bound; an ast
scan of the sources finds them, and one that STATE does not list fails
the inventory, as tests/test_code_budget.py fails a line over the ceiling.
The retention test bounds what the memos keep after a numeric run at
scale.
"""

import ast
import functools
import gc
import importlib
import tracemalloc
from pathlib import Path

from gammaroots import numeric
from gammaroots.fateev import verify_all
from gammaroots.numeric import PrecisionContext

SRC = Path(__file__).resolve().parents[1] / "src" / "gammaroots"

# module.name: (key, growth bound).  The counts are those of the default
# sweep, `gammaroots verify` with its defaults.
STATE = {
    "exact._is_prime": ("n", "256 entries, the least recently used dropped"),
    "exact.term_json": ("(j, e)", "one per distinct word or relation term written: 90"),
    "exact._power_json": ("(p, n, d)", "one per distinct prime power written: 81"),
    "exact.valuations": ("(numerator, denominator)", "one per distinct pair factored: 21"),
    "prover._reflection_tag": ("j", "(N - 1) // 2 for the largest grid N proved on: 22"),
    "prover._multiplication_tag": ("(d, k)", "d divides a grid N proved on, k < N/d: 21"),
    "prover._citation_json": ("(tag, n, d)", "one per distinct cited relation and coefficient"),
    "prover._grid": ("N", "one per grid proved on, O(N^2) ints each: 24"),
    "numeric._context_fields": ("decimal_digits", "one per admissible digit count, 991 at most"),
    "numeric._machin": ("(prec, terms)", "ln 2 and pi at the precisions the contexts reach"),
    "numeric._ln_table": ("(r, t, prec)", "about 0.7 2^(t - roots) per precision: 171"),
    "numeric._ln_prime": ("(p, bits)", "one per prime of a right side and precision: 3"),
    "numeric._stirling_data": ("context", "one per context, 991 at most"),
    "numeric._ln_ratio": ("(p, q, context)", "one per reduced p/q < 1/2 per context: 133"),
    "numeric.const_ln_pair": ("(constant, digits)", "one per distinct right side and digits: 83"),
    "numeric._bound": ("decimal_digits", "one per digit count, 991 at most"),
    "gammaword._PAIRS": ("(j, e)", "one per distinct pair a word is built from: 90"),
    "linalg._PAIRS": ("(v, i)", "four per index below the largest grid a solver is prepared on"),
    "numeric._EVEN_BERNOULLI": ("k", "B_2k to twice the largest k asked, under 2 (3 shift + 1)"),
    "fateev.MODES": ("mode", "fixed: 3 entries, never written"),
    "rootsys.RANK_RANGE": ("family", "fixed: 7 entries, never written"),
    "rootsys._EXCEPTIONAL": ("family", "fixed: 3 entries, never written"),
}
# The memos with a maxsize, and the typed ones, which refuse a float or a
# bool as a key of its own instead of reading the equal int's entry.
BOUNDED = {"exact._is_prime": 256}
TYPED = {"numeric._context_fields", "numeric.const_ln_pair"}

MEMO_NAMES = {"lru_cache", "cache"}
TABLES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
TABLE_CALLS = {"dict", "list", "set", "defaultdict", "Counter", "OrderedDict", "deque"}


def is_memo(node):
    """Whether the expression names lru_cache or cache anywhere, as a decorator or a call does."""
    return any(
        (isinstance(n, ast.Name) and n.id in MEMO_NAMES)
        or (isinstance(n, ast.Attribute) and n.attr in MEMO_NAMES)
        for n in ast.walk(node)
    )


def is_table(node):
    """A mutable container display or comprehension, or a call that builds one."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in TABLE_CALLS
    return isinstance(node, TABLES)


def process_state(source, module):
    """module.name of every memoized function and every module-level memo or table in source."""
    tree = ast.parse(source)
    found = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(is_memo, node.decorator_list))
    }
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if is_memo(node.value) or is_table(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update(t.id for t in targets if isinstance(t, ast.Name))
    return {f"{module}.{name}" for name in found}


def test_the_scan_finds_decorated_and_assigned_memos_and_tables():
    source = (
        "from functools import lru_cache, cache\n"
        "import functools\n"
        "A = 1\n"
        "B: tuple = (1, 2)\n"
        "T: dict = {}\n"
        "L = [[] for _ in range(3)]\n"
        "C = defaultdict(int)\n"
        "M = lru_cache(maxsize=None)(lambda x: x)\n"
        "@lru_cache(maxsize=8)\n"
        "def f(x):\n"
        "    local = {}\n"
        "    return x\n"
        "@functools.cache\n"
        "def g(x):\n"
        "    return x\n"
        "def h(x):\n"
        "    return x\n"
    )
    assert process_state(source, "m") == {"m.T", "m.L", "m.C", "m.M", "m.f", "m.g"}


def listed_memos():
    """The lru_cache memos among STATE's entries, by name."""
    memos = {}
    for name in STATE:
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"gammaroots.{module}"), attr)
        if isinstance(obj, functools._lru_cache_wrapper):
            memos[name] = obj
    return memos


def test_every_memo_and_table_is_listed_with_its_key_and_growth_bound():
    """The scan of src/gammaroots finds exactly STATE's entries.

    A memo or table added to the package fails this test until STATE lists
    it with its key and growth bound; one removed fails it until its entry
    goes.  numeric._ln, whose memo kept logarithms that never recurred, is
    not among them.  Each lru_cache listed has the maxsize and typing
    stated here.
    """
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= process_state(path.read_text(), path.stem)
    assert found == set(STATE), (
        f"unlisted: {sorted(found - set(STATE))}, gone: {sorted(set(STATE) - found)}"
    )
    assert all(key and bound for key, bound in STATE.values())
    for name, memo in listed_memos().items():
        parameters = memo.cache_parameters()
        assert parameters == {"maxsize": BOUNDED.get(name), "typed": name in TYPED}, name
    assert not hasattr(numeric._ln, "cache_info")


# What the package's memos may keep after verify_all on A-D 13-24 --mode
# numeric.  With _ln memoized they kept 0.92 MB, 0.72 MB of it logarithms
# never read again; with ln p alone kept, 0.20 MB.
RETAINED_BOUND = 400_000


def test_the_memos_retain_under_the_bound_after_a_numeric_run(large_systems):
    """verify_all on A-D at ranks 13-24, mode numeric, 60 digits, from empty memos.

    Traced by tracemalloc; the summary is dropped, and what the memos
    retain is the traced memory that emptying them all frees.
    """
    systems = [s for (_, rank), s in large_systems.items() if rank <= 24]
    memos = listed_memos().values()
    ctx = PrecisionContext.for_digits()
    for memo in memos:
        memo.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        summary = verify_all(systems, mode="numeric", ctx=ctx)
        assert summary.all_passed and summary.reports
        del summary
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for memo in memos:
            memo.cache_clear()
        gc.collect()
        retained = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < retained < RETAINED_BOUND, retained


def test_the_prime_memo_keeps_one_logarithm_per_prime_and_precision(systems):
    """After the default sweep's numeric route, _ln_prime holds ln 2, ln 3 and ln 5 at 243 bits.

    The right sides are summed afresh, and every ln p they take past the
    first per prime is a hit.
    """
    numeric._ln_prime.cache_clear()
    numeric.const_ln_pair.cache_clear()
    summary = verify_all(systems.values(), mode="numeric", ctx=PrecisionContext.for_digits())
    primes = {p for r in summary.reports for p, _, _ in r.rhs.powers}
    info = numeric._ln_prime.cache_info()
    assert summary.all_passed and primes == {2, 3, 5}
    assert info.currsize == info.misses == len(primes) and info.hits > 0
