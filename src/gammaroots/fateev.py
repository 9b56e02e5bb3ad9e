"""Gamma-product identities over the positive roots of an irreducible system.

With marks n_i, comarks n_i', double comarks n_i'' (index 0..r, node 0 being
the negated highest root), h the mark sum and h' the comark sum, the three
variants checked here read, for each simple root alpha_i:

  F        prod_{a>0} gamma((a|rho)/h)^(-(alpha_i|a))    = n_i  k^(-1/h),
           k  = prod_j n_j^(n_j)                (simply laced systems only)
  Fprime   prod_{a>0} gamma((a|rho')/h)^(-(alpha_i|a^))  = n_i' k'^(-1/h),
           k' = prod_j (n_j')^(n_j)
  Fsecond  prod_{a>0} gamma((a|rho)/h')^(-(alpha_i^|a))  = n_i'' k''^(-1/h'),
           k''= prod_j (n_j'')^(n_j')

where rho / rho' are the half-sums of positive roots / coroots and a^ is the
coroot of a.  Left sides are exact gamma words, right sides exact prime-power
constants; verification is an exact lattice proof, a high-precision numeric
comparison, or both.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from operator import mul
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .exact import FactoredConstant, valuations
from .gammaword import GammaWord, brace_str
from .prover import Certificate, prove_constant
from .rootsys import SIMPLY_LACED_FAMILIES, RootSystem

if TYPE_CHECKING:
    from .numeric import PrecisionContext

F = "F"
F_PRIME = "Fprime"
F_SECOND = "Fsecond"
VARIANTS = (F, F_PRIME, F_SECOND)

MODES = ("exact", "numeric", "both")

PROVED_EXACT = "proved_exact"
NUMERIC_ONLY = "numeric_only"
MISMATCH = "mismatch"
NOT_IN_LATTICE = "not_in_lattice"


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}")


def _check_case(system: RootSystem, index: int, variant: str) -> None:
    _check_admissible(system, variant)
    # A bool is no index, though it is an int.
    if type(index) is not int or not 1 <= index <= system.rank:
        raise ValueError(f"index {index!r} is not an int in 1..{system.rank}")


def _check_admissible(system: RootSystem, variant: str) -> None:
    if not admissible(system, variant):
        raise ValueError(
            f"variant F applies only to simply laced systems (families A, D, E); "
            f"{system.ident} has two root lengths, use {F_PRIME} or {F_SECOND}"
        )


def admissible(system: RootSystem, variant: str) -> bool:
    """Whether the variant's hypotheses hold for the system."""
    return admissible_family(system.ident.family, variant)


def admissible_family(family: str, variant: str) -> bool:
    """Whether the variant's hypotheses hold for every system of the family."""
    _check_variant(variant)
    return variant != F or family in SIMPLY_LACED_FAMILIES


VariantTable = namedtuple("VariantTable", "grid arguments divisors rhs")


def k_root(system: RootSystem, variant: str) -> VariantTable:
    """What every simple root of one admissible (system, variant) shares.

    Named for k^(-1/h), or k''^(-1/h') for Fsecond, which every right side
    carries.  With p = 2(alpha_i|a), a word's factors are gamma(x/D)^(-2p/d):
    x/D is 4(a|rho)/4h (F), ht(a)/h (Fprime) or 4(a|rho)/4h' (Fsecond), and
    d is 4, 2(a|a) or 2(alpha_i|alpha_i).  The table holds the grid N = D /
    gcd(D, every x), zero exponents included, which every word of the
    variant lives on; each position's argument x on the 1/N grid, checked
    once to lie in (0, 1); per simple root its divisor d, None where d is
    the root's norm and the system has two root lengths; and per simple
    root its right side, node_i k^(-1/h), one object per distinct node
    value.  k^(-1/h) is prod_p p^(-S_p / W), with integer sums S_p = sum_j
    v_p(node_j) w_j and W = sum_j w_j, the weights w_j being n_j (F,
    Fprime; W = h) or 4n_j' = g_j n_j (Fsecond; W = 4h'), with g_j =
    2(alpha_j|alpha_j) the node norms.  A right side is one
    FactoredConstant.over on v_p(node_i) W and each -v_p(node_j) w_j over W.

    Every variant's node is node_j = n_j (g_j / 4)^e, e = 0, 1, 2 for F,
    Fprime, Fsecond: the mark, comark or double comark.  It is read as the
    integer pair (n_j g_j^e, 4^e), so 4h' is a sum of integer products and
    no node becomes a Fraction.

    The table is canonical: two variants' tables are equal exactly when
    every word and every right side of the two are equal.  A case reads
    nothing of its variant but the table, so equal tables give equal words
    and right sides.  On a simply laced system every root has 2(a|a) = 4 in
    the planche realization, so 4(a|rho) = 4 ht(a) and g_j = 4: the three
    variants share the arguments ht(a)/h, the divisor 4, written as the
    common norm for Fprime, and the nodes n_j 4^e / 4^e = n_j, whose sums
    S_p / W are the same fractions; their tables are one.  With two root
    lengths only Fprime and Fsecond are admissible, and their words lie on
    different grids: Fprime's is h, as ht(alpha_k) = 1, and Fsecond's is
    2h - 2 for B_n, h + 2 for C_n, 18 for F4 (h = 12) and 12 for G2 (h =
    6).  Fprime's None divisors tell the two tables apart as well.
    """
    _check_admissible(system, variant)
    numerators, denominator, weights = system.rho_pairings, 4 * system.coxeter_number, system.marks
    divisors = (4,) * system.rank
    if variant == F_PRIME:
        numerators, denominator = system.heights, system.coxeter_number
        divisors = (system.norms[0] if system.simply_laced else None,) * system.rank
    elif variant == F_SECOND:
        weights = tuple(map(mul, system.node_norms, system.marks))
        denominator, divisors = sum(weights), system.node_norms[1:]
    e = VARIANTS.index(variant)
    keys = [(mark * norm**e, 4**e) for norm, mark in zip(system.node_norms, system.marks)]
    if not 0 < min(numerators) <= max(numerators) < denominator:
        raise ValueError(f"{system.ident}: an argument x/{denominator} lies outside (0,1)")
    g = math.gcd(denominator, *numerators)
    powers = {key: valuations(*key) for key in set(keys)}
    total = sum(weights)
    k = [(p, -m * weight) for key, weight in zip(keys, weights) for p, m in powers[key]]
    node = {key: [(p, m * total) for p, m in powers[key]] for key in set(keys[1:])}
    rhs = {key: FactoredConstant.over(node[key] + k, total) for key in node}
    arguments = tuple(x // g for x in numerators)
    return VariantTable(denominator // g, arguments, divisors, tuple(rhs[key] for key in keys[1:]))


def _word(system: RootSystem, index: int, table: VariantTable) -> GammaWord:
    """alpha_index's word: only the roots in its pairing column carry exponents.

    Each root's exponent is added into one dict keyed on its argument as
    the column is walked; the word is its nonzero entries by argument.
    """
    i = index - 1
    grid, arguments, divisors, _ = table
    divisor, norms = divisors[i], system.norms
    exponents: dict = {}
    positions, pairings = system.pairing_columns[i]
    for position, pairing in zip(positions, pairings):
        exponent, rest = divmod(-2 * pairing, divisor or norms[position])
        if rest:
            raise ValueError(
                f"{system.ident}: pairing {-2 * pairing}/{divisor or norms[position]} "
                f"of alpha_{index} is not integral"
            )
        x = arguments[position]
        exponents[x] = exponents.get(x, 0) + exponent
    return GammaWord(grid, tuple(sorted((x, e) for x, e in exponents.items() if e)))


def lhs_word(system: RootSystem, index: int, variant: str) -> GammaWord:
    """The definitional product over positive roots, merged on its lcm grid.

    The grid is the lcm of every factor's reduced argument denominator,
    zero exponents included: that of k_root, built here.  No reflection
    folding is applied; the returned word is the product exactly as defined.
    """
    _check_case(system, index, variant)
    return _word(system, index, k_root(system, variant))


def rhs_constant(system: RootSystem, index: int, variant: str) -> FactoredConstant:
    """Closed form for one simple root: its node factor times k^(-1/h), from k_root.

    The case is always checked.  verify, which checks its case itself, reads
    the entry of the table it holds directly instead.
    """
    _check_case(system, index, variant)
    return k_root(system, variant).rhs[index - 1]


class VerificationReport(namedtuple("VerificationReport", (
    "ident index variant mode status lhs rhs certificate numeric_residual"
))):
    """Outcome of one (system, simple root, variant) check; certificate or residual may be None."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        """Exact and both modes demand a proof; numeric mode a passing residual."""
        if self.mode == "numeric":
            return self.status == NUMERIC_ONLY
        return self.status == PROVED_EXACT

    def text_line(self) -> str:
        extra = f" residual={self.numeric_residual}" if self.numeric_residual else ""
        return (
            f"{self.ident} alpha_{self.index} {self.variant}: {self.status} "
            f"{brace_str(self.lhs)} = {self.rhs}{extra}"
        )


def verify(
    system: RootSystem,
    index: int,
    variant: str,
    mode: str = "both",
    ctx: Optional[PrecisionContext] = None,
    k: Optional[VariantTable] = None,
    verdicts: Optional[dict] = None,
) -> VerificationReport:
    """Check one identity instance by exact proof, numeric comparison, or both.

    Numeric comparisons accept |ln lhs - ln rhs| <= 10^(10 - decimal_digits),
    as numeric.residual decides.
    In both mode the numeric route runs as a cross-check of an exact proof
    and as a fallback diagnostic when the word is outside the lattice; the
    report only counts as passed with a proof.  The case is checked once,
    here.  k, when given, must be k_root(system, variant), else it is built
    here; the word is one walk of the case's pairing column on it, the right
    side its entry.  The numeric route, and mpmath with it, is imported
    only when it runs, so exact mode loads neither.

    verdicts, when given, is a memo that verify_all owns for one run.  It
    maps (mode, ctx, lhs, rhs) to the report fields from status on, (status,
    lhs, rhs, certificate, residual), of the first case with that key.  A
    later case whose word and right side equal that entry's, built afresh
    here and compared by value, takes the whole entry: its verdict and its
    lhs, rhs and certificate objects, so the reports of one identity share
    one set of objects.  Mode and ctx are part of the key, so an entry never
    answers a case of another mode or precision.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    _check_case(system, index, variant)
    table = k if k is not None else k_root(system, variant)
    lhs = _word(system, index, table)
    rhs = table.rhs[index - 1]
    if verdicts is None:
        verdicts = {}
    entry = verdicts.get((mode, ctx, lhs, rhs))
    if entry is None:
        status, certificate, residual = _verdict(lhs, rhs, mode, ctx)
        entry = verdicts[mode, ctx, lhs, rhs] = (status, lhs, rhs, certificate, residual)
    return VerificationReport(system.ident, index, variant, mode, *entry)


def _verdict(
    lhs: GammaWord, rhs: FactoredConstant, mode: str, ctx: Optional[PrecisionContext]
) -> tuple[str, Optional[Certificate], Optional[str]]:
    """(status, certificate, residual) of the identity lhs = rhs in the given mode.

    The numeric route's verdict, the residual string and whether it lies
    within the bound, is numeric.residual's: this function only combines
    it with the proof.
    """
    certificate = None
    residual_str = None
    status = None
    if mode in ("exact", "both"):
        certificate = prove_constant(lhs)
        if certificate is None:
            status = NOT_IN_LATTICE
        else:
            status = PROVED_EXACT if certificate.derived_constant == rhs else MISMATCH
    if mode == "numeric" or (mode == "both" and status in (PROVED_EXACT, NOT_IN_LATTICE)):
        from .numeric import residual

        residual_str, numeric_ok = residual(lhs, rhs, ctx)
        if status in (None, NOT_IN_LATTICE):
            status = NUMERIC_ONLY if numeric_ok else MISMATCH
        elif not numeric_ok:
            status = MISMATCH
    return status, certificate, residual_str


class VerificationSummary(namedtuple("VerificationSummary", "reports")):
    """All reports of one run, a tuple ordered by (family, rank, index, variant)."""

    __slots__ = ()

    @property
    def counts(self) -> dict:
        return dict(sorted(Counter(r.status for r in self.reports).items()))

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_json_obj(self) -> dict:
        """The run's JSON: one dict per report, then the counts and the verdict.

        Each distinct lhs, rhs and certificate object becomes JSON once,
        memoized by id, and the report dicts that hold it share the result:
        on a verify_all run the cases of one identity share those objects
        (see verify), so a repeated identity adds no JSON of its own.
        """
        distinct = {id(p): p for r in self.reports for p in (r.lhs, r.rhs, r.certificate)}
        json_of = {key: None if p is None else p.to_json_obj() for key, p in distinct.items()}
        reports = [{
            "family": r.ident.family,
            "rank": r.ident.rank,
            "index": r.index,
            "variant": r.variant,
            "mode": r.mode,
            "status": r.status,
            "lhs_word": json_of[id(r.lhs)],
            "rhs_constant": json_of[id(r.rhs)],
            "certificate": json_of[id(r.certificate)],
            "numeric_residual": r.numeric_residual,
        } for r in self.reports]
        return {"reports": reports, "counts": self.counts, "passed": self.all_passed}


def verify_all(
    systems: Iterable[RootSystem],
    variants: Optional[Sequence[str]] = None,
    mode: str = "both",
    ctx: Optional[PrecisionContext] = None,
) -> VerificationSummary:
    """Every admissible (system, index, variant) combination, deterministically.

    k_root is built once per (system, variant), and the variants of a
    system are grouped by table, which is canonical (see k_root): each
    table's first variant has one verify call per index, and each other
    variant of that table, such as Fprime and Fsecond beside F on a simply
    laced system, takes that report with its variant replaced, sharing its
    lhs, rhs and certificate objects.  One verdicts memo serves the whole
    run (see verify): each distinct (lhs, rhs) pair is proved and evaluated
    once, and the cases that repeat it across tables, such as the roots a
    diagram symmetry exchanges, take its verdict.  systems is walked once
    and no system is kept, so a generator of builds, as cli passes, holds
    one system at a time.
    variants None means all three; an empty sequence selects none.  Raises
    ValueError on a variant listed twice, which would report its cases
    twice, and when no system admits any of the variants.
    """
    chosen = VARIANTS if variants is None else tuple(variants)
    for i, variant in enumerate(chosen):
        _check_variant(variant)
        if variant in chosen[:i]:
            raise ValueError(f"variant {variant!r} is listed twice")
    verdicts: dict = {}
    reports = []
    for system in systems:
        tables: dict = {}
        for variant in chosen:
            if admissible(system, variant):
                tables.setdefault(k_root(system, variant), []).append(variant)
        for table, (first, *twins) in tables.items():
            for index in range(1, system.rank + 1):
                report = verify(system, index, first, mode, ctx, table, verdicts)
                reports += [report, *(report._replace(variant=v) for v in twins)]
    if not reports:
        raise ValueError("nothing to verify: no system admits any of the variants")
    reports.sort(key=lambda r: (r.ident, r.index, VARIANTS.index(r.variant)))
    return VerificationSummary(tuple(reports))
