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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

from .exact import FactoredConstant, const_ln, const_mul, const_pow, power_factors
from .gammaword import GammaWord, brace_str, word_from_terms
from .prover import Certificate, prove_constant
from .rootsys import SIMPLY_LACED_FAMILIES, RootSystem, RootSystemId

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
    _check_variant(variant)
    if not 1 <= index <= system.rank:
        raise ValueError(f"index {index} outside 1..{system.rank}")
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


def lhs_word(system: RootSystem, index: int, variant: str) -> GammaWord:
    """The definitional product over positive roots, merged on its lcm grid.

    Read off the system's integer tables: with p = 2(alpha_i|a), the
    exponents are -p/2 (F), -2p / 2(a|a) (Fprime) and -2p / 2(alpha_i|alpha_i)
    (Fsecond), and the arguments are 4(a|rho) / 4h, ht(a) / h and
    4(a|rho) / 4h'.  Only the roots that pair with alpha_i carry a nonzero
    exponent, so only pairing_columns[i] is read.  The grid is the
    lcm of every factor's reduced argument denominator, zero exponents
    included; every argument numerator is a nonnegative integer combination
    of the simple roots' (ht(alpha_k) = 1, 4(alpha_k|rho) = G_kk), so the
    simple roots enter as zero-exponent factors and fix the same grid.  No
    reflection folding is applied; the returned word is the product exactly
    as defined.
    """
    _check_case(system, index, variant)
    i = index - 1
    norms = None
    if variant == F_PRIME:
        numerators, denominator, norms = system.heights, system.coxeter_number, system.norms
        simple_arguments = {1}
    else:
        numerators = system.rho_pairings
        simple_arguments = {row[k] for k, row in enumerate(system.gram)}
        if variant == F:
            denominator, divisor = 4 * system.coxeter_number, 4
        else:
            denominator, divisor = int(4 * system.comark_sum), system.gram[i][i]
    terms = [(x, 0) for x in simple_arguments]
    positions, pairings = system.pairing_columns[i]
    for position, pairing in zip(positions, pairings):
        if norms is not None:
            divisor = norms[position]
        exponent, rest = divmod(-2 * pairing, divisor)
        if rest:
            raise ValueError(
                f"{system.ident}: pairing {-2 * pairing}/{divisor} of alpha_{index} is not integral"
            )
        terms.append((numerators[position], exponent))
    return word_from_terms(terms, denominator)


def k_constant(system: RootSystem, variant: str) -> FactoredConstant:
    """The product over all nodes 0..r entering the closed-form right side."""
    _check_variant(variant)
    if variant == F:
        pairs = zip(system.marks, system.marks)
    elif variant == F_PRIME:
        pairs = zip(system.comarks, system.marks)
    else:
        pairs = zip(system.double_comarks, system.comarks)
    return FactoredConstant(tuple(f for base, e in pairs for f in power_factors(base, e)))


def k_root(system: RootSystem, variant: str) -> FactoredConstant:
    """k^(-1/h) (F, Fprime) or k''^(-1/h') (Fsecond): the factor every simple root shares."""
    grid = system.comark_sum if variant == F_SECOND else system.coxeter_number
    return const_pow(k_constant(system, variant), -1 / Q(grid))


def rhs_constant(
    system: RootSystem, index: int, variant: str, k: Optional[FactoredConstant] = None
) -> FactoredConstant:
    """Closed form for one simple root: its node factor times k_root.

    Without k the case is checked and k_root computed here.  k, when given,
    must be k_root(system, variant) of a case the caller has checked:
    verify_all computes it once per (system, variant), and verify passes it
    on after lhs_word has checked the case.
    """
    if k is None:
        _check_case(system, index, variant)
        k = k_root(system, variant)
    if variant == F:
        node = system.marks[index]
    elif variant == F_PRIME:
        node = system.comarks[index]
    else:
        node = system.double_comarks[index]
    return FactoredConstant((*power_factors(node), *k.prime_powers))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one (system, simple root, variant) check."""

    ident: RootSystemId
    index: int
    variant: str
    mode: str
    status: str
    lhs: GammaWord
    rhs: FactoredConstant
    certificate: Optional[Certificate]
    numeric_residual: Optional[str]

    @property
    def passed(self) -> bool:
        """Exact and both modes demand a proof; numeric mode a passing residual."""
        if self.mode == "numeric":
            return self.status == NUMERIC_ONLY
        return self.status == PROVED_EXACT

    def to_json_obj(self) -> dict:
        return {
            "family": self.ident.family,
            "rank": self.ident.rank,
            "index": self.index,
            "variant": self.variant,
            "mode": self.mode,
            "status": self.status,
            "lhs_word": self.lhs.to_json_obj(),
            "rhs_constant": self.rhs.to_json_obj(),
            "certificate": None if self.certificate is None else self.certificate.to_json_obj(),
            "numeric_residual": self.numeric_residual,
        }

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
    k: Optional[FactoredConstant] = None,
    verdicts: Optional[dict] = None,
) -> VerificationReport:
    """Check one identity instance by exact proof, numeric comparison, or both.

    Numeric comparisons accept |ln lhs - ln rhs| <= 10^(10 - decimal_digits).
    In both mode the numeric route runs as a cross-check of an exact proof
    and as a fallback diagnostic when the word is outside the lattice; the
    report only counts as passed with a proof.  The case is checked once,
    by lhs_word.  k, when given, must be k_root(system, variant); it is
    passed on to rhs_constant.  The numeric route, and mpmath with it, is
    imported only when it runs, so exact mode loads neither.

    verdicts, when given, maps (lhs, rhs) to the (status, certificate,
    residual) of an earlier case of the same run, which verify_all owns: a
    case whose word and right side equal an earlier one's, built afresh
    here and compared by value, takes that verdict instead of proving and
    evaluating again.  Every entry must come from the same mode and ctx.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    lhs = lhs_word(system, index, variant)
    rhs = rhs_constant(system, index, variant, k if k is not None else k_root(system, variant))
    if verdicts is None:
        verdicts = {}
    verdict = verdicts.get((lhs, rhs))
    if verdict is None:
        verdict = verdicts[lhs, rhs] = _verdict(lhs, rhs, mode, ctx)
    status, certificate, residual = verdict
    return VerificationReport(
        system.ident, index, variant, mode, status, lhs, rhs, certificate, residual
    )


def _verdict(
    lhs: GammaWord, rhs: FactoredConstant, mode: str, ctx: Optional[PrecisionContext]
) -> tuple[str, Optional[Certificate], Optional[str]]:
    """(status, certificate, residual) of the identity lhs = rhs in the given mode."""
    certificate = None
    residual_str = None
    status = None
    if mode in ("exact", "both"):
        certificate = prove_constant(lhs)
        if certificate is None:
            status = NOT_IN_LATTICE
        else:
            proven = const_mul(lhs.coeff, certificate.derived_constant)
            status = PROVED_EXACT if proven == rhs else MISMATCH
    if mode == "numeric" or (mode == "both" and status in (PROVED_EXACT, NOT_IN_LATTICE)):
        import mpmath

        from .numeric import PrecisionContext, eval_word_ln

        ctx = ctx or PrecisionContext.for_digits()
        residual = abs(eval_word_ln(lhs, ctx) - const_ln(rhs, ctx.decimal_digits))
        residual_str = mpmath.nstr(residual, 6)
        numeric_ok = residual <= ctx.residual_bound
        if status in (None, NOT_IN_LATTICE):
            status = NUMERIC_ONLY if numeric_ok else MISMATCH
        elif not numeric_ok:
            status = MISMATCH
    return status, certificate, residual_str


@dataclass(frozen=True)
class VerificationSummary:
    """All reports of one run, ordered by (family, rank, index, variant)."""

    reports: Tuple[VerificationReport, ...]

    @property
    def counts(self) -> dict:
        return dict(sorted(Counter(r.status for r in self.reports).items()))

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_json_obj(self) -> dict:
        return {
            "reports": [r.to_json_obj() for r in self.reports],
            "counts": self.counts,
            "passed": self.all_passed,
        }


def verify_all(
    systems: Iterable[RootSystem],
    variants: Optional[Sequence[str]] = None,
    mode: str = "both",
    ctx: Optional[PrecisionContext] = None,
) -> VerificationSummary:
    """Every admissible (system, index, variant) combination, deterministically.

    One verdicts memo serves the whole run (see verify): each distinct
    (lhs, rhs) pair is proved and evaluated once, and the cases that repeat
    it, such as the variants that coincide on simply laced systems and the
    roots a diagram symmetry exchanges, take its verdict.  Every case still
    builds its own word and right side, and gets its own verify call.
    """
    chosen = tuple(variants) if variants else VARIANTS
    for variant in chosen:
        _check_variant(variant)
    verdicts: dict = {}
    reports = []
    for system in systems:
        for variant in chosen:
            if not admissible(system, variant):
                continue
            k = k_root(system, variant)
            for index in range(1, system.rank + 1):
                reports.append(verify(system, index, variant, mode, ctx, k, verdicts))
    reports.sort(key=lambda r: (r.ident, r.index, VARIANTS.index(r.variant)))
    return VerificationSummary(tuple(reports))
