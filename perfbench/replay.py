"""Independent correctness checks and input generation for the benchmark.

Nothing here imports gammaroots.  The relation formulas, the prime
factorisation and the constant arithmetic are written out again so that a
certificate is checked against tables that share no state with the prover:

  reflection(j)        gamma(j/N) gamma((N-j)/N) = 1,          1 <= j < N/2
  half                 gamma(1/2) = 1,                          N even
  multiplication(d,k)  prod_{i<d} gamma((k + iN/d)/N) / gamma(dk/N) = d^(1 - 2dk/N),
                       d >= 2 divides N, 1 <= k < N/d

Constants are dicts {prime: Fraction exponent} with zero exponents dropped.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction as Q
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Constant = Dict[object, Q]
Vector = Dict[int, int]

# Systems of the sweep: the CLI defaults, infinite families stopped at rank 12.
SWEEP_RANKS = {
    "A": range(1, 13),
    "B": range(2, 13),
    "C": range(2, 13),
    "D": range(3, 13),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}
# Verify runs of the child driver: name -> (families, mode, digits).  The
# parity run is the selection compared byte for byte with the CLI.
VERIFY_RUNS = {
    "sweep": (tuple(SWEEP_RANKS), "both", 60),
    "crosscheck": (("E", "F", "G"), "numeric", 800),
    "parity": (("G", "F"), "both", 60),
}
SIMPLY_LACED = ("A", "D", "E")
VARIANTS = ("F", "Fprime", "Fsecond")

LATTICE_GRIDS = range(2, 97)
LATTICE_WORDS_PER_GRID = 8
LATTICE_RELATIONS_PER_WORD = 6
LATTICE_COEFFS = (-3, -2, -1, 1, 2, 3)


def factorize(n: int) -> Dict[int, int]:
    """Prime factorisation of a positive integer by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def power(base: int, exponent: Q) -> Constant:
    return {p: m * exponent for p, m in factorize(base).items() if exponent}


def times(a: Constant, b: Constant, scale: Q = Q(1)) -> Constant:
    """a * b^scale."""
    out = dict(a)
    for p, e in b.items():
        out[p] = out.get(p, Q(0)) + e * scale
    return {p: e for p, e in out.items() if e}


def parse_constant(entries: Sequence[dict]) -> Constant:
    """A serialized FactoredConstant: base/exponent entries, 'pi' allowed as a base."""
    out: Constant = {}
    for entry in entries:
        e = Q(int(entry["exponent_numerator"]), int(entry["exponent_denominator"]))
        out[entry["base"]] = out.get(entry["base"], Q(0)) + e
    return {p: e for p, e in out.items() if e}


_TAG = re.compile(r"^(?:reflection\((\d+)\)|half|multiplication\((\d+),(\d+)\))$")


def relation(tag: str, n: int) -> Tuple[Vector, Constant]:
    """The vector and value of a relation tag on the 1/N grid; raises if the tag is not one."""
    m = _TAG.match(tag)
    if m is None:
        raise ValueError(f"unknown relation tag {tag!r}")
    if tag == "half":
        if n % 2:
            raise ValueError(f"half needs an even grid, got {n}")
        return {n // 2: 1}, {}
    if m.group(1) is not None:
        j = int(m.group(1))
        if not 1 <= j < n - j:
            raise ValueError(f"{tag} is not a reflection on the 1/{n} grid")
        return {j: 1, n - j: 1}, {}
    d, k = int(m.group(2)), int(m.group(3))
    if d < 2 or n % d or not 1 <= k < n // d:
        raise ValueError(f"{tag} is not a multiplication relation on the 1/{n} grid")
    vector: Vector = {}
    for i in range(d):
        j = k + i * (n // d)
        vector[j] = vector.get(j, 0) + 1
    vector[d * k] = vector.get(d * k, 0) - 1
    return {j: e for j, e in vector.items() if e}, power(d, 1 - Q(2 * d * k, n))


def relation_tags(n: int) -> List[str]:
    """Every relation tag on the 1/N grid."""
    tags = [f"reflection({j})" for j in range(1, (n + 1) // 2)]
    if n % 2 == 0:
        tags.append("half")
    for d in range(2, n + 1):
        if n % d == 0:
            tags.extend(f"multiplication({d},{k})" for k in range(1, n // d))
    return tags


def replay(n: int, terms: Vector, relations: Iterable[Tuple[str, Q]]) -> Optional[Constant]:
    """The constant a certificate derives, or None when its sum of c*v is not the word's vector."""
    total: Dict[int, Q] = {}
    value: Constant = {}
    for tag, c in relations:
        vector, rel_value = relation(tag, n)
        for j, e in vector.items():
            total[j] = total.get(j, Q(0)) + c * e
        value = times(value, rel_value, c)
    if {j: e for j, e in total.items() if e} != {j: Q(e) for j, e in terms.items() if e}:
        return None
    return value


def _certificate_relations(cert: dict) -> List[Tuple[str, Q]]:
    return [(r["tag"], Q(r["coefficient"])) for r in cert["relations"]]


def check_certificate(n: int, terms: Vector, cert: dict) -> Optional[Constant]:
    """Replay a serialized certificate; its derived constant if the replay agrees, else None."""
    try:
        derived = replay(n, terms, _certificate_relations(cert))
    except (ValueError, KeyError, ZeroDivisionError):
        return None
    if derived is None or derived != parse_constant(cert["derived_constant"]):
        return None
    return derived


def residual_log10(text: str) -> float:
    """log10 of an mpmath.nstr residual such as '2.01e-808', without underflow; -inf for 0."""
    mantissa, _, exponent = text.lower().partition("e")
    m = abs(float(mantissa))
    if m == 0.0:
        return -math.inf
    return math.log10(m) + (int(exponent) if exponent else 0)


def expected_cases(families: Sequence[str]) -> List[Tuple[str, int, int, str]]:
    """Every admissible (family, rank, simple root, variant) of the chosen families."""
    out = []
    for family in families:
        for rank in SWEEP_RANKS[family]:
            for variant in VARIANTS:
                if variant == "F" and family not in SIMPLY_LACED:
                    continue
                out.extend((family, rank, i, variant) for i in range(1, rank + 1))
    return out


class Tally:
    """Outcome counts of the checks, plus the deterministic proof-size figures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.cert_terms = 0
        self.cert_coeff_bits_max = 0
        self.residual_log10_max = -math.inf
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def count_certificate(self, cert: dict) -> None:
        for _, c in _certificate_relations(cert):
            self.cert_terms += 1
            bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            self.cert_coeff_bits_max = max(self.cert_coeff_bits_max, bits)


def _terms(word: dict) -> Vector:
    return {int(t["j"]): int(t["exponent"]) for t in word["terms"]}


def check_verify_report(payload: dict, families: Sequence[str], mode: str, digits: int,
                        tally: Tally) -> None:
    """Check a canonical verify report: every expected case present once and proved as claimed."""
    expected = set(expected_cases(families))
    seen = set()
    want = "numeric_only" if mode == "numeric" else "proved_exact"
    limit = 10 - digits
    for report in payload.get("reports", []):
        key = (report["family"], report["rank"], report["index"], report["variant"])
        tally.attempted += 1
        if key not in expected or key in seen:
            tally.fail(f"unexpected case {key}")
            continue
        seen.add(key)
        if report["status"] != want or report["mode"] != mode:
            tally.fail(f"{key}: status {report['status']}, mode {report['mode']}")
            continue
        if mode != "exact":
            if report["numeric_residual"] is None:
                tally.fail(f"{key}: no numeric residual")
                continue
            residual = residual_log10(report["numeric_residual"])
            tally.residual_log10_max = max(tally.residual_log10_max, residual)
            if residual > limit:
                tally.fail(f"{key}: residual {report['numeric_residual']} above 1e{limit}")
                continue
        if mode == "numeric":
            continue
        cert = report["certificate"]
        word = report["lhs_word"]
        derived = check_certificate(int(word["N"]), _terms(word), cert) if cert else None
        if derived is None:
            tally.fail(f"{key}: certificate does not replay")
            continue
        tally.count_certificate(cert)
        if times(parse_constant(word["coeff"]), derived) != parse_constant(report["rhs_constant"]):
            tally.fail(f"{key}: coeff * derived constant differs from the right side")
    missing = expected - seen
    tally.attempted += len(missing)
    for key in sorted(missing):
        tally.fail(f"missing case {key}")


def lattice_words(seed: int) -> List[dict]:
    """Random gamma words on N = 2..96 with the constant each was built from.

    Per grid, half the words are integer combinations of random relations
    (in the span, expected constant recorded); the other half add
    e_1 - e_(N-1), which leaves the span for every N >= 3.  On N = 2 that
    vector is zero, so all eight words there stay in the span.
    """
    rng = random.Random(seed)
    words = []
    for n in LATTICE_GRIDS:
        tags = relation_tags(n)
        for _ in range(LATTICE_WORDS_PER_GRID // 2):
            vector: Dict[int, int] = {}
            constant: Constant = {}
            for _ in range(LATTICE_RELATIONS_PER_WORD):
                c = rng.choice(LATTICE_COEFFS)
                rel_vector, rel_value = relation(rng.choice(tags), n)
                for j, e in rel_vector.items():
                    vector[j] = vector.get(j, 0) + c * e
                constant = times(constant, rel_value, Q(c))
            shifted = dict(vector)
            shifted[1] = shifted.get(1, 0) + 1
            shifted[n - 1] = shifted.get(n - 1, 0) - 1
            for v, in_span in ((vector, True), (shifted, n == 2)):
                words.append({
                    "N": n,
                    "terms": sorted((j, e) for j, e in v.items() if e),
                    "constant": constant if in_span else None,
                })
    rng.shuffle(words)
    return words


def check_lattice(words: Sequence[dict], certificates: Sequence[Optional[dict]],
                  tally: Tally) -> None:
    """In-span words must prove to their own constant, out-of-span words must return None."""
    if len(certificates) != len(words):
        tally.attempted += len(words)
        tally.failed += len(words)
        tally.errors.append(f"{len(certificates)} results for {len(words)} words")
        return
    for i, (word, cert) in enumerate(zip(words, certificates)):
        tally.attempted += 1
        expected = word["constant"]
        if expected is None:
            if cert is not None:
                tally.fail(f"word {i} (N={word['N']}) is outside the span but got a certificate")
            continue
        derived = check_certificate(word["N"], dict(word["terms"]), cert) if cert else None
        if derived is None:
            tally.fail(f"word {i} (N={word['N']}): no certificate that replays")
        elif derived != expected:
            tally.fail(f"word {i} (N={word['N']}): derived constant differs from the built one")
        else:
            tally.count_certificate(cert)
