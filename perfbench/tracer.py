"""Span recording around the program's public functions, and span arithmetic.

A traced child patches module attributes of gammaroots from outside: every
module attribute (or class attribute) that is one of the target functions is
replaced by a wrapper that records a span.  The program's source is not
edited.  Spans stay in memory as (name, start_ns, end_ns, parent, case),
parent being the index of the enclosing span or -1, and are written out
when the child ends; the parent process turns them into per-layer figures
with layer_totals.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

# Span name -> (module, attribute path) of the function it wraps.
TARGETS = {
    "rootsys.build": ("gammaroots.rootsys", "build"),
    "rootsys.generate_positive_roots": ("gammaroots.rootsys", "generate_positive_roots"),
    "rootsys.highest_root": ("gammaroots.rootsys", "highest_root"),
    "rootsys.weyl_vectors": ("gammaroots.rootsys", "weyl_vectors"),
    "fateev.verify": ("gammaroots.fateev", "verify"),
    "fateev.lhs_word": ("gammaroots.fateev", "lhs_word"),
    "gammaword.word_from_terms": ("gammaroots.gammaword", "word_from_terms"),
    "fateev.rhs_constant": ("gammaroots.fateev", "rhs_constant"),
    "prover.prove_constant": ("gammaroots.prover", "prove_constant"),
    "prover.relations_for": ("gammaroots.prover", "relations_for"),
    "linalg.PreparedSolver.prep": ("gammaroots.linalg", "PreparedSolver.__init__"),
    "linalg.PreparedSolver.solve": ("gammaroots.linalg", "PreparedSolver.solve"),
    "exact.const_mul": ("gammaroots.exact", "const_mul"),
    "exact.const_pow": ("gammaroots.exact", "const_pow"),
    "exact.factor_power": ("gammaroots.exact", "factor_power"),
    "exact.const_ln": ("gammaroots.exact", "const_ln"),
    "numeric.PrecisionContext.for_digits": ("gammaroots.numeric", "PrecisionContext.for_digits"),
    "numeric.eval_word_ln": ("gammaroots.numeric", "eval_word_ln"),
    "numeric.ln_gamma": ("gammaroots.numeric", "ln_gamma"),
    "cli.dumps_canonical": ("gammaroots.cli", "dumps_canonical"),
}


def case_span(workload: str) -> str:
    """The span that makes one case: a prove_constant call on lattice, a verify call elsewhere."""
    return "prover.prove_constant" if workload == "lattice" else "fateev.verify"


class Tracer:
    """Records one span per call of each wrapped function.

    A span opened while no case is open, under the name case_span, starts a
    new case; every span nested in it carries that case's id.  Other spans
    carry case -1.  notes[name] collects note(args, result) per call.
    """

    def __init__(self, case_span: str):
        self.case_span = case_span
        self.spans: List[tuple] = []
        self.notes: Dict[str, List[int]] = {}
        self._stack: List[tuple] = []
        self._cases = 0

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        notes = self.notes.setdefault(name, []) if note is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, case = stack[-1] if stack else (-1, -1)
            if case < 0 and name == self.case_span:
                case = self._cases
                self._cases += 1
            index = len(spans)
            spans.append(None)
            stack.append((index, case))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # A tuple of atoms drops out of the collector's tracking, so a
                # long span list does not slow the program's garbage collections.
                spans[index] = (name, start, clock(), parent, case)
                stack.pop()
            if note is not None:
                notes.append(note(args, result))
            return result

        return traced

    def install(self, notes: Dict[str, Callable]) -> None:
        """Wrap every target wherever a loaded gammaroots module or class holds it.

        Targets in modules the workload never imported stay unwrapped.
        """
        modules = [m for n, m in sys.modules.items() if n.startswith("gammaroots") and m]
        for name, (module_name, path) in TARGETS.items():
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, notes.get(name))))
                continue
            wrapped = self.wrap(name, raw, notes.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)


def layer_totals(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it and do not overlap.  Inclusive time
    counts a span only when no ancestor has the same name, so recursion is
    not counted twice.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start - child_ns[i]) / 1e9
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["s"] += (end - start) / 1e9
    return out


def root_seconds(spans: Sequence[Sequence]) -> float:
    """Time covered by spans without a parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0) / 1e9


def case_durations_ms(spans: Sequence[Sequence], case_span: str) -> List[float]:
    """Duration of every case: the outermost span of the case name."""
    return [
        (end - start) / 1e6
        for name, start, end, parent, case in spans
        if name == case_span and (parent < 0 or spans[parent][4] != case)
    ]


def tail_percentile(n: int) -> int:
    """The highest whole percentile p (50..99) with at least ten of n samples beyond it.

    The p-th percentile is the nearest-rank sample at position ceil(p n / 100),
    so n - ceil(p n / 100) samples lie beyond it.
    """
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    raise ValueError(f"{n} samples leave fewer than ten beyond the median")


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]
