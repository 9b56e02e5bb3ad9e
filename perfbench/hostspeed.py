"""Host speed sampling, so that timings can be put on a common scale.

The benchmark runs on a few cores of a shared host whose speed swings by up
to a factor of two within seconds and drifts over minutes; CPU time follows
wall time, so neither can tell the program's cost from the host's state.  A
timed child therefore runs a small fixed piece of pure-Python work, UNIT,
from a SIGALRM handler every INTERVAL_S seconds of its whole life.  Each
sample is one (start_ns, end_ns) pair on time.monotonic_ns.

The samples give the host's speed, relative to the speed at which UNIT
takes NOMINAL_UNIT_NS: speed(marks) is the mean of NOMINAL_UNIT_NS /
duration, sampled uniformly in wall time, and so the share of nominal work
the host got done per second.  busy_s(marks, a, b) is the wall time from a
to b without the samples, times the speed of the samples taken in it: the
seconds the interval would have taken on a host of nominal speed.

NOMINAL_UNIT_NS is the median UNIT time on a 2-vCPU Intel Xeon guest with
CPython 3; it only sets the scale, and stays fixed so that figures stay
comparable across versions of the program.
"""

from __future__ import annotations

import contextlib
import signal
import time
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

INTERVAL_S = 0.02
NOMINAL_UNIT_NS = 436_000

Mark = Tuple[int, int]


def unit() -> Fraction:
    """The fixed work of one sample: small Fraction sums and dict updates, ~0.4 ms."""
    total = Fraction(0)
    counts = {}
    for i in range(1, 120):
        total += Fraction(1, i % 13 + 1)
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i * i
    return total


class Sampler:
    """Runs unit() from a SIGALRM handler every INTERVAL_S and keeps its marks."""

    def __init__(self) -> None:
        self.marks: List[Mark] = []

    def _tick(self, *_) -> None:
        start = time.monotonic_ns()
        unit()
        self.marks.append((start, time.monotonic_ns()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


@contextlib.contextmanager
def held() -> Iterator[None]:
    """Holds SIGALRM back while the block runs; a pending sample runs after it.

    Pipe I/O goes in such a block: a large write to a pipe that a sample
    interrupts can lose the part of the data not yet written.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def speed(marks: Sequence[Mark]) -> float:
    """Mean host speed over the samples, 1.0 at nominal; 1.0 without samples."""
    if not marks:
        return 1.0
    return sum(NOMINAL_UNIT_NS / (end - start) for start, end in marks) / len(marks)


def sampled_ns(marks: Sequence[Mark], a: int, b: int) -> int:
    """Time spent in samples between a and b."""
    return sum(max(0, min(end, b) - max(start, a)) for start, end in marks)


def busy_s(marks: Sequence[Mark], a: int, b: int) -> float:
    """Seconds from a to b without the samples, scaled to nominal host speed.

    The speed is that of the samples taken from a to b, or of all of them
    if none was.
    """
    inside = [m for m in marks if a <= m[0] < b]
    return (b - a - sampled_ns(marks, a, b)) * speed(inside or marks) / 1e9
