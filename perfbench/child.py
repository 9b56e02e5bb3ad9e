"""One timed run of one workload, in a fresh interpreter started by run.py.

Usage: python3 perfbench/child.py {sweep,lattice,crosscheck,parity} [--trace]

sweep, crosscheck and parity make the calls cli.cmd_verify makes, in its
order: PrecisionContext.for_digits, rootsys.build per system,
fateev.verify_all, cli.dumps_canonical.  lattice reads [N, terms] pairs as
JSON on stdin, builds GammaWords and runs prover.prove_constant on each.

Stdout carries three lines: the program's output, the recorded spans (an
empty list unless --trace), and a header with the timestamps
(time.monotonic_ns, which is CLOCK_MONOTONIC and so shared with the
parent), the counts, the peak memory and the host speed samples of
hostspeed.Sampler.
"""

from __future__ import annotations

import json
import sys
import time

from hostspeed import Sampler, held
from replay import SWEEP_RANKS, VERIFY_RUNS


def _tracer(workload: str):
    from tracer import Tracer, case_span

    tracer = Tracer(case_span(workload))
    tracer.install({
        "linalg.PreparedSolver.prep": lambda args, _: len(args[1][0]) + 1,
        "prover.prove_constant": lambda _, result: result is not None,
        "numeric.eval_word_ln": lambda args, _: 2 * len(args[0].exponents),
    })
    return tracer


def _verify(workload: str):
    from gammaroots import cli, fateev, rootsys
    from gammaroots.numeric import PrecisionContext

    families, mode, digits = VERIFY_RUNS[workload]
    tracer = _tracer(workload) if "--trace" in sys.argv else None
    ctx = PrecisionContext.for_digits(digits)
    systems = []
    for family in families:
        for rank in SWEEP_RANKS[family]:
            systems.append(rootsys.build(rootsys.RootSystemId(family, rank)))
    setup_done = time.monotonic_ns()
    summary = fateev.verify_all(systems, fateev.VARIANTS, mode, ctx)
    cases_done = time.monotonic_ns()
    payload = summary.to_json_obj()
    payload["mode"] = mode
    payload["digits"] = digits
    text = cli.dumps_canonical(payload)
    header = {
        "setup_done": setup_done,
        "cases_done": cases_done,
        "cases": len(summary.reports),
        "positive_roots": sum(len(s.positive_roots) for s in systems),
    }
    return header, text, tracer


def _lattice():
    from gammaroots import prover
    from gammaroots.gammaword import GammaWord

    tracer = _tracer("lattice") if "--trace" in sys.argv else None
    with held():
        pairs = json.load(sys.stdin)
    words = [GammaWord(n, tuple((j, e) for j, e in terms)) for n, terms in pairs]
    prove_constant = prover.prove_constant
    setup_done = time.monotonic_ns()
    certificates = [prove_constant(w) for w in words]
    cases_done = time.monotonic_ns()
    text = json.dumps([None if c is None else c.to_json_obj() for c in certificates],
                      separators=(",", ":"))
    header = {"setup_done": setup_done, "cases_done": cases_done, "cases": len(words),
              "positive_roots": 0}
    return header, text, tracer


def _peak_rss_kb() -> int:
    """High-water resident set size of this process's own address space.

    Not ru_maxrss: at exec the kernel carries the high-water mark of the
    address space being replaced, the parent's when spawned through vfork,
    into ru_maxrss, so it would also count the parent's memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    workload = sys.argv[1]
    # The host's speed is sampled until the output goes out: see hostspeed.held.
    sampler = Sampler()
    sampler.start()
    header, text, tracer = _lattice() if workload == "lattice" else _verify(workload)
    sampler.stop()
    header["marks"] = sampler.marks
    out = sys.stdout
    out.write(text + "\n")
    out.write(json.dumps([] if tracer is None else tracer.spans, separators=(",", ":")) + "\n")
    if tracer is not None:
        header["notes"] = tracer.notes
    header["peak_rss_kb"] = _peak_rss_kb()
    out.write(json.dumps(header) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
