"""gammaroots benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):
  sweep       gammaroots verify with its defaults: 842 cases, mode both, 60 digits
  lattice     prover.prove_constant on 760 seeded words over N = 2..96
  crosscheck  gammaroots verify --mode numeric --digits 800 on E, F and G: 75 cases
  all         the three in turn

Each workload runs in fresh child processes, one at a time, until --seconds
have passed and at least MIN_CHILDREN children have run; metrics are
medians over the children, and their times are scaled to a nominal host
speed measured while each child runs (hostspeed.py).  With --trace 1,
untraced and traced children alternate and the per-layer metrics come from
the traced ones.  Every child's output is checked independently
(replay.py) after it exits, and a parity check against the CLI runs once
per invocation.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.  The exit code is 1 if any check failed and 2
if the checkout has no program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import replay
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sweep", "lattice", "crosscheck")
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150

# Every traced layer reports <layer>.calls, <layer>.s and <layer>.self_s.
SPAN_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
# The other per-layer metrics.
LAYER_UNITS = {
    "rootsys.positive_roots": "count", "linalg.prep.max_n": "count",
    "prover.in_span_ratio": "ratio", "numeric.ln_gamma.hit_ratio": "ratio",
    "case.n": "count", "case.p50_ms": "ms", "case.tail_pct": "%", "case.tail_ms": "ms",
    "traced_total_s": "s", "untraced_s": "s", "tracing_overhead_s": "s",
    "wall_total_s": "s", "host_speed": "ratio",
    "prover.cert_terms": "count", "prover.cert_coeff_bits_max": "bits",
    "numeric.residual_log10_max": "log10",
}
LAYER_UNITS.update({f"{layer}.{field}": unit
                    for layer in tracer.TARGETS for field, unit in SPAN_UNITS.items()})

E2E_UNITS = {"total_s": "s", "setup_s": "s", "cases_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed beside the end-to-end metrics but kept out of the JSON line: zero
# on a correct run, or deterministic and defined on some workloads only.
QUALITY_UNITS = {"failed_frac": "ratio", "residual_log10_max": "log10",
                 "cert_terms": "count", "cert_coeff_bits_max": "bits"}


class Child:
    """One finished child process: its timings, output and spans.

    total_s, setup_s and cases_per_s are on the nominal host speed scale of
    hostspeed; wall_total_s is the raw wall time from spawn to exit.
    """

    def __init__(self, workload: str, trace: bool, stdin: bytes = b""):
        cmd = [sys.executable, str(HERE / "child.py"), workload] + (["--trace"] if trace else [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        spawned = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL)
        try:
            out, _ = proc.communicate(stdin or None, timeout=CHILD_TIMEOUT_S)
        except BaseException:  # a timeout, or SIGTERM turned into SystemExit by main
            proc.kill()
            proc.communicate()
            raise
        exited = time.monotonic_ns()
        lines = out.decode().split("\n")
        if proc.returncode != 0 or len(lines) < 3:
            raise RuntimeError(f"{workload} child exited with {proc.returncode}")
        self.text = lines[0]
        self.spans = json.loads(lines[1])
        header = json.loads(lines[2])
        self.notes = header.get("notes", {})
        self.cases = header["cases"]
        self.positive_roots = header["positive_roots"]
        marks = header["marks"]
        setup_done, cases_done = header["setup_done"], header["cases_done"]
        self.host_speed = hostspeed.speed(marks)
        self.wall_total_s = (exited - spawned) / 1e9
        self.total_s = hostspeed.busy_s(marks, spawned, exited)
        self.setup_s = hostspeed.busy_s(marks, spawned, setup_done)
        self.cases_per_s = self.cases / hostspeed.busy_s(marks, setup_done, cases_done)
        self.peak_rss_mb = header["peak_rss_kb"] / 1024


def canonical_without_wall_time(text: str) -> str:
    """The report re-serialized canonically, with wall_time_ms dropped where present."""
    payload = json.loads(text)
    for report in payload.get("reports", []):
        report.pop("wall_time_ms", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def is_canonical(text: str) -> bool:
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) == text


def parity_check(tally: replay.Tally) -> None:
    """The child driver must print what `gammaroots verify --format json` prints."""
    tally.attempted += 1
    families, mode, digits = replay.VERIFY_RUNS["parity"]
    cli = subprocess.run(
        [sys.executable, "-m", "gammaroots.cli", "verify", "--format", "json"]
        + [arg for f in families for arg in ("--family", f)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    ours = Child("parity", trace=False).text
    theirs = cli.stdout.decode().rstrip("\n")
    if cli.returncode != 0 or not (is_canonical(ours) and is_canonical(theirs)):
        tally.fail(f"parity: CLI exit {cli.returncode}, or a report is not canonical")
    elif canonical_without_wall_time(ours) != canonical_without_wall_time(theirs):
        tally.fail("parity: child driver and CLI reports differ")
    check = replay.Tally()
    replay.check_verify_report(json.loads(ours), families, mode, digits, check)
    if check.failed:
        tally.fail(f"parity: {check.errors[0]}")


class Checker:
    """Checks each child's output; identical outputs are replayed once."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.words = replay.lattice_words(seed) if workload == "lattice" else None
        self.tally = replay.Tally()
        self.quality: replay.Tally | None = None
        self._seen: dict[str, replay.Tally] = {}

    def stdin(self) -> bytes:
        if self.words is None:
            return b""
        return json.dumps([[w["N"], w["terms"]] for w in self.words]).encode()

    def check(self, child: Child) -> None:
        text = child.text if self.words is not None else canonical_without_wall_time(child.text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self._seen:
            result = replay.Tally()
            if self.words is not None:
                replay.check_lattice(self.words, json.loads(text), result)
            else:
                families, mode, digits = replay.VERIFY_RUNS[self.workload]
                replay.check_verify_report(json.loads(text), families, mode, digits, result)
            self._seen[digest] = result
        result = self._seen[digest]
        self.quality = self.quality or result
        self.tally.attempted += result.attempted
        self.tally.failed += result.failed
        self.tally.errors.extend(result.errors[: 10 - len(self.tally.errors)])


def run_children(checker: Checker, seconds: float, trace: bool):
    """Children one at a time until the time is up.

    Untraced only, at least MIN_CHILDREN of them; or, with trace, untraced
    and traced alternating, at least one of each.
    """
    plain, traced = [], []
    stdin = checker.stdin()
    start = time.monotonic()
    while (not traced if trace else len(plain) < MIN_CHILDREN) or \
            time.monotonic() - start < seconds:
        traced_turn = trace and len(plain) > len(traced)
        child = Child(checker.workload, traced_turn, stdin)
        checker.check(child)
        (traced if traced_turn else plain).append(child)
    return plain, traced


def e2e_metrics(plain) -> dict:
    return {name: statistics.median(getattr(c, name) for c in plain) for name in E2E_UNITS}


def quality_metrics(checker: Checker) -> dict:
    q, t = checker.quality, checker.tally
    return {
        "failed_frac": t.failed / t.attempted if t.attempted else 1.0,
        "residual_log10_max": q.residual_log10_max if q and q.residual_log10_max > -math.inf else None,
        "cert_terms": q.cert_terms if q else None,
        "cert_coeff_bits_max": q.cert_coeff_bits_max if q else None,
    }


def layer_metrics(workload: str, plain, traced, quality: dict) -> dict:
    """Per-layer figures: medians over the traced children, zero where a span never fires.

    The deterministic proof-size and residual figures of the quality report
    ride along here, as 0 on workloads where they do not apply.
    """
    rows = []
    for child in traced:
        totals = tracer.layer_totals(child.spans)
        notes = child.notes
        cases = tracer.case_durations_ms(child.spans, tracer.case_span(workload))
        tail = tracer.tail_percentile(len(cases))
        lookups = sum(notes.get("numeric.eval_word_ln", []))
        proofs = notes.get("prover.prove_constant", [])
        row = {f"{layer}.{field}": totals.get(layer, {}).get(field, 0)
               for layer in tracer.TARGETS for field in SPAN_UNITS}
        misses = row["numeric.ln_gamma.calls"]
        row.update({
            "rootsys.positive_roots": child.positive_roots,
            "linalg.prep.max_n": max(notes.get("linalg.PreparedSolver.prep") or [0]),
            "prover.in_span_ratio": sum(proofs) / len(proofs) if proofs else 0.0,
            "numeric.ln_gamma.hit_ratio": 1 - misses / lookups if lookups else 0.0,
            "case.n": len(cases),
            "case.p50_ms": tracer.percentile(cases, 50),
            "case.tail_pct": tail,
            "case.tail_ms": tracer.percentile(cases, tail),
            "traced_total_s": child.total_s,
            "untraced_s": child.wall_total_s - tracer.root_seconds(child.spans),
        })
        rows.append(row)
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["tracing_overhead_s"] = out["traced_total_s"] - statistics.median(c.total_s for c in plain)
    out["wall_total_s"] = statistics.median(c.wall_total_s for c in plain)
    out["host_speed"] = statistics.median(c.host_speed for c in plain)
    out["prover.cert_terms"] = quality["cert_terms"] or 0
    out["prover.cert_coeff_bits_max"] = quality["cert_coeff_bits_max"] or 0
    out["numeric.residual_log10_max"] = quality["residual_log10_max"] or 0.0
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    checker = Checker(workload, seed)
    plain, traced = run_children(checker, seconds, trace)
    e2e = e2e_metrics(plain)
    quality = quality_metrics(checker)
    print(f"{workload}: {len(plain)} untraced and {len(traced)} traced children, "
          f"{plain[0].cases} cases each, seed {seed}; untraced total_s (wall s, host speed) "
          + " ".join(f"{c.total_s:.3f} ({c.wall_total_s:.3f}, {c.host_speed:.3f})" for c in plain))
    for name, value in {**e2e, **quality}.items():
        unit = E2E_UNITS.get(name) or QUALITY_UNITS[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<22} {shown:>12} {unit}")
    if not trace:
        return checker.tally, {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in e2e.items()}
    layers = layer_metrics(workload, plain, traced, quality)
    for name, value in layers.items():
        print(f"  {name:<44} {value:>14.6g} {LAYER_UNITS[name]}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "case"],
                   "children": [c.spans for c in traced]}, handle, separators=(",", ":"))
    return checker.tally, {name: {"value": v, "unit": LAYER_UNITS[name]} for name, v in layers.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Exit through SystemExit on SIGTERM, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "gammaroots" / "__init__.py").is_file():
        print(f"error: no gammaroots package under {SRC}", file=sys.stderr)
        return 2
    total = replay.Tally()
    parity_check(total)
    metrics = {}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        tally, found = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.errors.extend(tally.errors)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in found.items()})
    for error in total.errors[:10]:
        print(f"check failed: {error}")
    result = {"correct": total.failed == 0, "attempted": total.attempted,
              "failed": total.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
