"""The names the benchmark's tracer patches must exist in the program.

perfbench/tracer.py wraps gammaroots functions by (module, attribute path).
A rename there would only show when the traced benchmark runs; this test
reads the tracer's TARGETS, without changing the file, and fails first.
The traced child's notes also read the wrapped calls' arguments, which
TARGETS does not show, so one traced lattice child is run as well.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
REPLAY = ROOT / "perfbench" / "replay.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_contract", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span, target", sorted(_targets().items()))
def test_tracer_target_resolves_to_callable(span, target):
    module_name, path = target
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module_name}.{path} is not callable"


def test_traced_lattice_child_reads_the_arguments_it_notes():
    """perfbench/child.py lattice --trace on the seed-1 words, as run.py feeds them.

    Its prep note reads the row count off PreparedSolver's first argument,
    the dense columns: 70 grids of N = 2..96 have solver relations, the
    largest with (96 - 1)//2 rows, noted as 48; every word is one
    prove_constant call.
    """
    spec = importlib.util.spec_from_file_location("perfbench_replay_contract", REPLAY)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    stdin = json.dumps([[w["N"], w["terms"]] for w in replay.lattice_words(1)])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "lattice", "--trace"],
        input=stdin.encode(), capture_output=True, cwd=ROOT, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr.decode()[-2000:]
    notes = json.loads(child.stdout.decode().split("\n")[2])["notes"]
    prep = notes["linalg.PreparedSolver.prep"]
    assert len(prep) == 70 and max(prep) == 48
    assert len(notes["prover.prove_constant"]) == 760
