"""The names the benchmark's tracer patches must exist in the program.

perfbench/tracer.py wraps gammaroots functions by (module, attribute path).
A rename there would only show when the traced benchmark runs; this test
reads the tracer's TARGETS, without changing the file, and fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
