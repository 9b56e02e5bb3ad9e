"""Validation in the package must survive python -O, which strips assert statements."""

import ast
from pathlib import Path

import gammaroots


def test_no_assert_statements_in_the_package():
    sources = sorted(Path(gammaroots.__file__).parent.glob("*.py"))
    assert {"cli.py", "fateev.py", "prover.py", "rootsys.py"} <= {p.name for p in sources}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "raise an exception instead of assert: " + ", ".join(found)
