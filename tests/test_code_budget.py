"""The code-line budget of src/gammaroots.

ROADMAP, "Standing rules for deletions": src/ code lines stay at or below
1,197 (neither blank, comment nor docstring), except for what items 2 and 3
add.  Items 2 and 3 may raise the ceiling by what they add, with the reason
in CHANGES.md.

A code line holds a token other than a comment, NL, NEWLINE, INDENT, DEDENT
or the end marker, and lies outside a module, class or function docstring.
A token that spans lines, such as a triple-quoted string, counts each line
it covers.
"""

import ast
import io
import tokenize
from pathlib import Path

CEILING = 1197
SRC = Path(__file__).resolve().parents[1] / "src" / "gammaroots"
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_counter_skips_docstrings_comments_and_layout():
    source = (
        '"""Module\n\ndocstring."""\n'
        "# a comment\n"
        "\n"
        "def f(x):\n"
        "    '''Function docstring.'''\n"
        "    s = '''two\n"
        "    lines'''\n"
        "    return (x +  # trailing comment\n"
        "            1)\n"
    )
    assert code_lines(source) == 5


def test_src_code_lines_within_the_ceiling():
    counts = {path.name: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = sum(counts.values())
    assert total <= CEILING, f"{total} code lines in src/gammaroots, ceiling {CEILING}: {counts}"
