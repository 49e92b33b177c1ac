"""Count the lines of the depnet package source.

    python tools/count_lines.py [REV]

prints the total lines and the code lines of ``src/depnet/*.py`` in the
working tree and, given a git revision, in that revision too (read with
``git show``), then the change in code lines of each module against that
revision. Code lines are the lines that hold a token other than a
comment, leaving out blank lines, comments and docstrings: the module,
class and function docstrings that ``ast`` finds. Standard library only.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/depnet"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def counts(sources: list[str]) -> tuple[int, int]:
    """Total lines and code lines over ``sources``."""
    return sum(len(s.splitlines()) for s in sources), sum(map(code_lines, sources))


def module_changes(tree: dict[str, str], base: dict[str, str]) -> list[tuple[str, int]]:
    """The change in code lines of each module, by file name, from the
    sources ``base`` to the sources ``tree``; a module missing from one
    side has no code lines there."""
    return [
        (name, code_lines(tree.get(name, "")) - code_lines(base.get(name, "")))
        for name in sorted(tree.keys() | base.keys())
    ]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def _revision_sources(rev: str) -> dict[str, str]:
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: _git("show", f"{rev}:{PACKAGE}/{name}") for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.stderr.write(f"usage: {Path(__file__).name} [REV]\n")
        return 2
    tree = {path.name: path.read_text(encoding="utf-8") for path in (ROOT / PACKAGE).glob("*.py")}
    sides = [("working tree", tree)]
    if argv:
        sides.append((argv[0], _revision_sources(argv[0])))
    for name, sources in sides:
        total, code = counts(list(sources.values()))
        print(f"{name}: {total} lines, {code} code lines")
    if argv:
        print(f"code lines by module, against {argv[0]}:")
        for module, change in module_changes(tree, sides[1][1]):
            print(f"  {module}: {change:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
