from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line

# a comment alone


class A:
    """Class docstring."""

    x = """not a docstring,
    but a value over two lines"""

    def f(self):
        """Function
        docstring."""
        return (1,
                2)
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    tool = load_tool()
    # import, class, x (two lines), def, return (two lines)
    assert tool.code_lines(SOURCE) == 7
    assert tool.counts([SOURCE, "y = 1\n"]) == (len(SOURCE.splitlines()) + 1, 8)


def test_main_prints_each_module_change_against_the_revision(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    package = tmp_path / tool.PACKAGE
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (package / "b.py").write_text(SOURCE, encoding="utf-8")
    base = {"a.py": "x = 1\n", "b.py": SOURCE, "gone.py": "z = 3\nw = 4\n# note\n"}
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "_revision_sources", lambda rev: base)
    assert tool.main(["REV"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [
        "code lines by module, against REV:", "  a.py: +1", "  b.py: +0", "  gone.py: -2",
    ]
    # The changes add up to the change in the totals.
    tree_code, rev_code = (int(line.split(", ")[1].split()[0]) for line in lines[:2])
    assert tree_code - rev_code == 1 + 0 - 2
    assert tool.module_changes({}, {}) == []
