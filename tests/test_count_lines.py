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
