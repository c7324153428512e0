"""The code-line counter of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line


class Box:
    """Class docstring."""

    size = 2


def area(r):
    """Function docstring.

    With a blank line inside.
    """
    text = """a string that is
    not a docstring"""
    return math.pi * r * r + len(text)
'''


def test_counts_code_lines_only():
    # import, class, size, def, the two lines of the string, return
    assert code_lines.count_code_lines(SNIPPET) == 7


def test_empty_source_has_no_code():
    assert code_lines.count_code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
