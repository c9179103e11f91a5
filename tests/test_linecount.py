"""The code-line counter in ``tools/linecount.py``."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "linecount", Path(__file__).resolve().parent.parent / "tools" / "linecount.py"
)
linecount = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linecount)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x: int
    """A field's docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
that spans
three lines"""
        return (os.sep,
                text)
'''


def test_counts_code_lines_only():
    # import, class, x, def, the three lines of the string, and the two of
    # the return: docstrings, comments and blank lines do not count.
    assert linecount.code_lines(SOURCE) == 9
    assert linecount.code_lines("") == 0
    assert linecount.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
