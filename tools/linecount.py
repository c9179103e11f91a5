"""Count code lines in Python files.

A code line holds at least one token that is not a comment, a docstring or
whitespace.  A docstring here is any statement that is a string literal and
nothing else: a module, class or function docstring, or a string standing
alone after a field.  A string token that spans several lines makes each of
them a code line, unless it is a docstring.

Usage, from the root of a checkout:

    python3 tools/linecount.py src
    python3 tools/linecount.py src/hgpdecode/gf2.py tests

Each argument is a file or a directory searched for ``*.py``.  Prints each
file's count, then the total over all of them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = {
        (node.value.lineno, node.value.col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    }
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _files(args: list[str]) -> list[Path]:
    out: list[Path] = []
    for arg in args:
        path = Path(arg)
        out += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in _files(argv):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
