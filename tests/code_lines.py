"""Code lines of the package, per module and in total.

A code line is a line that holds a token of code: comments, blank lines
and docstrings (the leading string of a module, class or function) are
left out, and so are the continuation lines of a docstring.  The count
reads the sources with `ast` and `tokenize` only, so it is the same on
every Python the package supports.

    python3 tests/code_lines.py [package directory]

The directory defaults to `src/alwabp` beside this file's parent.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree) -> set[int]:
    """The line numbers that docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python text `source`."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "alwabp")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:20} {n:6,}")
    print(f"{'total':20} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
