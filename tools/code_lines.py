"""Count the code lines of Python files: physical lines that hold a token
other than a comment, with blank lines and docstrings left out.

A docstring is the string that opens a module, class or function body.  A
line counts once however many tokens it holds, and a token that spans lines
(a bracketed expression's continuation, a multi-line string that is not a
docstring) counts every line it spans.

Usage: python tools/code_lines.py [-h] [PATH ...]

Each PATH is a file or a directory, searched for *.py files (default:
src/padicfeas).  Prints one line per file and the total; -h or --help
prints this text.  A PATH that does not exist exits 2 with one error line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if "-h" in argv or "--help" in argv:
        print(__doc__.strip())
        return 0
    files = []
    for arg in argv or ["src/padicfeas"]:
        path = Path(arg)
        if not path.exists():
            print(f"error: no such file or directory: {arg}", file=sys.stderr)
            return 2
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
