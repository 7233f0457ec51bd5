"""Count the code lines of Python modules.

A code line is a line that holds part of a token other than a comment:
blank lines, comment-only lines and docstrings (the leading string of a
module, class or function) are not counted.  A multi-line token, such as
a string that is not a docstring, counts each line it spans.

    python3 tools/code_lines.py src/sylowclass

prints one line per module, largest first, and the total.  Arguments may
be files or directories (searched for *.py).
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _modules(paths: list[str]) -> list[str]:
    found = []
    for path in paths:
        if os.path.isdir(path):
            for root, _, files in os.walk(path):
                found += [os.path.join(root, f) for f in files if f.endswith(".py")]
        else:
            found.append(path)
    return sorted(found)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = {}
    for path in _modules(argv):
        with open(path, encoding="utf-8") as fh:
            counts[path] = code_lines(fh.read())
    for path, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{n:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
