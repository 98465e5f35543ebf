"""Code lines per module of the package, and their total.

    python3 tools/source_size.py

A code line carries a token other than a comment, a blank line or
indentation, and is not part of a docstring (of the module, a class or a
function), so that deleting a comment or a docstring does not read as a
smaller program.  A statement spread over several lines counts each of
them.  The per-module lines and the total are printed whatever the
directory it is run from.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thermaldrag"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of code lines in the Python source ``text``."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:8d} {path.relative_to(ROOT)}")
    print(f"{total:8d} code lines in total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
