"""Source lines per module of the acmcurves package, and in total.

Prints two counts per module of src/acmcurves, then their totals:

  code       lines that hold code: no blank, comment or docstring lines
  non-blank  lines that hold any non-whitespace character

A docstring is a string literal that stands as the first statement of a
module, class or function body. Run from the root of a checkout:

    python tools/source_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src/acmcurves")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, non-blank lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(code), sum(1 for line in source.splitlines() if line.strip())


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    if not paths:
        print(f"no modules under {PACKAGE}: run from the root of a checkout", file=sys.stderr)
        return 2
    total_code = total_non_blank = 0
    print(f"{'module':<14}{'code':>8}{'non-blank':>11}")
    for path in paths:
        code, non_blank = count(path.read_text())
        total_code += code
        total_non_blank += non_blank
        print(f"{path.stem:<14}{code:>8}{non_blank:>11}")
    print(f"{'total':<14}{total_code:>8}{total_non_blank:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
