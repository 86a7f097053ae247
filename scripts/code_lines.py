#!/usr/bin/env python3
"""Count the code lines of `src/perifold`, per module and in total, then
the total of each of `tests/` and `scripts/`, so that code moved out of the
package shows where it went.

A code line holds at least one token that is neither a comment nor a
docstring (the first statement of a module, class or function body when it
is a string); blank lines count for nothing.  A token spanning several
lines, such as a multi-line string, makes each of them a code line.

    python scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "perifold"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")
    for part in ("tests", "scripts"):
        count = sum(code_lines(path.read_text()) for path in (ROOT / part).glob("*.py"))
        print(f"{part + '/':<16} {count:>5}")


if __name__ == "__main__":
    main()
