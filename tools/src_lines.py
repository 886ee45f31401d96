"""Count the lines of each ``src/entwine/*.py`` module: all of them, and code.

Usage, from the root of a checkout:

    python3 tools/src_lines.py [FILE ...]

With no argument it reads every module of ``src/entwine``.  A code line holds
a token that is not a comment and not part of a docstring.  Tokens come from
``tokenize``, so a line inside a multi-line string or bracket counts once;
docstrings (the leading string of a module, class or function) come from
``ast``.  The table ends with the totals, the figures ROADMAP's aim 2 quotes.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    "The lines of every module, class and function docstring."
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    "(total lines, code lines) of one module's source."
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted((ROOT / "src" / "entwine").glob("*.py"))
    rows = [(p.name, *count(p.read_text(encoding="utf-8"))) for p in paths]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
