"""Count the code lines of Python files: lines that hold a token of code,
not counting docstrings, comments or blank lines.

    python tools/code_lines.py [--functions] [PATH ...]

A PATH is a file or a directory (searched for *.py); the default is
src/conevol, run from the repository root.  Prints each file's count and
then the total; with --functions, each top-level function's and class's
count instead (its decorators included), largest first.  A docstring is
the string expression that opens a module, class or function body (ast),
and its lines are dropped; every other line that holds a token other than
a comment, a newline or an indent (tokenize) counts once, so a statement
written over three lines counts three.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_line_numbers(source: str, tree: ast.AST) -> set:
    """The line numbers of the code lines in source, parsed as tree."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(tree)


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    return len(_code_line_numbers(source, ast.parse(source)))


def function_lines(source: str) -> list:
    """(code lines, name) of each top-level function and class in source,
    in source order, its decorators included."""
    tree = ast.parse(source)
    lines = _code_line_numbers(source, tree)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append((sum(start <= line <= node.end_lineno for line in lines), node.name))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src/conevol")])
    parser.add_argument("--functions", action="store_true",
                        help="rank each top-level function and class by its code lines")
    args = parser.parse_args(argv)
    files = sorted(f for p in args.paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    if args.functions:
        rows = [(count, f"{f}:{name}") for f in files
                for count, name in function_lines(f.read_text(encoding="utf-8"))]
        for count, name in sorted(rows, key=lambda row: (-row[0], row[1])):
            print(f"{count:6d}  {name}")
        return 0
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
