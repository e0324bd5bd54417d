"""Count code lines under ``src/``, per package and in total.

A code line is a line that carries a token other than a comment, a
blank-line ``NL``, an indent or dedent or the end marker, excluding the
lines of module, class and function docstrings.  A token spanning several
lines (a multi-line string) counts every line it touches.

    python benchmarks/code_lines.py            # per-package totals of src/
    python benchmarks/code_lines.py --files    # one line per file as well
    python benchmarks/code_lines.py other/src  # any source tree
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

_NOT_CODE = frozenset(
    {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one module's source text."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_tree(root: Path) -> dict[Path, int]:
    """Code lines of every ``*.py`` file under ``root``, by path."""
    return {
        path: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }


def _package(path: Path, root: Path) -> str:
    """The dotted package a file belongs to, relative to ``root``."""
    return ".".join(path.relative_to(root).parent.parts) or "."


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default="src", type=Path)
    parser.add_argument("--files", action="store_true", help="list every file")
    args = parser.parse_args(argv)
    counts = count_tree(args.root)
    packages: dict[str, int] = defaultdict(int)
    for path, lines in counts.items():
        packages[_package(path, args.root)] += lines
        if args.files:
            print(f"{lines:7d}  {path.relative_to(args.root)}")
    for package, lines in sorted(packages.items()):
        print(f"{lines:7d}  {package}")
    print(f"{sum(counts.values()):7d}  total")


if __name__ == "__main__":
    main()
