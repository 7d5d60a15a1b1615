"""Count the file lines and the code lines of the library's modules.

Usage (from the root of a checkout):

    python3 tools/loc.py [DIR]

DIR defaults to ``src/slinf``.  For each ``*.py`` file in it, sorted by name,
the script prints the file's lines and its code lines, then the totals.  A
code line is any line that is not blank, not a comment line and not inside a
docstring (the first statement of a module, class or function, when it is a
string literal).  CHANGES entries quote the totals as "file lines / code
lines".
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(file lines, code lines) of one Python source file."""
    text = path.read_text()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(
        1 for number, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/slinf")
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no *.py files in {root}", file=sys.stderr)
        return 2
    width = max(len(path.name) for path in files)
    total_lines = total_code = 0
    print(f"{'file':<{width}}  {'lines':>6}  {'code':>6}")
    for path in files:
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{path.name:<{width}}  {lines:>6}  {code:>6}")
    print(f"{'total':<{width}}  {total_lines:>6}  {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
