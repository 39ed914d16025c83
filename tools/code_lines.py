"""Count the code lines of each module under ``src/``.

A code line is a line that some statement or expression of the module's
syntax tree spans, that is not part of a module, class or function
docstring, and that holds more than a comment or white space.  This is
the count ROADMAP.md quotes for ``src/``.

    python tools/code_lines.py [DIR]

prints one ``lines path`` row per module under DIR (default: the
repository's ``src``), then the total.
"""
import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    tree = ast.parse(source)
    text = source.splitlines()
    spanned = set()
    for node in ast.walk(tree):
        if getattr(node, "end_lineno", None) is not None:
            spanned.update(range(node.lineno, node.end_lineno + 1))
    spanned -= docstring_lines(tree)
    return sum(1 for n in spanned if text[n - 1].strip() and not text[n - 1].lstrip().startswith("#"))


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
