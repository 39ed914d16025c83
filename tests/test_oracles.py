"""The reference implementations stay independent of the package."""
import ast
from pathlib import Path


def package_imports(source: str):
    """Lines that import ``curetail`` or one of its modules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        if any(m == "curetail" or m.startswith("curetail.") for m in modules):
            lines.append(node.lineno)
    return lines


def test_guard_sees_an_import():
    source = ("from curetail import pp_loss\nimport numpy as np\n"
              "import curetail.plotfit as pf\nfrom curetail.survival import km_eval\n"
              "import curetailx\n")
    assert package_imports(source) == [1, 3, 4]


def test_oracles_import_nothing_from_the_package():
    source = Path(__file__).with_name("oracles.py").read_text()
    assert package_imports(source) == []
