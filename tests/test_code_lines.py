"""``tools/code_lines.py``, the code-line count that ROADMAP.md quotes.

The tool is not part of the package, so the test loads the file by path,
as ``tests/test_tracing.py`` loads the benchmark's tracer.
"""
import importlib.util
from pathlib import Path

import pytest

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
on two lines."""
import math


def area(r):
    """Function docstring."""
    # a comment line

    return math.fsum(
        [math.pi, r * r],
    )
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tool):
    # the import, the def line and the three lines of the call
    assert tool.code_lines(FIXTURE) == 5


def test_main_prints_rows_and_their_total(tool, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\ny = [\n    x,\n]\n")
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines]
    assert [path for _, path in rows] == [str(Path("pkg", "a.py")), str(Path("pkg", "b.py")),
                                          "total"]
    assert [int(count) for count, _ in rows[:-1]] == [5, 4]
    assert int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1])
