"""``tools/fit_digest.py``, the bit-identity check over every fit output.

The tool is not part of the package, so the test loads the file by path,
as ``tests/test_code_lines.py`` loads the code-line count.
"""
import importlib.util
import math
import os
from pathlib import Path

import pytest

FIT_DIGEST = Path(__file__).resolve().parents[1] / "tools" / "fit_digest.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("fit_digest", FIT_DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_one_digest_per_family_and_repeats_itself(tool, capsys):
    outputs = []
    for _ in range(2):
        assert tool.main(["--samples", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    rows = [line.split() for line in outputs[0].splitlines()]
    assert [family for family, _ in rows] == list(tool.FAMILIES)
    assert all(len(digest) == 64 for _, digest in rows)
    assert outputs[1] == outputs[0]


def test_names_the_package_it_digests_on_stderr(tool, capsys):
    # with an installed package, a PYTHONPATH that names no tree falls
    # through to it silently; stdout must stay comparable, so stderr names it
    import curetail

    assert tool.main(["--samples", "1"]) == 0
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"curetail from {os.path.dirname(curetail.__file__)}"


def test_counts_the_calls_it_hashes_on_stderr(tool, capsys):
    # a moved calls digest comes with the pool's counts, read here back
    # from the calls lines: one bracket per call, one hex float per level
    calls = [text.split(" ", 4)[4] for family, text in tool.lines(2, 2024)
             if family == "calls"]
    assert tool.main(["--samples", "2"]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines()[1:] == [
        f"profile calls {sum(c.count('[') - 1 for c in calls)} "
        f"levels {sum(c.count('0x') for c in calls)}"]
    assert "profile" not in out


def test_every_family_gets_lines(tool):
    # an empty family would hash to the same digest on any code
    families = {family for family, _ in tool.lines(3, 2024)}
    assert families == set(tool.FAMILIES)


def test_floats_are_hashed_to_the_last_bit(tool):
    assert tool.canon(0.1) != tool.canon(math.nextafter(0.1, 1.0))
    assert tool.canon(-0.0) != tool.canon(0.0)


def test_chunk_size_moves_the_calls_and_no_output(tool, monkeypatch, capsys):
    # the refinement's call width follows its own size constant, and no output may
    from curetail import plotfit

    def digests():
        assert tool.main(["--samples", "3"]) == 0
        return dict(line.split() for line in capsys.readouterr().out.splitlines())

    default = digests()
    monkeypatch.setattr(plotfit, "REFINE_CALL_ELEMENTS", 64)
    narrow = digests()
    assert narrow.pop("calls") != default.pop("calls")
    assert narrow == default


def test_each_fit_module_gets_its_profile_back(tool):
    from curetail import plotfit, potfit

    kernels = (plotfit.profile_levels, potfit.profile_levels)
    lines = tool.lines(3, 2024)
    next(lines)
    assert plotfit.profile_levels is not kernels[0] and potfit.profile_levels is not kernels[1]
    lines.close()
    assert plotfit.profile_levels is kernels[0] and potfit.profile_levels is kernels[1]
