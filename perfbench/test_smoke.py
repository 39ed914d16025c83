"""Smoke test of the benchmark at tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Not part of the tier-1 suite (pytest collects only ``tests/`` by default).
"""
import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference():
    run.import_program()
    return wl.load_reference()


def test_end_to_end_metrics_present(reference):
    result = run.run_workload("mc-largek", 4, 0, False, reference, min_ops=2, probes=1)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_present(reference, monkeypatch, capsys):
    # A hooked name that has gone away is reported as absent, not an error.
    monkeypatch.delattr("curetail.asymptotics.sigma2_k")
    result = run.run_workload("cli", 9, 0, True, reference)
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert result["metrics"]["plotfit.pp_fit.evals_per_fit"]["value"] > 0
    assert result["metrics"]["cli.import_ms"]["value"] > 0
    absent = [line for line in capsys.readouterr().out.splitlines() if "absent" in line]
    assert [line.split()[0] for line in absent] == ["asymptotics.sigma2_k.ms"]


def test_corrupted_reference_counts_as_failure(reference):
    seed = 7
    first = wl.McWorkload("mc-smallk", seed, None).index(0)
    bad = copy.deepcopy(reference)
    bad["mc-smallk"]["estimates"][first][0] += 1e-6
    result = run.run_workload("mc-smallk", seed, 0, False, bad, min_ops=3, probes=1)
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(2 / 3)
