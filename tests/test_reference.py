"""Replay a fixed slice of the benchmark's recorded reference.

``perfbench/workloads.py`` holds the Monte Carlo workloads, their
comparison rules and the reference file they are checked against.  This
test recomputes every ``mc-smallk`` replication and every tenth
``mc-largek`` one through the same ``mc_estimates`` and checks them with the
same ``compare_json`` and ``p_hat_in_range``, at the file's own
``ABS_TOL`` and ``RANGE_TOL``.  Nothing under ``perfbench/`` is written.
"""
import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# (workload, replications replayed)
SLICES = [("mc-smallk", range(100)), ("mc-largek", range(0, 100, 10))]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, indices", SLICES, ids=[name for name, _ in SLICES])
def test_reference_replay(workloads, name, indices):
    params = workloads.MC[name]
    recorded = workloads.load_reference()[name]["estimates"]
    assert params["pool"] == len(recorded)
    mismatches = []
    for index in indices:
        got = workloads.mc_estimates(params, index)
        label = f"{name} replication {index}"
        mismatches += workloads.compare_json(got, dict(zip(workloads.LABELS, recorded[index])),
                                             label)
        for estimator in workloads.ESTIMATORS:
            mismatches += workloads.p_hat_in_range(got.get(estimator), got.get("pn"),
                                                   f"{label} {estimator}")
    assert mismatches == []
