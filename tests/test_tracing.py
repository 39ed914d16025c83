"""The benchmark's tracer still finds what it hooks.

``perfbench/tracing.py`` installs wrappers at module attributes named in
its ``HOOKS`` table and reads some of the wrapped calls' arguments by
position.  A renamed function or a reordered parameter would make it skip
a layer, or read the wrong argument, without failing a run.  This test
loads the file the way ``tests/test_reference.py`` loads ``workloads.py``
and checks both; nothing under ``perfbench/`` is written.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (module, function) -> {position: name} of the arguments ``_wrap`` reads
READ_BY_POSITION = {
    ("curetail.plotfit", "pp_fit"): {2: "config"},
    ("curetail.potfit", "pot_fit"): {2: "domain", 3: "config"},
    ("curetail.plotfit", "minimize_on_interval"): {0: "fun", 3: "resolution"},
    ("curetail.estimators", "fit_estimate"): {0: "name"},
    ("curetail.transforms", "norm_quantile"): {0: "u"},
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(modname, attr):
    return getattr(importlib.import_module(modname), attr)


def test_every_hook_resolves(tracing):
    missing = []
    for key, (modname, attr) in tracing.HOOKS.items():
        try:
            resolve(modname, attr)
        except (ImportError, AttributeError):
            missing.append(key)
    assert missing == []


def test_arguments_read_by_position_keep_their_names(tracing):
    hooked = set(tracing.HOOKS.values())
    for (modname, attr), names in READ_BY_POSITION.items():
        assert (modname, attr) in hooked
        params = list(inspect.signature(resolve(modname, attr)).parameters)
        assert {pos: params[pos] for pos in names} == names, f"{modname}.{attr}"


def test_both_fit_modules_bind_the_level_search():
    # the tracer tells the plotfit.* layers from the potfit.* ones by the
    # module whose binding a call goes through, so each fit module keeps its own
    for modname in ("curetail.plotfit", "curetail.potfit"):
        for attr in ("minimize_on_interval", "profile_levels"):
            assert attr in vars(importlib.import_module(modname)), f"{modname}.{attr}"
