"""The one rule for numeric inputs, site by site, and a guard against forks.

Every scalar input the package checks goes through ``errors.check_int`` or
``errors.check_real``: bools are refused, numpy numbers count as Python
numbers do, and reals must be finite.  Each row of ``SITES`` names one
checked input, the call that feeds it a value, its kind, the valid values
it must accept and the exception class the site raises.
"""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

import curetail
from curetail import (
    CensoringTail,
    Exponential,
    FitConfig,
    InfeasiblePError,
    InfeasiblePiError,
    InvalidKError,
    PlottingModel,
    PotDomain,
    ScenarioSpec,
    SurvivalSample,
    TransformDomainError,
    UniformCensoring,
    ValidationError,
    apply_insufficiency,
    exceedances,
    gof_series,
    h_gamma,
    km_fit,
    order_sample,
    pot_gof_series,
    pot_loss,
    pp_loss,
    s_transform,
    stress_sweep,
)
from curetail.errors import check_int, check_real

RNG = np.random.default_rng(4)
SAMPLE = SurvivalSample(RNG.exponential(1.0, 50) + 0.01, (RNG.random(50) < 0.7).astype(int))
ORDERED = order_sample(SAMPLE)
CURVE = km_fit(ORDERED)
EXC = exceedances(ORDERED, 20)
EXC_CURVE = km_fit(EXC)


def spec(**fields):
    base = dict(scenario_id="x", susceptible=Exponential(), censoring=UniformCensoring(0, 3),
                p=0.5, n=50, reps=1, seed=0)
    return ScenarioSpec(**{**base, **fields})


# (site, call, kind, accepted values, exception class)
SITES = [
    ("FitConfig.k", lambda v: FitConfig(k=v), "int", [10], InvalidKError),
    ("FitConfig.p_grid_resolution", lambda v: FitConfig(k=10, p_grid_resolution=v), "int",
     [64], ValidationError),
    ("FitConfig.refine_tolerance", lambda v: FitConfig(k=10, refine_tolerance=v), "real",
     [0.25, 1], ValidationError),
    ("FitConfig.lam", lambda v: FitConfig(k=10, lam=v), "real", [0.5, 1], ValidationError),
    ("survival.top_tail k", lambda v: gof_series(PlottingModel.PARETO, ORDERED, CURVE, v, 1.0),
     "int", [10], InvalidKError),
    ("plotfit._check_level p", lambda v: gof_series(PlottingModel.PARETO, ORDERED, CURVE, 10, v),
     "real", [0.5, 1], InfeasiblePError),
    ("plotfit._check_level pi",
     lambda v: pot_gof_series(ORDERED, CURVE, PotDomain.GUMBEL, 20, v, 1.5),
     "real", [0.5, 1], InfeasiblePiError),
    ("pp_loss slope", lambda v: pp_loss(PlottingModel.PARETO, ORDERED, CURVE, 10, v, 1.0, 0.0),
     "real", [1.5, 2], ValidationError),
    ("pp_loss p_n",
     lambda v: pp_loss(PlottingModel.PARETO, ORDERED, CURVE, 10, 1.5, 1.0, 0.5, v),
     "real", [0.5, 1], ValidationError),
    ("pot_loss scale", lambda v: pot_loss(EXC_CURVE, EXC.times, v, 1.0, 0.0, 0.5, 0.5), "real",
     [1.5, 2], ValidationError),
    ("pot_loss p_n", lambda v: pot_loss(EXC_CURVE, EXC.times, 1.5, 1.0, 0.5, v, 0.5), "real",
     [0.5, 1], ValidationError),
    ("pot_loss p_k", lambda v: pot_loss(EXC_CURVE, EXC.times, 1.5, 1.0, 0.5, 0.5, v), "real",
     [0.5, 0], ValidationError),
    ("pot_gof_series scale",
     lambda v: pot_gof_series(ORDERED, CURVE, PotDomain.GUMBEL, 20, 1.0, v),
     "real", [1.5, 2], ValidationError),
    ("survival.exceedances k", lambda v: exceedances(ORDERED, v), "int", [20], InvalidKError),
    ("survival.apply_insufficiency", lambda v: apply_insufficiency(SAMPLE, v), "real",
     [0.25, 0], ValidationError),
    ("ScenarioSpec.p", lambda v: spec(p=v), "real", [0.5], ValidationError),
    ("ScenarioSpec.n", lambda v: spec(n=v), "int", [50], ValidationError),
    ("ScenarioSpec.reps", lambda v: spec(reps=v), "int", [3], ValidationError),
    ("ScenarioSpec.seed", lambda v: spec(seed=v), "int", [7], ValidationError),
    ("ScenarioSpec.k_rule", lambda v: spec(k_rule=v), "int", [17], ValidationError),
    ("ScenarioSpec.lam_rule", lambda v: spec(lam_rule=v), "real", [0.25, 1], ValidationError),
    ("CensoringTail.gamma_c", lambda v: CensoringTail(v, 3, 10), "real", [-0.5, -1],
     ValidationError),
    ("CensoringTail.k", lambda v: CensoringTail(-1.0, v, 10), "int", [3], ValidationError),
    ("CensoringTail.n", lambda v: CensoringTail(-1.0, 3, v), "int", [10], ValidationError),
    ("h_gamma gamma_c", lambda v: h_gamma(v, 2.0), "real", [-0.5, -1], ValidationError),
    ("h_gamma t", lambda v: h_gamma(-1.0, v), "real", [2.5, 2], ValidationError),
    ("s_transform t", lambda v: s_transform(PlottingModel.PARETO, v), "real", [0.5],
     TransformDomainError),
    ("dataio.stress_sweep fraction",
     lambda v: stress_sweep(SAMPLE, [v], "pn", FitConfig(k=20)), "real", [0.25, 0],
     ValidationError),
]
IDS = [row[0] for row in SITES]


def refused(call, value, error):
    with pytest.raises(error) as info:
        call(value)
    assert info.type is error
    assert str(info.value).endswith(f", got {value!r}")


@pytest.mark.parametrize("site, call, kind, goods, error", SITES, ids=IDS)
def test_bool_refused(site, call, kind, goods, error):
    refused(call, True, error)
    refused(call, np.True_, error)


@pytest.mark.parametrize("site, call, kind, goods, error",
                         [row for row in SITES if row[2] == "real"],
                         ids=[row[0] for row in SITES if row[2] == "real"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32("nan"),
                                   np.float64("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "float32-nan", "float64-inf", "int-1e400"])
def test_non_finite_real_refused(site, call, kind, goods, error, value):
    refused(call, value, error)


@pytest.mark.parametrize("site, call, kind, goods, error",
                         [row for row in SITES if row[2] == "int"],
                         ids=[row[0] for row in SITES if row[2] == "int"])
@pytest.mark.parametrize("value", [10.0, np.float64(10.0), "10", None],
                         ids=["float", "float64", "str", "None"])
def test_non_integer_refused(site, call, kind, goods, error, value):
    refused(call, value, error)


@pytest.mark.parametrize("site, call, kind, goods, error", SITES, ids=IDS)
def test_numpy_numbers_accepted(site, call, kind, goods, error):
    for good in goods:
        plain = call(good)
        numpy_kinds = (np.int64,) if isinstance(good, int) else ()
        if kind == "real":
            numpy_kinds += (np.float64, np.float32)
        for as_numpy in numpy_kinds:
            value = as_numpy(good)
            assert value == good  # every accepted value is exact in float32
            got = call(value)
            if isinstance(plain, float):
                assert got == plain


def test_lam_rule_checked_at_construction():
    with pytest.raises(ValidationError, match="lam_rule"):
        spec(lam_rule=math.inf)
    with pytest.raises(ValidationError, match="lam_rule"):
        spec(lam_rule="k/m")


def test_refine_tolerance_of_wrong_type():
    with pytest.raises(ValidationError) as info:
        FitConfig(k=10, refine_tolerance="x")
    assert str(info.value) == "refine_tolerance must be a finite positive real, got 'x'"


def test_pinned_messages():
    with pytest.raises(ValidationError) as info:
        spec(seed=-1)
    assert str(info.value) == "seed must be a non-negative integer, got -1"
    with pytest.raises(ValidationError) as info:
        FitConfig(k=10, lam=-1.0)
    assert str(info.value) == "lam must be a finite non-negative real, got -1.0"


def test_checks_in_isolation():
    check_int(np.uint8(3), "x", 3, 3)
    check_real(np.float16(0.5), "x", lambda v: v < 1)
    check_real(2**1023, "x")
    with pytest.raises(KeyError, match="x must be small, got 4"):
        check_int(4, "x must be small", 0, 3, KeyError)
    with pytest.raises(ValidationError, match="x must be below 1, got 1"):
        check_real(1, "x must be below 1", lambda v: v < 1)


# --- guard: no numeric type test outside errors.py -------------------------

NUMERIC_CLASSES = {"int", "float", "np.integer", "np.floating", "numbers.Integral",
                   "numbers.Real"}
# cli._json_ready tests for float to format output, not to check an input
ALLOWED = {("cli.py", "_json_ready")}


def numeric_isinstance_calls(source: str):
    """(enclosing function, line) of every isinstance call on a numeric class."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            classes = node.args[1]
            names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
            if any(ast.unparse(name) in NUMERIC_CLASSES for name in names):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_guard_sees_a_hand_written_check():
    source = ("def f(x):\n    return isinstance(x, (int, np.integer))\n"
              "y = isinstance(1, numbers.Real)\nz = isinstance(1, str)\n")
    assert numeric_isinstance_calls(source) == [("f", 2), (None, 3)]


def test_numeric_type_tests_live_in_errors_only():
    package = Path(curetail.__file__).parent
    offenders = [
        f"{path.name}:{line} in {function}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for function, line in numeric_isinstance_calls(path.read_text())
        if (path.name, function) not in ALLOWED
    ]
    assert offenders == []
