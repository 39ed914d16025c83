"""Cure-fraction and tail estimation for right-censored survival data.

When follow-up stops too early the empirical curve never reaches the cure
plateau and the benchmark estimator (the product-limit curve at the last
observation) is biased downward.  The estimators here pull the missing
tail information out of the largest observations instead: either by
straightening a penalized probability plot of the top order statistics,
or by fitting the censored exceedances over a high threshold.

The namespace is lazy (PEP 562): a public name or submodule is imported
on first use, so ``import curetail`` alone loads no numpy.
"""
from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "asymptotics": ("CensoringTail", "h_gamma", "sigma2_k"),
    "dataio": ("StressRow", "parse_dataset", "stress_sweep", "write_dataset"),
    "errors": (
        "CuretailError", "DatasetFormatError", "DegenerateExceedancesError",
        "DegenerateRegressorError", "EmptySampleError", "InfeasiblePError",
        "InfeasiblePiError", "InvalidKError", "KTooSmallForStressError",
        "NonPositiveThresholdError", "NumericalError", "TransformDomainError",
        "ValidationError",
    ),
    "estimators": ("ESTIMATOR_NAMES", "fit_estimate"),
    "plotfit": ("CureFit", "FitConfig", "PlotSeries", "gof_series", "pp_fit", "pp_loss"),
    "potfit": ("PotDomain", "PotFit", "pot_fit", "pot_gof_series", "pot_loss"),
    "simulate": (
        "SCENARIO_IDS", "BurrLifetime", "Exponential", "ParetoLifetime",
        "ReplicationSummary", "ScenarioSpec", "ShiftedExpCensoring", "StdLogNormal",
        "UniformCensoring", "WeibullLifetime", "run_scenario", "sample_scenario",
        "scenario_spec",
    ),
    "survival": (
        "KaplanMeierCurve", "OrderedSample", "SurvivalSample", "apply_insufficiency",
        "exceedances", "km_eval", "km_fit", "order_sample", "p_benchmark",
    ),
    "transforms": ("PlottingModel", "norm_quantile", "s_transform"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
