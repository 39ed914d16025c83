"""Cure-fraction and tail estimation for right-censored survival data.

When follow-up stops too early the empirical curve never reaches the cure
plateau and the benchmark estimator (the product-limit curve at the last
observation) is biased downward.  The estimators here pull the missing
tail information out of the largest observations instead: either by
straightening a penalized probability plot of the top order statistics,
or by fitting the censored exceedances over a high threshold.
"""
from .asymptotics import CensoringTail, h_gamma, sigma2_k
from .dataio import StressRow, parse_dataset, stress_sweep, write_dataset
from .errors import (
    CuretailError,
    DatasetFormatError,
    DegenerateExceedancesError,
    DegenerateRegressorError,
    EmptySampleError,
    InfeasiblePError,
    InfeasiblePiError,
    InvalidKError,
    KTooSmallForStressError,
    NonPositiveThresholdError,
    NumericalError,
    TransformDomainError,
    ValidationError,
)
from .estimators import ESTIMATOR_NAMES, fit_estimate
from .plotfit import (
    CureFit,
    FitConfig,
    PlotSeries,
    gof_series,
    pp_fit,
    pp_loss,
)
from .potfit import PotDomain, PotFit, pot_fit, pot_gof_series, pot_loss
from .simulate import (
    SCENARIO_IDS,
    BurrLifetime,
    Exponential,
    ParetoLifetime,
    ReplicationSummary,
    ScenarioSpec,
    ShiftedExpCensoring,
    StdLogNormal,
    UniformCensoring,
    WeibullLifetime,
    run_scenario,
    sample_scenario,
    scenario_spec,
)
from .survival import (
    KaplanMeierCurve,
    OrderedSample,
    SurvivalSample,
    apply_insufficiency,
    exceedances,
    km_eval,
    km_fit,
    order_sample,
    p_benchmark,
)
from .transforms import PlottingModel, norm_quantile, s_transform

__version__ = "0.1.0"

__all__ = [
    "BurrLifetime",
    "CensoringTail",
    "CureFit",
    "CuretailError",
    "DatasetFormatError",
    "DegenerateExceedancesError",
    "DegenerateRegressorError",
    "EmptySampleError",
    "ESTIMATOR_NAMES",
    "Exponential",
    "FitConfig",
    "InfeasiblePError",
    "InfeasiblePiError",
    "InvalidKError",
    "KaplanMeierCurve",
    "KTooSmallForStressError",
    "NonPositiveThresholdError",
    "NumericalError",
    "OrderedSample",
    "ParetoLifetime",
    "PlotSeries",
    "PlottingModel",
    "PotDomain",
    "PotFit",
    "ReplicationSummary",
    "SCENARIO_IDS",
    "ScenarioSpec",
    "ShiftedExpCensoring",
    "StdLogNormal",
    "StressRow",
    "SurvivalSample",
    "TransformDomainError",
    "UniformCensoring",
    "ValidationError",
    "WeibullLifetime",
    "apply_insufficiency",
    "exceedances",
    "fit_estimate",
    "gof_series",
    "h_gamma",
    "km_eval",
    "km_fit",
    "norm_quantile",
    "order_sample",
    "p_benchmark",
    "parse_dataset",
    "pot_fit",
    "pot_gof_series",
    "pot_loss",
    "pp_fit",
    "pp_loss",
    "run_scenario",
    "s_transform",
    "sample_scenario",
    "scenario_spec",
    "sigma2_k",
    "stress_sweep",
    "write_dataset",
]
