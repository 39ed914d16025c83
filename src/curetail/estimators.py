"""Dispatch layer mapping estimator names to fits.

One table is shared by the CLI, the simulation harness and the stress
sweep: three plot-based estimators, two exceedance-based ones and the
nonparametric benchmark ``pn``, which needs no fit.
"""
from __future__ import annotations

import math
from dataclasses import replace

from .errors import DegenerateExceedancesError, ValidationError
from .plotfit import FitConfig, PlotSeries, gof_series, pp_fit
from .potfit import PotDomain, pot_fit, pot_gof_series
from .survival import KaplanMeierCurve, OrderedSample, p_benchmark
from .transforms import PlottingModel

__all__ = ["ESTIMATOR_NAMES", "MODEL_NAMES", "check_name", "fit_estimate", "fit_fields",
           "fit_series"]

_MODELS = {
    "pareto": PlottingModel.PARETO,
    "weibull": PlottingModel.WEIBULL,
    "lognormal": PlottingModel.LOGNORMAL,
    "gumbel-pot": PotDomain.GUMBEL,
    "frechet-pot": PotDomain.FRECHET,
}

MODEL_NAMES = tuple(_MODELS)
ESTIMATOR_NAMES = (*MODEL_NAMES, "pn")


def check_name(name: str) -> None:
    """Raise ValidationError unless ``name`` is one of ESTIMATOR_NAMES."""
    if name not in ESTIMATOR_NAMES:
        raise ValidationError(f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}")


def _fit(name, ordered, curve, config):
    """The table entry of a name in MODEL_NAMES and its fit."""
    if name not in _MODELS:
        raise ValidationError(f"estimator {name!r} has no fit; choose from {MODEL_NAMES}")
    if config is None:
        raise ValidationError(f"estimator {name!r} requires a fit configuration")
    model = _MODELS[name]
    if isinstance(model, PotDomain):
        return model, pot_fit(ordered, curve, model, config)
    return model, pp_fit(ordered, curve, replace(config, model=model))


def fit_estimate(
    name: str,
    ordered: OrderedSample,
    curve: KaplanMeierCurve,
    config: FitConfig | None,
) -> float:
    """Cure-fraction estimate by estimator name; ``pn`` needs no config."""
    if name == "pn":
        return p_benchmark(curve, ordered)
    return _fit(name, ordered, curve, config)[1].p_hat


def fit_fields(name: str, ordered: OrderedSample, curve: KaplanMeierCurve,
               config: FitConfig) -> dict:
    """Fit a name in MODEL_NAMES; the fields of its JSON record, in output order."""
    model, fit = _fit(name, ordered, curve, config)
    keys = (("p_k", "pi_hat", "scale_hat", "p_hat", "loss", "clipped")
            if isinstance(model, PotDomain)
            else ("p_hat", "slope_hat", "loss", "skipped_terms", "feasible_lower"))
    n = ordered.n
    return {"model": name, "n": n, "k": fit.k_used, "lambda": config.resolved_lam(n),
            "p_n": p_benchmark(curve, ordered), **{key: getattr(fit, key) for key in keys}}


def fit_series(name: str, ordered: OrderedSample, curve: KaplanMeierCurve,
               config: FitConfig) -> PlotSeries:
    """Fit a name in MODEL_NAMES; its goodness-of-fit coordinates at the fit."""
    model, fit = _fit(name, ordered, curve, config)
    if isinstance(model, PotDomain):
        if not (math.isfinite(fit.scale_hat) and fit.scale_hat > 0.0):
            # a boundary fit (p_n = 1) need not identify a scale
            raise DegenerateExceedancesError("exceedance fit has no positive scale to plot")
        return pot_gof_series(ordered, curve, model, config.k, fit.pi_hat, fit.scale_hat)
    return gof_series(model, ordered, curve, config.k, fit.p_hat)
