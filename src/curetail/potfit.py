"""Cure-fraction estimation from exceedances over a high threshold.

Excesses of the top k observations over the (k+1)-th largest carry their
own censored sub-sample; a product-limit curve fitted to them plays the
role the full curve plays in the plot fits.  The Gumbel variant matches
raw excesses against exponential quantiles, the Frechet variant matches
log-excesses.  The conditional cure level pi of the exceedance law is
estimated jointly with the scale, and the unconditional cure fraction is
recovered through the tail probability of the threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateExceedancesError,
    InfeasiblePiError,
    ValidationError,
    check_real,
)
from .plotfit import (
    FitConfig,
    PlotSeries,
    _admissible,
    _check_lam,
    _check_level,
    _golden_width,
    _level_terms,
    minimize_on_interval,
    profile_levels,
)
from .survival import (
    KaplanMeierCurve,
    OrderedSample,
    exceedances,
    km_eval,
    km_fit,
    top_tail,
)
from .transforms import PlottingModel

__all__ = ["PotDomain", "PotFit", "pot_loss", "pot_fit", "pot_gof_series"]

# Largest root-sum-square of the excesses a fit takes: the loss sums their
# squares, which must stay below half the largest float.
_MAX_EXCESS_NORM = math.sqrt(np.finfo(float).max / 2.0)


class PotDomain(Enum):
    GUMBEL = "gumbel"
    FRECHET = "frechet"


@dataclass(frozen=True)
class PotFit:
    """Result of an exceedance fit.

    ``pi_hat`` is the cure level of the conditional law above the
    threshold, ``p_k`` the estimated probability of exceeding the
    threshold at all, and ``p_hat`` the recovered unconditional cure
    fraction, clipped into [0, 1] with ``clipped`` recording whether the
    clip fired.  For the Frechet domain ``scale_hat`` estimates the
    extreme-value index of the susceptible tail.
    """

    scale_hat: float
    pi_hat: float
    p_hat: float
    p_k: float
    loss: float
    k_used: int
    clipped: bool = False
    skipped_terms: int = 0
    boundary: bool = False


def pot_loss(exc_curve, exceedance_values, scale, pi, lam, p_n, p_k):
    """Penalized exceedance loss at explicit scale and conditional level.

    Each exceedance is matched against the exponential quantile implied by
    the conditional curve at level ``pi``; terms whose quantile argument
    hits the lower boundary are dropped.  The penalty acts on the
    recovered unconditional cure fraction.
    """
    e = np.asarray(exceedance_values, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise ValidationError("exceedance_values must be a non-empty 1-d array")
    check_real(scale, "scale must be a positive real", lambda v: v > 0)
    _check_lam(lam)
    check_real(p_n, "p_n must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    check_real(p_k, "p_k must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    lower = float(exc_curve.cdf_values[-1]) if exc_curve.jump_times.size else 0.0
    _check_level(pi, "pi", InfeasiblePiError, lower)
    f_k = np.asarray(km_eval(exc_curve, e))
    arg = 1.0 - f_k / pi
    keep = _admissible(PlottingModel.PARETO, arg)
    p = 1.0 - (1.0 - pi) * p_k
    penalty = lam * (p - p_n) ** 2
    if not np.any(keep):
        return penalty
    r = e[keep] + scale * np.log(arg[keep])
    return float(r @ r) + penalty


def _exceedance_curve(ordered, k, domain):
    """Excesses of the top k (log excesses for Frechet), their product-limit
    curve and its values at them."""
    if not isinstance(domain, PotDomain):
        raise ValidationError(f"unknown exceedance domain {domain!r}")
    exc = exceedances(ordered, k, log_scale=domain is PotDomain.FRECHET)
    exc_curve = km_fit(exc)
    return exc.times, exc_curve, np.asarray(km_eval(exc_curve, exc.times))


def pot_fit(
    ordered: OrderedSample,
    curve: KaplanMeierCurve,
    domain: PotDomain,
    config: FitConfig,
) -> PotFit:
    """Joint scale and conditional-level fit on the top-k exceedances.

    The scale is profiled out exactly (the loss is quadratic in it) and
    the conditional level is found by dense grid plus golden-section
    refinement over its feasible interval, smallest level winning ties.
    """
    tail = top_tail(ordered, curve, config.k)
    e, exc_curve, f_k = _exceedance_curve(ordered, config.k, domain)
    if float(e.max()) <= 0.0:
        raise DegenerateExceedancesError("all exceedances are zero")
    if float(e.max()) * math.sqrt(e.size) > _MAX_EXCESS_NORM:
        raise DegenerateExceedancesError("exceedances too large: their squared sum overflows")
    if exc_curve.jump_times.size == 0:
        raise DegenerateExceedancesError("no events among the top k observations")
    pi_lower = float(exc_curve.cdf_values[-1])

    lam = config.resolved_lam(ordered.n)
    # e against w = log(1 - F/pi), the Pareto u, with slope minus the scale
    terms = _level_terms(PlottingModel.PARETO, f_k, e,
                         lambda pi: lam * (1.0 - (1.0 - pi) * tail.p_k - tail.p_n) ** 2)
    pi_hat, (loss, slope, skipped) = minimize_on_interval(
        lambda pi: profile_levels(pi, config.k, terms), pi_lower, 1.0,
        config.p_grid_resolution, config.refine_tolerance, width=_golden_width(config.k),
    )
    boundary = pi_lower >= 1.0
    scale = -slope
    if boundary and slope == 0.0:
        # the kept log-terms all vanish, and no scale is identified
        scale = math.nan
    elif not boundary and not (math.isfinite(scale) and scale > 0.0):
        raise DegenerateExceedancesError("exceedance fit collapsed to a non-positive scale")
    p_raw = 1.0 - (1.0 - pi_hat) * tail.p_k
    clipped = not (0.0 <= p_raw <= 1.0)
    p_hat = min(max(p_raw, 0.0), 1.0)
    return PotFit(scale, pi_hat, p_hat, tail.p_k, loss, config.k, clipped, skipped, boundary)


def pot_gof_series(ordered, curve, domain, k, pi_hat, scale_hat) -> PlotSeries:
    """Exceedances against their fitted exponential quantiles.

    A straight diagonal indicates the exceedance model fits.  Points whose
    quantile argument hits the boundary are dropped and counted.
    """
    _check_level(pi_hat, "pi", InfeasiblePiError)
    check_real(scale_hat, "scale must be a positive real", lambda v: v > 0)
    tail = top_tail(ordered, curve, k)
    e, _, f_k = _exceedance_curve(ordered, tail.k, domain)
    arg = 1.0 - f_k / pi_hat
    keep = _admissible(PlottingModel.PARETO, arg)
    x = e[keep]
    y = -scale_hat * np.log(arg[keep])
    return PlotSeries(x, y, domain, tail.k, tail.k - int(np.count_nonzero(keep)))
