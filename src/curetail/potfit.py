"""Cure-fraction estimation from exceedances over a high threshold.

The top k observations, above the (k+1)-th largest (the threshold), carry
their own censored sub-sample; its product-limit curve estimates the law
above the threshold and plays the role the full curve plays in the plot
fits.  An event at the threshold time is already in the curve at the
threshold, so this curve counts it as censored.  Both variants read the
same curve: the Gumbel variant matches raw excesses against exponential
quantiles, the Frechet variant matches log-excesses.  The conditional
cure level pi of the exceedance law is estimated jointly with the scale,
and the unconditional cure fraction is recovered through the tail
probability of the threshold.
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
    _check_lam,
    _check_level,
    _golden_width,
    _kept_rows,
    minimize_on_interval,
    profile_levels,
)
from .survival import KaplanMeierCurve, OrderedSample, top_tail
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
    fraction ``1 - (1 - pi_hat) p_k``.  With pi_hat in (0, 1] and p_k in
    [0, 1] it cannot leave [0, 1], in floating point too, so ``clipped`` is
    always false; it stays for the key of the fit's JSON record.  For the
    Frechet domain ``scale_hat`` estimates the extreme-value index of the
    susceptible tail.
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


def pot_loss(domain, ordered, curve, k, scale, pi, lam):
    """Penalized exceedance loss at explicit scale and conditional level.

    The excesses and the exceedance curve are those of ``pot_fit``, and so
    are the rows: the Pareto rows ``-log(1 - F/pi)`` of ``_kept_rows``,
    against the excesses, with slope ``scale``.  The penalty acts on the
    recovered unconditional cure fraction.
    """
    check_real(scale, "scale must be a positive real", lambda v: v > 0)
    _check_lam(lam)
    e, f_k, pi_lower, penalty = _exceedance_setup(top_tail(ordered, curve, k), domain, lam)
    _check_level(pi, "pi", InfeasiblePiError, pi_lower)
    keep, rows = _kept_rows(PlottingModel.PARETO, f_k, pi)
    r = e[keep] - scale * rows
    return float(r @ r) + penalty(pi)


def _recovered(pi, p_k):
    """The unconditional cure fraction that the conditional level ``pi``
    recovers, given the probability ``p_k`` of exceeding the threshold."""
    return 1.0 - (1.0 - pi) * p_k


def _exceedance_setup(tail, domain, lam=0.0):
    """What ``pot_fit``, ``pot_loss`` and ``pot_gof_series`` read of the
    ``TopTail`` record ``tail``, once ``domain`` is checked.

    Returns ``(e, f_k, pi_lower, penalty)``: the excesses of the top k (log
    excesses for Frechet); the exceedance curve at them, the product-limit
    curve of the top k alone, the same for both domains; its last value,
    the feasibility bound of pi; and the penalty of the plot fits, ``lam``
    times the squared distance to p_n, on the fraction that a level or
    array of levels pi recovers (``_recovered``).
    """
    if not isinstance(domain, PotDomain):
        raise ValidationError(f"unknown exceedance domain {domain!r}")
    e, f_k = tail.excesses(log_scale=domain is PotDomain.FRECHET), tail.exceedance_curve()
    return e, f_k, float(f_k[-1]), lambda pi: lam * (_recovered(pi, tail.p_k) - tail.p_n) ** 2


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
    e, f_k, pi_lower, penalty = _exceedance_setup(tail, domain, config.resolved_lam(ordered.n))
    if float(e.max()) <= 0.0:
        raise DegenerateExceedancesError("all exceedances are zero")
    if float(e.max()) * math.sqrt(e.size) > _MAX_EXCESS_NORM:
        raise DegenerateExceedancesError("exceedances too large: their squared sum overflows")
    # every jump of the curve lifts it above 0, and the last time is past them all
    if pi_lower == 0.0:
        raise DegenerateExceedancesError("no events above the threshold among the top k")

    # e against the Pareto rows s = -log(1 - F/pi), with slope the scale
    pi_hat, (loss, scale, skipped) = minimize_on_interval(
        profile_levels(PlottingModel.PARETO, f_k, e, penalty),
        pi_lower, 1.0, config.p_grid_resolution, config.refine_tolerance,
        width=_golden_width(config.k),
    )
    boundary = pi_lower >= 1.0
    if boundary and scale == 0.0:
        # the kept log-terms all vanish, and no scale is identified
        scale = math.nan
    elif not boundary and not (math.isfinite(scale) and scale > 0.0):
        raise DegenerateExceedancesError("exceedance fit collapsed to a non-positive scale")
    return PotFit(scale, pi_hat, _recovered(pi_hat, tail.p_k), tail.p_k, loss, config.k,
                  skipped_terms=skipped, boundary=boundary)


def pot_gof_series(ordered, curve, domain, k, pi_hat, scale_hat) -> PlotSeries:
    """Exceedances against their fitted exponential quantiles.

    A straight diagonal indicates the exceedance model fits.  Points whose
    quantile argument hits the boundary are dropped and counted.
    """
    _check_level(pi_hat, "pi", InfeasiblePiError)
    check_real(scale_hat, "scale must be a positive real", lambda v: v > 0)
    tail = top_tail(ordered, curve, k)
    e, f_k, _, _ = _exceedance_setup(tail, domain)
    keep, rows = _kept_rows(PlottingModel.PARETO, f_k, pi_hat)
    return PlotSeries(e[keep], scale_hat * rows, domain, tail.k,
                      tail.k - int(np.count_nonzero(keep)))
