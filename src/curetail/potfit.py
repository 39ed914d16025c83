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
)
from .plotfit import (
    BOUNDARY_EPS,
    FitConfig,
    PlotSeries,
    _distinct,
    _profile_at,
    minimize_on_interval,
    p_benchmark,
    profile_levels,
)
from .survival import (
    KaplanMeierCurve,
    OrderedSample,
    exceedances,
    km_eval,
    km_fit,
)

__all__ = ["PotDomain", "PotFit", "pot_loss", "pot_fit", "pot_gof_series"]


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


def _check_pi(pi: float, lower: float) -> None:
    if not (isinstance(pi, (int, float)) and math.isfinite(pi)) or not (0.0 < pi <= 1.0):
        raise InfeasiblePiError(f"pi must lie in (0, 1], got {pi!r}")
    if pi <= lower and pi != 1.0:
        raise InfeasiblePiError(f"pi must exceed the feasibility bound {lower}, got {pi}")


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
    if not (isinstance(scale, (int, float)) and math.isfinite(scale) and scale > 0):
        raise ValidationError(f"scale must be a positive real, got {scale!r}")
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam >= 0):
        raise ValidationError(f"lam must be a finite non-negative real, got {lam!r}")
    lower = float(exc_curve.cdf_values[-1]) if exc_curve.jump_times.size else 0.0
    _check_pi(pi, lower)
    f_k = np.asarray(km_eval(exc_curve, e))
    arg = 1.0 - f_k / pi
    keep = arg > BOUNDARY_EPS
    p = 1.0 - (1.0 - pi) * p_k
    penalty = lam * (p - p_n) ** 2
    if not np.any(keep):
        return penalty
    r = e[keep] + scale * np.log(arg[keep])
    return float(r @ r) + penalty


def _pot_terms(e, f_k, lam, p_n, p_k):
    """Exceedance-fit rows for ``profile_levels``: e against w = log(1 - F/pi).

    The profiled slope is minus the scale.  The logarithm runs once per
    distinct value of the conditional curve.
    """
    f_dist, gather = _distinct(f_k)

    def terms(pi):
        arg = 1.0 - f_dist / pi[:, None]
        keep = arg > BOUNDARY_EPS
        all_kept = bool(keep.all())
        w = np.log(arg if all_kept else np.where(keep, arg, 1.0))
        if gather is not None:
            w = w[:, gather]
            keep = keep[:, gather]
        p = 1.0 - (1.0 - pi) * p_k
        return w, e, None if all_kept else keep, lam * (p - p_n) ** 2

    return terms


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
    if not isinstance(domain, PotDomain):
        raise ValidationError(f"unknown exceedance domain {domain!r}")
    exc = exceedances(ordered, config.k, log_scale=domain is PotDomain.FRECHET)
    e = exc.times
    if float(e.max()) <= 0.0:
        raise DegenerateExceedancesError("all exceedances are zero")
    exc_curve = km_fit(exc)
    if exc_curve.jump_times.size == 0:
        raise DegenerateExceedancesError("no events among the top k observations")
    f_k = np.asarray(km_eval(exc_curve, e))
    n = ordered.n
    threshold = float(ordered.sorted_times[n - config.k - 1])
    p_k = 1.0 - float(km_eval(curve, threshold))
    p_n = p_benchmark(curve, ordered)
    lam = config.resolved_lam(n)
    pi_lower = float(exc_curve.cdf_values[-1])

    terms = _pot_terms(e, f_k, lam, p_n, p_k)
    if pi_lower >= 1.0:
        loss, slope, skipped = _profile_at(1.0, config.k, terms)
        # slope 0: the kept log-terms all vanish, and no scale is identified
        scale = -slope if slope != 0.0 else math.nan
        return PotFit(scale, 1.0, 1.0, p_k, loss, config.k, False, skipped, boundary=True)

    pi_hat, _ = minimize_on_interval(
        lambda pi: profile_levels(pi, config.k, terms)[0],
        pi_lower, 1.0, config.p_grid_resolution, config.refine_tolerance,
    )
    loss, slope, skipped = _profile_at(pi_hat, config.k, terms)
    scale = -slope
    if not (math.isfinite(scale) and scale > 0.0):
        raise DegenerateExceedancesError(
            "exceedance fit collapsed to a non-positive scale"
        )
    p_raw = 1.0 - (1.0 - pi_hat) * p_k
    clipped = not (0.0 <= p_raw <= 1.0)
    p_hat = min(max(p_raw, 0.0), 1.0)
    return PotFit(scale, float(pi_hat), float(p_hat), p_k, loss, config.k, clipped, skipped)


def pot_gof_series(ordered, curve, domain, k, pi_hat, scale_hat) -> PlotSeries:
    """Exceedances against their fitted exponential quantiles.

    A straight diagonal indicates the exceedance model fits.  Points whose
    quantile argument hits the boundary are dropped and counted.
    """
    if not isinstance(domain, PotDomain):
        raise ValidationError(f"unknown exceedance domain {domain!r}")
    if not (isinstance(pi_hat, (int, float)) and math.isfinite(pi_hat)) or not (
        0.0 < pi_hat <= 1.0
    ):
        raise InfeasiblePiError(f"pi must lie in (0, 1], got {pi_hat!r}")
    if not (isinstance(scale_hat, (int, float)) and math.isfinite(scale_hat) and scale_hat > 0):
        raise ValidationError(f"scale must be a positive real, got {scale_hat!r}")
    exc = exceedances(ordered, k, log_scale=domain is PotDomain.FRECHET)
    e = exc.times
    exc_curve = km_fit(exc)
    f_k = np.asarray(km_eval(exc_curve, e))
    arg = 1.0 - f_k / pi_hat
    keep = arg > BOUNDARY_EPS
    x = e[keep]
    y = -scale_hat * np.log(arg[keep])
    return PlotSeries(x, y, domain, int(k), int(k - np.count_nonzero(keep)))
