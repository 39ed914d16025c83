"""Penalized probability-plot estimation of the cure fraction.

The observed distribution function of a sample with cure fraction p is
p times the distribution of the susceptible lifetimes; dividing the
product-limit estimate by a candidate p and sending the result through a
tail transform straightens the top of the plot when p is right and the
susceptible tail matches the plotting model.  The fit minimizes the
summed squared deviation from a line through the origin, plus a quadratic
penalty tying p to the nonparametric benchmark p_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRegressorError,
    InfeasiblePError,
    InvalidKError,
    NonPositiveThresholdError,
    ValidationError,
)
from .survival import KaplanMeierCurve, OrderedSample, km_eval
from .transforms import PlottingModel, _s_values

__all__ = [
    "FitConfig",
    "CureFit",
    "PlotSeries",
    "p_benchmark",
    "pp_loss",
    "pp_fit",
    "gof_series",
]

# Transform arguments this close to {0, 1} are treated as boundary hits
# and their terms dropped from the sum.
BOUNDARY_EPS = 1e-15

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Most (level, term) elements one profile_levels chunk holds.  Larger
# chunks raise peak memory; smaller ones pay numpy's per-call overhead
# more often.
PROFILE_CHUNK_ELEMENTS = 8192


@dataclass(frozen=True)
class FitConfig:
    """Knobs shared by the plot-based and exceedance-based fits.

    ``lam`` is the penalty weight; None resolves to k/n at fit time.
    ``p_grid_resolution`` points are placed on the feasible interval before
    golden-section refinement shrinks the best bracket below
    ``refine_tolerance``.
    """

    k: int
    model: PlottingModel | None = None
    lam: float | None = None
    p_grid_resolution: int = 512
    refine_tolerance: float = 1e-10

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 2:
            raise InvalidKError(f"k must be an integer >= 2, got {self.k!r}")
        if self.lam is not None and not (
            isinstance(self.lam, (int, float)) and math.isfinite(self.lam) and self.lam >= 0
        ):
            raise ValidationError(f"lam must be a finite non-negative real, got {self.lam!r}")
        res = self.p_grid_resolution
        if isinstance(res, bool) or not isinstance(res, (int, np.integer)) or res < 10:
            raise ValidationError(f"p_grid_resolution must be an integer >= 10, got {res!r}")
        if not (self.refine_tolerance > 0):
            raise ValidationError("refine_tolerance must be positive")

    def resolved_lam(self, n: int) -> float:
        return self.k / n if self.lam is None else float(self.lam)


@dataclass(frozen=True)
class CureFit:
    """Result of a penalized plot fit.

    ``slope_hat`` estimates the reciprocal extreme-value index (Pareto), the
    Weibull shape, or the reciprocal log-normal scale, depending on the
    model.  ``boundary`` marks the degenerate case p_n = 1 where the
    feasible interval collapses and p_hat = 1 is returned by convention.
    """

    p_hat: float
    slope_hat: float
    loss: float
    p_n: float
    k_used: int
    feasible_lower: float
    skipped_terms: int
    boundary: bool = False


@dataclass(frozen=True)
class PlotSeries:
    """Diagnostic plot coordinates, sorted by x; ``dropped`` counts the
    points lost to boundary transform arguments."""

    x: np.ndarray
    y: np.ndarray
    model: object
    k: int
    dropped: int = 0


def p_benchmark(curve: KaplanMeierCurve, ordered: OrderedSample) -> float:
    """Product-limit estimate at the largest observation.

    Equals 1 exactly when the largest observation is an uncensored event,
    and 0 when the sample has no events at all.
    """
    return float(km_eval(curve, float(ordered.sorted_times[-1])))


def _top_slice(ordered: OrderedSample, curve: KaplanMeierCurve, k: int):
    """Threshold, top-k times (ascending) and their curve values."""
    n = ordered.n
    if not isinstance(k, (int, np.integer)) or not (2 <= k <= n - 1):
        raise InvalidKError(f"k must be an integer in [2, {n - 1}], got {k!r}")
    threshold = float(ordered.sorted_times[n - k - 1])
    z_top = ordered.sorted_times[n - k:]
    f_top = km_eval(curve, z_top)
    f_thr = float(km_eval(curve, threshold))
    return threshold, z_top, f_top, f_thr


def _check_p(p: float, lower: float, label: str = "p") -> None:
    # p = 1 stays admissible even when the benchmark itself reaches 1.
    if not (isinstance(p, (int, float)) and math.isfinite(p)) or not (0.0 < p <= 1.0):
        raise InfeasiblePError(f"{label} must lie in (0, 1], got {p!r}")
    if p <= lower and p != 1.0:
        raise InfeasiblePError(f"{label} must exceed the feasibility bound {lower}, got {p}")


def _term_masks(model: PlottingModel, f_top: np.ndarray, f_thr: float, p):
    """Retained-term mask and threshold admissibility at cure level p.

    ``p`` is a scalar or a column of levels that broadcasts against
    ``f_top``.  The Pareto transform stays finite as its argument reaches
    1 (value 0), so only the lower boundary is guarded there; the other
    two transforms diverge at both ends.  An inadmissible threshold drops
    every term of its level.
    """
    t_top = 1.0 - f_top / p
    t_thr = 1.0 - f_thr / p
    pareto = model is PlottingModel.PARETO
    thr_ok = t_thr > BOUNDARY_EPS
    if not pareto:
        thr_ok = thr_ok & (t_thr < 1.0 - BOUNDARY_EPS)
    if not np.any(thr_ok):
        return t_top, t_thr, np.zeros(np.shape(t_top), dtype=bool), thr_ok
    keep = t_top > BOUNDARY_EPS
    if not pareto:
        keep &= t_top < 1.0 - BOUNDARY_EPS
    if not np.all(thr_ok):
        keep &= thr_ok
    return t_top, t_thr, keep, thr_ok


def _distinct(values: np.ndarray):
    """Distinct values and the index that gathers ``values`` back from them.

    Returns ``(values, None)`` when gathering would save less than half
    of the elements.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    if 2 * uniq.size > values.size:
        return values, None
    return uniq, inverse


def _rowdot(a: np.ndarray, b: np.ndarray):
    """Row-wise dot products of two arrays that broadcast to (rows, k)."""
    if a.ndim == 1:
        return b @ a
    if b.ndim == 1:
        return a @ b
    # a stack of (1, k) @ (k, 1) products; faster than einsum here
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def profile_levels(levels, k: int, terms):
    """Loss, profiled slope and skipped-term count at each level.

    At a fixed level both fit families are a least-squares line through
    the origin on the retained terms, plus a penalty on the level.
    ``terms(chunk)`` maps a 1-d array of levels to ``(x, y, keep,
    penalty)``: regressor and response, each ``(rows, k)`` or ``(k,)`` when
    the same at every level; the ``(rows, k)`` retained-term mask, or None
    when every term is kept; and the per-level penalty.  ``y`` is not read
    when no level of the chunk keeps a term.  A level that keeps
    no term scores its penalty alone with a NaN slope; a retained
    regressor of zero norm gets slope 0.  Levels are evaluated in chunks of
    at most ``PROFILE_CHUNK_ELEMENTS`` terms.
    """
    levels = np.asarray(levels, dtype=float)
    loss = np.empty(levels.size)
    slope = np.full(levels.size, math.nan)
    kept = np.full(levels.size, k)
    rows = max(1, PROFILE_CHUNK_ELEMENTS // k)
    for start in range(0, levels.size, rows):
        part = slice(start, start + rows)
        x, y, keep, penalty = terms(levels[part])
        loss[part] = penalty
        if keep is not None:
            kept[part] = np.count_nonzero(keep, axis=1)
            if not kept[part].any():
                continue
            x = np.where(keep, x, 0.0)
            y = np.where(keep, y, 0.0)
        sxx = _rowdot(x, x)
        b = np.divide(_rowdot(x, y), sxx, out=np.zeros(penalty.shape), where=sxx != 0.0)
        r = y - b[:, None] * x
        loss[part] += _rowdot(r, r)
        slope[part] = b
    slope[kept == 0] = math.nan
    return loss, slope, k - kept


def _profile_at(level: float, k: int, terms):
    """``profile_levels`` at a single level, as Python scalars."""
    loss, slope, skipped = profile_levels(np.array([level]), k, terms)
    return float(loss[0]), float(slope[0]), int(skipped[0])


def _plot_terms(model, f_top, f_thr, x, lam, p_n):
    """Plot-fit rows for ``profile_levels``: y = s(1 - F/p) - s_thr against x.

    The transform runs once per distinct curve value, with the threshold
    as one more column; the curve is constant between event times.
    """
    f_dist, gather = _distinct(f_top)

    def terms(p):
        penalty = lam * (p - p_n) ** 2
        t, t_thr, keep, thr_ok = _term_masks(model, f_dist, f_thr, p[:, None])
        if not keep.any():
            # e.g. Weibull and log-normal at F(threshold) = 0
            return x, None, keep, penalty
        all_kept = bool(keep.all())
        args = np.concatenate([t, t_thr], axis=1)
        if not all_kept:
            args = np.where(np.concatenate([keep, thr_ok], axis=1), args, 0.5)
        # at t_thr == 1 (F(threshold) = 0) only Pareto keeps terms, and -log 1 = 0
        s = _s_values(model, args)
        y = s[:, :-1] - s[:, -1:]
        if gather is not None:
            y = y[:, gather]
            keep = keep[:, gather]
        return x, y, None if all_kept else keep, penalty

    return terms


def _golden_min(fun, a: float, b: float, xtol: float):
    """Golden-section minimizer biased toward the left end under ties."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = fun(c)
    fd = fun(d)
    if fc <= fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d, fd
    for _ in range(200):
        if b - a <= xtol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def minimize_on_interval(fun, lower: float, upper: float, resolution: int, xtol: float):
    """Dense grid over (lower, upper] followed by golden-section refinement.

    ``fun`` maps a 1-d array of arguments to the array of their values.
    The grid is one call with all ``resolution`` points; golden-section
    refinement and the boundary probe call it with one point at a time.
    Refines around every local minimum of the grid profile (up to the three
    deepest) so narrow basins near the feasibility edge are not lost, then
    probes the left boundary notch.  Ties resolve to the smallest argument.
    """

    def at(v):
        return float(fun(np.array([v]))[0])

    grid = lower + (upper - lower) * np.arange(1, resolution + 1) / resolution
    vals = np.asarray(fun(grid), dtype=float)
    # local minima of the sampled profile, endpoints included
    lower_nb = np.r_[np.inf, vals[:-1]]
    upper_nb = np.r_[vals[1:], np.inf]
    locmin = np.flatnonzero((vals <= lower_nb) & (vals <= upper_nb))
    order = locmin[np.argsort(vals[locmin], kind="stable")][:3]
    best_x = float(grid[int(np.argmin(vals))])
    best_f = float(vals.min())
    for i in order:
        a = grid[i - 1] if i > 0 else lower + (upper - lower) * 1e-12
        b = grid[i + 1] if i < resolution - 1 else upper
        x, f = _golden_min(at, float(a), float(b), xtol)
        if f < best_f or (f == best_f and x < best_x):
            best_x, best_f = x, f
    # boundary notch: the first representable point past the open lower end
    notch = np.nextafter(lower, upper)
    if notch < upper:
        f = at(notch)
        if f < best_f or (f == best_f and notch < best_x):
            best_x, best_f = float(notch), f
    return best_x, best_f


def pp_loss(model, ordered, curve, k, slope, p, lam, p_n=None):
    """Penalized plot loss at explicit slope and cure level.

    Terms whose transform argument falls within ``BOUNDARY_EPS`` of {0, 1}
    are dropped; an inadmissible threshold transform drops every term,
    leaving only the penalty.
    """
    threshold, z_top, f_top, f_thr = _top_slice(ordered, curve, k)
    if threshold <= 0.0:
        raise NonPositiveThresholdError("plot regressors need a positive threshold")
    if p_n is None:
        p_n = p_benchmark(curve, ordered)
    _check_p(p, p_n)
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam >= 0):
        raise ValidationError(f"lam must be a finite non-negative real, got {lam!r}")
    x = np.log(z_top) - math.log(threshold)
    penalty = lam * (p - p_n) ** 2
    t_top, t_thr, keep, thr_ok = _term_masks(model, f_top, f_thr, p)
    if not np.any(keep):
        return penalty
    s_thr = float(_s_values(model, np.asarray([t_thr]))[0]) if t_thr < 1.0 else 0.0
    y = _s_values(model, t_top[keep]) - s_thr
    r = y - slope * x[keep]
    return float(r @ r) + penalty


def pp_fit(ordered: OrderedSample, curve: KaplanMeierCurve, config: FitConfig) -> CureFit:
    """Minimize the penalized plot loss over (p_n, 1] with profiled slope.

    The slope enters the loss quadratically and is profiled out exactly;
    the remaining 1-d profile is minimized by a dense grid plus
    golden-section refinement, with the smallest p winning ties.
    """
    if config.model is None:
        raise ValidationError("FitConfig.model must be set for a plot fit")
    model = config.model
    threshold, z_top, f_top, f_thr = _top_slice(ordered, curve, config.k)
    if threshold <= 0.0:
        raise NonPositiveThresholdError("plot regressors need a positive threshold")
    x = np.log(z_top) - math.log(threshold)
    if not np.any(x > 0):
        raise DegenerateRegressorError("top k+1 observations coincide; no slope identifiable")
    p_n = p_benchmark(curve, ordered)
    lam = config.resolved_lam(ordered.n)

    terms = _plot_terms(model, f_top, f_thr, x, lam, p_n)
    if p_n >= 1.0:
        loss, slope, skipped = _profile_at(1.0, config.k, terms)
        return CureFit(1.0, slope, loss, p_n, config.k, p_n, skipped, boundary=True)

    p_hat, _ = minimize_on_interval(
        lambda p: profile_levels(p, config.k, terms)[0],
        p_n, 1.0, config.p_grid_resolution, config.refine_tolerance,
    )
    loss, slope, skipped = _profile_at(p_hat, config.k, terms)
    return CureFit(float(p_hat), slope, loss, p_n, config.k, p_n, skipped)


def gof_series(model, ordered, curve, k, p_hat) -> PlotSeries:
    """Probability-plot coordinates of the top k observations at ``p_hat``.

    Points whose transform argument hits a boundary are dropped and
    counted.  ``p_hat`` may sit anywhere in (0, 1]; diagnostic use does not
    require feasibility beyond that.
    """
    threshold, z_top, f_top, _ = _top_slice(ordered, curve, k)
    if threshold <= 0.0:
        raise NonPositiveThresholdError("plot regressors need a positive threshold")
    if not (isinstance(p_hat, (int, float)) and math.isfinite(p_hat)) or not (0.0 < p_hat <= 1.0):
        raise InfeasiblePError(f"p must lie in (0, 1], got {p_hat!r}")
    t_top = 1.0 - f_top / p_hat
    if model is PlottingModel.PARETO:
        keep = t_top > BOUNDARY_EPS
    else:
        keep = (t_top > BOUNDARY_EPS) & (t_top < 1.0 - BOUNDARY_EPS)
    x = np.log(z_top[keep])
    y = _s_values(model, t_top[keep])
    return PlotSeries(x, y, model, int(k), int(k - np.count_nonzero(keep)))
