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
    ValidationError,
    check_int,
    check_real,
)
from .survival import KaplanMeierCurve, OrderedSample, p_benchmark, top_tail
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

# Most (level, term) elements one profile_levels chunk holds, unless four
# levels need more; it bounds the grid's chunks and every golden-section
# refinement call alike.  Larger chunks raise peak memory; smaller ones pay
# the kernel's fixed per-chunk cost more often.  That cost is about 30-60
# us for Pareto and Weibull rows (Intel Xeon, numpy 2.4): one level of 100
# terms costs about as much as two.  At k = 3999 a chunk of two levels
# took 96-126 us and one of four 127-175 us, so the four-level floor
# halves a large-k grid's chunks for about a third more time per chunk.
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
        check_int(self.k, "k must be an integer >= 2", 2, error=InvalidKError)
        if self.lam is not None:
            _check_lam(self.lam)
        check_int(self.p_grid_resolution, "p_grid_resolution must be an integer >= 10", 10)
        check_real(self.refine_tolerance, "refine_tolerance must be a finite positive real",
                   lambda v: v > 0)

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


def _check_lam(lam) -> None:
    check_real(lam, "lam must be a finite non-negative real", lambda v: v >= 0)


def _check_level(value, label: str, error, lower: float = 0.0) -> None:
    """Raise ``error`` unless the level ``value`` lies in (lower, 1] and in (0, 1].

    1 stays admissible even when the feasibility bound itself reaches 1.
    """
    check_real(value, f"{label} must lie in (0, 1]", lambda v: 0.0 < v <= 1.0, error)
    if value <= lower and value != 1.0:
        raise error(f"{label} must exceed the feasibility bound {lower}, got {value}")


def _admissible(model: PlottingModel, t: np.ndarray) -> np.ndarray:
    """Where the transform arguments ``t = 1 - F/p`` stay clear of the boundary.

    The Pareto transform stays finite as its argument reaches 1 (value
    0), so only the lower boundary is guarded there; the other two
    transforms diverge at both ends.
    """
    ok = t > BOUNDARY_EPS
    if model is not PlottingModel.PARETO:
        ok &= t < 1.0 - BOUNDARY_EPS
    return ok


def _term_masks(model: PlottingModel, t_top: np.ndarray, t_thr: np.ndarray):
    """Retained-term mask and threshold admissibility.

    ``t_top = 1 - F/p`` holds the transform arguments of the top terms and
    ``t_thr`` that of the threshold, a numpy scalar or a column of levels
    that broadcasts against ``t_top``.  An inadmissible threshold drops
    every term of its level.
    """
    thr_ok = _admissible(model, t_thr)
    if not thr_ok.any():
        return np.zeros(t_top.shape, dtype=bool), thr_ok
    keep = _admissible(model, t_top)
    if not thr_ok.all():
        keep &= thr_ok
    return keep, thr_ok


def _distinct(values: np.ndarray, costly: bool = False):
    """Distinct values and the index that gathers ``values`` back from them.

    Returns ``(values, None)`` when gathering would save nothing or,
    unless the transform to run on the values is ``costly``, less than
    half of the elements.  The normal quantile costs about 30 gathers per
    element, so it pays to skip any repeated value; for the logarithms a
    gather costs nearly what it saves.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    if uniq.size == values.size or (not costly and 2 * uniq.size > values.size):
        return values, None
    return uniq, inverse


def _rowdot(a: np.ndarray, b: np.ndarray):
    """Row-wise dot products of two arrays that broadcast to (rows, k).

    Every row is reduced on its own, as one (1, k) @ (k, 1) product, so a
    row's sum does not depend on how many rows share the call; a
    matrix-vector product sums rows in an order that does.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _chunk_rows(k: int) -> int:
    """Levels of ``k`` terms each that one ``profile_levels`` chunk holds."""
    return max(4, PROFILE_CHUNK_ELEMENTS // k)


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
    ``_chunk_rows(k)`` levels: at most ``PROFILE_CHUNK_ELEMENTS`` terms,
    or four levels when k is too large for that.

    A level's results do not depend on the other levels of the call, bit
    for bit, provided ``terms`` builds each row from its level alone (in
    C order); ``_golden_min`` relies on this to evaluate points ahead of
    time.
    """
    levels = np.asarray(levels, dtype=float)
    loss = np.empty(levels.size)
    slope = np.full(levels.size, math.nan)
    kept = np.full(levels.size, k)
    rows = _chunk_rows(k)
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


def _plot_terms(model, tail, x, lam):
    """Plot-fit rows for ``profile_levels``: y = s(1 - F/p) - s_thr against x.

    The transform runs once per distinct curve value, with the threshold
    as one more column; the curve is constant between event times.
    """
    f_dist, gather = _distinct(tail.f_top, costly=model is PlottingModel.LOGNORMAL)
    f_cols = np.append(f_dist, tail.f_thr)

    def terms(p):
        penalty = lam * (p - tail.p_n) ** 2
        # one buffer of transform arguments, the threshold in the last column
        args = f_cols / p[:, None]
        np.subtract(1.0, args, out=args)
        t, t_thr = args[:, :-1], args[:, -1:]
        keep, thr_ok = _term_masks(model, t, t_thr)
        if keep.all():
            keep = None
        elif not keep.any():
            # e.g. Weibull and log-normal at F(threshold) = 0
            return x, None, keep, penalty
        else:
            np.copyto(t, 0.5, where=~keep)
            np.copyto(t_thr, 0.5, where=~thr_ok)
        # at t_thr == 1 (F(threshold) = 0) only Pareto keeps terms, and -log 1 = 0
        s = _s_values(model, args)
        y = s[:, :-1] - s[:, -1:]
        if gather is not None:
            # take() keeps rows C-contiguous; y[:, gather] would not
            y = y.take(gather, axis=1)
            if keep is not None:
                keep = keep.take(gather, axis=1)
        return x, y, keep, penalty

    return terms


def _golden_tree(a: float, b: float, c: float, d: float, left: bool, steps: int, xtol: float):
    """Every point the next ``steps`` golden-section steps can evaluate.

    The search sits at bracket (a, b) with inner points c < d, and ``left``
    is the outcome of ``fc <= fd`` that decides the next step.  Each step
    adds one point and the comparison of its value decides the step after,
    so the points form a binary tree of at most ``2**steps - 1`` nodes,
    computed here with the search's own expressions.  A branch ends where
    the search would stop on ``xtol``.
    """
    if left:
        c_left = d - _INVPHI * (d - a)
        states, points = [(a, d, c_left, c)], [c_left]
    else:
        d_right = c + _INVPHI * (b - c)
        states, points = [(c, b, d, d_right)], [d_right]
    for _ in range(steps - 1):
        grown = []
        for a, b, c, d in states:
            if b - a <= xtol:
                continue
            c_left = d - _INVPHI * (d - a)
            d_right = c + _INVPHI * (b - c)
            points += (c_left, d_right)
            grown += ((a, d, c_left, c), (c, b, d, d_right))
        states = grown
    return points


def _golden_min(fun, a: float, b: float, xtol: float, width: int = 1):
    """Golden-section minimizer biased toward the left end under ties.

    ``fun`` maps a 1-d array of points to the array of their values, and
    must give a point the same value whatever else shares its call.  The
    first inner pair is one call of 2 points.  After that, each call
    evaluates the whole tree of points that the next ``depth`` steps can
    reach, ``2**depth - 1 <= width`` of them (``depth`` at least 1), and
    the steps are then replayed against those values exactly as a
    one-point-per-call search takes them: same points, same ``fc <= fd``
    tie rule, same 200-step cap.  A replayed point missing from its batch
    raises ``KeyError``.  ``width=1`` is the plain sequential search.  A
    wider call saves calls but evaluates points on branches the search
    does not take: a tree of ``2**depth - 1`` points serves ``depth``
    steps.
    """
    depth = max(1, (width + 1).bit_length() - 1)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = (float(v) for v in fun(np.array([c, d])))
    if fc <= fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d, fd
    for step in range(200):
        if b - a <= xtol:
            break
        if step % depth == 0:
            points = _golden_tree(a, b, c, d, fc <= fd, min(depth, 200 - step), xtol)
            values = dict(zip(points, np.asarray(fun(np.array(points)), dtype=float).tolist()))
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = values[c]
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = values[d]
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def minimize_on_interval(fun, lower: float, upper: float, resolution: int, xtol: float,
                         *, width: int = 1):
    """Dense grid over (lower, upper] followed by golden-section refinement.

    ``fun`` maps a 1-d array of arguments to a tuple of arrays of their
    values, the quantity to minimize first, as ``profile_levels`` does; a
    point's values must not depend on the other points of its call.
    Returns ``(x, values)``: the minimizing argument and the entries of
    that tuple at it, as Python scalars read back from the call that
    evaluated it.  A collapsed interval (``lower >= upper``) evaluates
    ``upper`` alone and returns it.

    The grid is one call with all ``resolution`` points plus the boundary
    notch, the first representable point past the open lower end.
    Refines around every local minimum of the grid profile (up to the three
    deepest) with ``_golden_min``, whose calls hold at most ``width``
    points after the first pair of each basin; both fits pass
    ``_chunk_rows(k)``, so ``PROFILE_CHUNK_ELEMENTS`` bounds the grid's
    kernel chunks and every refinement call alike.  A wider call trades
    the fixed cost of a call to ``fun`` against the points it evaluates
    in vain: one call of ``2**depth - 1`` points serves ``depth`` steps.
    The notch wins when it beats every refined basin.  Ties resolve to
    the smallest argument.
    """
    calls = []

    def minimized(xs):
        values = fun(xs)
        calls.append((xs, values))
        return values[0]

    def at(x):
        for xs, values in calls:
            hit = np.flatnonzero(xs == x)
            if hit.size:
                return x, tuple(v[hit[0]].item() for v in values)

    if lower >= upper:
        minimized(np.array([upper]))
        return at(upper)
    grid = lower + (upper - lower) * np.arange(1, resolution + 1) / resolution
    notch = np.nextafter(lower, upper)
    probe = notch < upper
    vals = np.asarray(minimized(np.append(grid, notch) if probe else grid), dtype=float)
    vals, notch_f = vals[:resolution], float(vals[-1])
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
        x, f = _golden_min(minimized, float(a), float(b), xtol, width)
        if f < best_f or (f == best_f and x < best_x):
            best_x, best_f = x, f
    if probe and (notch_f < best_f or (notch_f == best_f and notch < best_x)):
        best_x = float(notch)
    return at(best_x)


def pp_loss(model, ordered, curve, k, slope, p, lam, p_n=None):
    """Penalized plot loss at explicit slope and cure level.

    Terms whose transform argument falls within ``BOUNDARY_EPS`` of {0, 1}
    are dropped; an inadmissible threshold transform drops every term,
    leaving only the penalty.
    """
    tail = top_tail(ordered, curve, k)
    x = tail.excesses(log_scale=True)
    p_n = tail.p_n if p_n is None else p_n
    check_real(p_n, "p_n must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    _check_level(p, "p", InfeasiblePError, p_n)
    _check_lam(lam)
    check_real(slope, "slope must be a finite real")
    penalty = lam * (p - p_n) ** 2
    t_top = 1.0 - tail.f_top / p
    t_thr = np.float64(1.0 - tail.f_thr / p)
    keep, _ = _term_masks(model, t_top, t_thr)
    if not keep.any():
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
    tail = top_tail(ordered, curve, config.k)
    x = tail.excesses(log_scale=True)
    if not np.any(x > 0):
        raise DegenerateRegressorError("top k+1 observations coincide; no slope identifiable")
    p_n = tail.p_n
    terms = _plot_terms(model, tail, x, config.resolved_lam(ordered.n))
    p_hat, (loss, slope, skipped) = minimize_on_interval(
        lambda p: profile_levels(p, config.k, terms), p_n, 1.0,
        config.p_grid_resolution, config.refine_tolerance, width=_chunk_rows(config.k),
    )
    return CureFit(p_hat, slope, loss, p_n, config.k, p_n, skipped, boundary=p_n >= 1.0)


def gof_series(model, ordered, curve, k, p_hat) -> PlotSeries:
    """Probability-plot coordinates of the top k observations at ``p_hat``.

    Points whose transform argument hits a boundary are dropped and
    counted.  ``p_hat`` may sit anywhere in (0, 1]; diagnostic use does not
    require feasibility beyond that.
    """
    tail = top_tail(ordered, curve, k)
    tail.excesses(log_scale=True)  # refuses a non-positive threshold, as the fits do
    _check_level(p_hat, "p", InfeasiblePError)
    t_top = 1.0 - tail.f_top / p_hat
    keep = _admissible(model, t_top)
    x = np.log(tail.times[keep])
    y = _s_values(model, t_top[keep])
    return PlotSeries(x, y, model, tail.k, tail.k - int(np.count_nonzero(keep)))
