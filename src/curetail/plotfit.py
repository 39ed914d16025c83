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
import threading
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
from .survival import KaplanMeierCurve, OrderedSample, top_tail
from .transforms import PlottingModel, _s_values

__all__ = [
    "FitConfig",
    "CureFit",
    "PlotSeries",
    "pp_loss",
    "pp_fit",
    "gof_series",
]

# Transform arguments this close to {0, 1} are treated as boundary hits
# and their terms dropped from the sum.
BOUNDARY_EPS = 1e-15

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Longest dot product that OpenBLAS runs on one thread whatever its count
_DOT_BLOCK = 10_000

# Most (level, term) elements one grid chunk of profile_levels, or one
# golden-section refinement call, holds; a grid chunk takes at least sixteen
# levels and a refinement call at least four (``_chunk_rows``,
# ``_golden_width``).  A chunk writes into its thread's ``_Workspace``,
# which the thread keeps between fits at the last size it needed, and
# allocates nothing of its size.  So a larger chunk only saves the fixed
# per-chunk cost (about 30-60 us for Pareto and Weibull rows, where one
# level of 100 terms costs about as much as two).  A wider refinement call
# also evaluates more tree points that the search never reads.  Measured in
# process on mc-largek (k = 3999; 2-core Intel Xeon, numpy 2.4; 6 rounds of
# 5 ops), per op: grid/refinement floors 16/4 took 120 ms, 8/4 took 123 ms,
# 4/4 took 135 ms and 16/16 took 139 ms.  The sixteen-level floor cuts a
# fit's grid from 129 chunks to 33 and moves no chunk at k <= 512.
PROFILE_CHUNK_ELEMENTS = 8192


@dataclass(frozen=True)
class FitConfig:
    """Knobs shared by the plot-based and exceedance-based fits.

    ``model`` is the ``PlottingModel`` of a plot fit and None for the
    exceedance fits.  ``lam`` is the penalty weight; None resolves to k/n
    at fit time.
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
        if self.model is not None:
            _check_model(self.model)
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


def _check_model(model) -> None:
    if not isinstance(model, PlottingModel):
        raise ValidationError(f"model must be a PlottingModel, got {model!r}")


def _check_level(value, label: str, error, lower: float = 0.0) -> None:
    """Raise ``error`` unless the level ``value`` lies in (lower, 1] and in (0, 1].

    1 stays admissible even when the feasibility bound itself reaches 1.
    """
    check_real(value, f"{label} must lie in (0, 1]", lambda v: 0.0 < v <= 1.0, error)
    if value <= lower and value != 1.0:
        raise error(f"{label} must exceed the feasibility bound {lower}, got {value}")


def _admissible(model: PlottingModel, t: np.ndarray, out=None) -> np.ndarray:
    """Where the transform arguments ``t = 1 - F/p`` stay clear of the boundary.

    The Pareto transform stays finite as its argument reaches 1 (value
    0), so only the lower boundary is guarded there; the other two
    transforms diverge at both ends.  The mask goes to ``out`` when given.
    """
    ok = np.greater(t, BOUNDARY_EPS, out=out)
    if model is not PlottingModel.PARETO:
        ok &= t < 1.0 - BOUNDARY_EPS
    return ok


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
    matrix-vector product sums rows in an order that does.  OpenBLAS
    splits a dot product of more than ``_DOT_BLOCK`` terms across its
    threads, so a longer row is summed block by block, left to right, and
    its bits do not depend on the BLAS thread count either.
    """
    if a.shape[-1] <= _DOT_BLOCK:
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
    total = _rowdot(a[..., :_DOT_BLOCK], b[..., :_DOT_BLOCK])
    for start in range(_DOT_BLOCK, a.shape[-1], _DOT_BLOCK):
        total += _rowdot(a[..., start:start + _DOT_BLOCK], b[..., start:start + _DOT_BLOCK])
    return total


def _chunk_rows(k: int) -> int:
    """Levels of ``k`` terms each that one ``profile_levels`` chunk holds."""
    return max(16, PROFILE_CHUNK_ELEMENTS // k)


def _golden_width(k: int) -> int:
    """Most levels of ``k`` terms each that one refinement call evaluates."""
    return max(4, PROFILE_CHUNK_ELEMENTS // k)


class _Workspace:
    """Scratch memory for ``profile_levels`` chunks of ``k`` terms: four
    float and two boolean buffers of ``_chunk_rows(k)`` levels by ``k + 1``
    columns, each one flat array that a chunk views in the shape it needs.

    A view is a C-contiguous row slice, so that a ufunc takes the same
    loop, and gives the same bits, as on a fresh array.  The thread that
    runs a fit owns the workspace (``_workspace``) and keeps the last
    size's buffers between fits: 262 KB at k = 100, 2 MB at k = 3999 and
    about 5 MB after a fit at k = 10 000.  Fits on several threads never
    share one.
    """

    def __init__(self, k: int):
        self.rows = _chunk_rows(k)
        self.shape = (self.rows, k + 1)
        self._buffers = (np.empty((4, self.rows * (k + 1))),
                         np.empty((2, self.rows * (k + 1)), dtype=bool))

    def floats(self, i: int, rows: int, cols: int) -> np.ndarray:
        return self._buffers[0][i, :rows * cols].reshape(rows, cols)

    def mask(self, i: int, rows: int, cols: int) -> np.ndarray:
        return self._buffers[1][i, :rows * cols].reshape(rows, cols)


_THREAD = threading.local()


def _workspace(k: int) -> _Workspace:
    """The calling thread's workspace for chunks of ``k`` terms, replaced
    only when ``_chunk_rows(k)`` or ``k`` changes its size."""
    work = getattr(_THREAD, "work", None)
    if work is None or work.shape != (_chunk_rows(k), k + 1):
        work = _THREAD.work = _Workspace(k)
    return work


def _masked(a: np.ndarray, keep: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.where(keep, a, 0.0)`` written into ``out``."""
    out.fill(0.0)
    np.copyto(out, a, where=keep)
    return out


def profile_levels(model, f, fixed, penalty, f_thr=None):
    """The profile of a fit: a function from a 1-d array of levels to their
    loss, profiled slope and skipped-term count.

    At a fixed level both fit families are a least-squares line through
    the origin on the kept terms, plus the penalty ``penalty(levels)``.
    With a threshold, as in the plot fit, the rows are ``s(1 - f/level) -
    s(1 - f_thr/level)``, with ``s`` the transform of ``model``: the
    response, against the regressor ``fixed``.  Without one, as in the
    exceedance fit, the rows are ``s(1 - f/level)``: the regressor,
    against the response ``fixed``.  Terms are
    kept by ``model``'s boundary rule (``_admissible``), and an
    inadmissible threshold drops every term of its level.  A level that
    keeps no term scores its penalty alone with a NaN slope; a kept
    regressor of zero norm gets slope 0.  The transform runs once per
    distinct value of ``f``, with the threshold as one more column; the
    curve is constant between event times.

    Levels are evaluated in chunks of ``_chunk_rows(k)`` levels (at most
    ``PROFILE_CHUNK_ELEMENTS`` terms, or sixteen levels when k is too large
    for that), in the calling thread's ``_Workspace``.  Its float buffer 2
    holds a chunk's transform arguments and then, in place, their
    transform; buffer 3 the rows, differenced from the threshold column or
    gathered from buffer 2, and with both, buffer 2 takes the gathered rows
    back.  Buffers 0 and 1 hold the masked regressor and response, and
    buffer 0 then the residual; until buffer 3 is written, the normal
    quantile uses buffers 0, 1 and 3 as scratch.  Boolean buffer 0 holds
    the admissible arguments, and buffer 1 first the inadmissible ones and
    then the gathered kept terms.

    A level's results do not depend on the other levels of the call, bit
    for bit, since each row is built from its level alone (in C order);
    ``_golden_min`` relies on this to evaluate points ahead of time.
    """
    k = f.size
    f_dist, gather = _distinct(f, costly=model is PlottingModel.LOGNORMAL)
    f_cols = f_dist if f_thr is None else np.append(f_dist, f_thr)
    cols, size = f_cols.size, f_dist.size

    def profile(levels):
        levels = np.asarray(levels, dtype=float)
        work = _workspace(k)
        loss = penalty(levels)
        slope = np.full(levels.size, math.nan)
        kept = np.full(levels.size, k)
        for start in range(0, levels.size, work.rows):
            part = slice(start, start + work.rows)
            rows = levels[part].size
            args = np.divide(f_cols, levels[part, None], out=work.floats(2, rows, cols))
            np.subtract(1.0, args, out=args)
            ok = _admissible(model, args, work.mask(0, rows, cols))
            keep = ok[:, :size]
            if f_thr is not None and not ok[:, size].all():
                keep &= ok[:, size:]
            masked = not keep.all()
            if masked:
                np.copyto(args, 0.5, where=np.logical_not(ok, out=work.mask(1, rows, cols)))
                if gather is not None:
                    keep = keep.take(gather, axis=1, out=work.mask(1, rows, k), mode="clip")
                kept[part] = np.count_nonzero(keep, axis=1)
                if not kept[part].any():
                    # e.g. Weibull and log-normal at F(threshold) = 0
                    continue
            scratch = None
            if model is PlottingModel.LOGNORMAL:
                scratch = tuple(work.floats(i, rows, cols) for i in (0, 1, 3))
            # at t_thr == 1 (F(threshold) = 0) only Pareto keeps terms, and s = 0
            w = _s_values(model, args, out=args, scratch=scratch)
            if f_thr is not None:
                w = np.subtract(w[:, :size], w[:, size:], out=work.floats(3, rows, size))
            if gather is not None:
                # take() keeps rows C-contiguous; w[:, gather] would not
                out = work.floats(2 if f_thr is not None else 3, rows, k)
                w = w.take(gather, axis=1, out=out, mode="clip")
            x, y = (w, fixed) if f_thr is None else (fixed, w)
            if masked:
                x = _masked(x, keep, work.floats(0, rows, k))
                y = _masked(y, keep, work.floats(1, rows, k))
            sxx = _rowdot(x, x)
            b = np.divide(_rowdot(x, y), sxx, out=np.zeros(rows), where=sxx != 0.0)
            # b * x goes over x itself when x is the masked copy in buffer 0
            r = np.multiply(b[:, None], x, out=work.floats(0, rows, k))
            np.subtract(y, r, out=r)
            loss[part] += _rowdot(r, r)
            slope[part] = b
        slope[kept == 0] = math.nan
        return loss, slope, k - kept

    return profile


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
    values, the quantity to minimize first, as a profile from
    ``profile_levels`` does; a point's values must not depend on the other
    points of its call.
    Returns ``(x, values)``: the minimizing argument and the entries of
    that tuple at it, as Python scalars read back from the call that
    evaluated it.  A collapsed interval (``lower >= upper``) evaluates
    ``upper`` alone and returns it.

    The grid is one call with all ``resolution`` points plus the boundary
    notch, the first representable point past the open lower end.
    Refines around every local minimum of the grid profile (up to the three
    deepest) with ``_golden_min``, whose calls hold at most ``width``
    points after the first pair of each basin; both fits pass
    ``_golden_width(k)``, at least four levels, while their grid call runs
    in kernel chunks of ``_chunk_rows(k)``, at least sixteen.  The two
    differ because they trade different costs: a grid chunk evaluates
    only points the search reads, so larger chunks just save the fixed
    cost per chunk, but a wider refinement call evaluates more points in
    vain (one call of ``2**depth - 1`` points serves ``depth`` steps).
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


def _kept_rows(model, f, level, f_thr=None):
    """The rows of one level, in the scalar form of ``profile_levels``.

    Returns ``(keep, rows)``: the terms of ``f`` that ``model``'s boundary
    rule (``_admissible``) keeps at ``level``, and their rows ``s(1 -
    f/level)``, less ``s(1 - f_thr/level)`` when a threshold is given.  An
    inadmissible threshold keeps no term.  The public losses and plot
    series read the rule here, apart from the kernel and its workspace, so
    that the tests can hold the kernel against them.
    """
    t = 1.0 - f / level
    keep = _admissible(model, t)
    if f_thr is not None:
        t_thr = np.float64(1.0 - f_thr / level)
        keep &= _admissible(model, t_thr)
    rows = _s_values(model, t[keep])
    if f_thr is not None and rows.size:
        rows = rows - _s_values(model, np.asarray([t_thr]))[0]
    return keep, rows


def pp_loss(model, ordered, curve, k, slope, p, lam):
    """Penalized plot loss at explicit slope and cure level.

    The rows and kept terms are those of ``pp_fit`` (``_kept_rows``), the
    log excesses the regressor; a level that keeps no term scores its
    penalty alone.
    """
    _check_model(model)
    tail = top_tail(ordered, curve, k)
    x = tail.excesses(log_scale=True)
    _check_level(p, "p", InfeasiblePError, tail.p_n)
    _check_lam(lam)
    check_real(slope, "slope must be a finite real")
    keep, rows = _kept_rows(model, tail.f_top, p, tail.f_thr)
    r = rows - slope * x[keep]
    return float(r @ r) + lam * (p - tail.p_n) ** 2


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
    lam = config.resolved_lam(ordered.n)
    p_hat, (loss, slope, skipped) = minimize_on_interval(
        profile_levels(model, tail.f_top, x, lambda p: lam * (p - p_n) ** 2, tail.f_thr),
        p_n, 1.0, config.p_grid_resolution, config.refine_tolerance,
        width=_golden_width(config.k),
    )
    return CureFit(p_hat, slope, loss, p_n, config.k, p_n, skipped, boundary=p_n >= 1.0)


def gof_series(model, ordered, curve, k, p_hat) -> PlotSeries:
    """Probability-plot coordinates of the top k observations at ``p_hat``.

    Points whose transform argument hits a boundary are dropped and
    counted.  ``p_hat`` may sit anywhere in (0, 1]; diagnostic use does not
    require feasibility beyond that.
    """
    _check_model(model)
    tail = top_tail(ordered, curve, k)
    tail.excesses(log_scale=True)  # refuses a non-positive threshold, as the fits do
    _check_level(p_hat, "p", InfeasiblePError)
    keep, y = _kept_rows(model, tail.f_top, p_hat)
    return PlotSeries(np.log(tail.times[keep]), y, model, tail.k,
                      tail.k - int(np.count_nonzero(keep)))
