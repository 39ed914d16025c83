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
from .transforms import PlottingModel, _s_values, _signed_s_values

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

# Most (level, term) elements one grid chunk of profile_levels holds, and
# most that one golden-section refinement call holds; a grid chunk takes at
# least sixteen levels and a refinement call at least four (``_chunk_rows``,
# ``_golden_width``).  A chunk writes into its thread's ``_Workspace``,
# which the thread keeps between fits at the last size it needed, and
# allocates nothing of its size.  So a larger chunk only saves the fixed
# per-chunk cost, about 20 us at k = 100, where a level costs about 0.4 us.
# A refinement call holds up to _golden_width(k) points of a predicted path;
# a basin's first call holds its inner pair and the first width - 2 steps
# (``_golden_min``).  The grid sizes and the first refinement sizes below
# were measured when every refinement call held the complete tree of the
# next golden-section steps; the call sizes named with them are those trees'
# sizes.  Measured in process on mc-smallk (k = 100; 2-core Intel Xeon,
# numpy 2.4, one BLAS thread; medians of 5 rounds of 300 ops), CPU per op
# for grid/refinement sizes: 24 576/3 072 (chunks of 245 levels, calls of
# 15) 4.52 ms; 8 192 for both (chunks of 81 levels, calls of 63) 5.06 ms;
# refinement 800, 3 200 or 6 400 (calls of 7, 31 or 63) 4.84, 4.77 and 4.96
# ms; grid 8 192, 16 384, 32 768 or 49 152 5.01, 4.86, 4.78 and 4.79 ms.  At
# k = 3999 (mc-largek) both floors apply (chunks of 16 levels, calls of 3),
# which measured best there: grid/refinement floors 16/4 took 120 ms per op,
# 8/4 123 ms, 4/4 135 ms and 16/16 139 ms.  With predicted paths, while
# complete trees still followed a path that served few steps, counted over
# the 100 mc-smallk replications, refinement 3 072, 4 096 and 6 400 (paths
# of 30, 40 and 64 steps) made 27.8, 24.0 and 23.6 profile calls and 2 856,
# 2 930 and 3 068 levels per op, at CPU per op within this host's noise of
# each other (5.0-5.5 ms), so the size stays; with paths alone, 3 072 makes
# 24.3 calls and 2 831 levels per op.
PROFILE_CHUNK_ELEMENTS = 24_576
REFINE_CALL_ELEMENTS = 3_072


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

    Every row is reduced on its own by ``np.vecdot``, the BLAS dot product
    that a (1, k) @ (k, 1) matmul also runs, at about half its fixed cost
    (0.7 against 1.3 us at 2 x 100); so a row's sum does not depend on how
    many rows share the call, where a matrix-vector product sums rows in an
    order that does.  OpenBLAS splits
    a dot product of more than ``_DOT_BLOCK`` terms across its threads, so
    a longer row is summed block by block, left to right, and its bits do
    not depend on the BLAS thread count either.
    """
    if a.shape[-1] <= _DOT_BLOCK:
        return np.vecdot(a, b)
    total = _rowdot(a[..., :_DOT_BLOCK], b[..., :_DOT_BLOCK])
    for start in range(_DOT_BLOCK, a.shape[-1], _DOT_BLOCK):
        total += _rowdot(a[..., start:start + _DOT_BLOCK], b[..., start:start + _DOT_BLOCK])
    return total


def _chunk_rows(k: int) -> int:
    """Levels of ``k`` terms each that one ``profile_levels`` chunk holds."""
    return max(16, PROFILE_CHUNK_ELEMENTS // k)


def _golden_width(k: int) -> int:
    """Most levels of ``k`` terms each that one refinement call evaluates."""
    return max(4, REFINE_CALL_ELEMENTS // k)


class _Workspace:
    """Scratch memory for ``profile_levels`` chunks of ``k`` terms: four
    float and two boolean buffers of ``_chunk_rows(k)`` levels by ``k + 1``
    columns, each one flat array that a chunk views in the shape it needs.

    A view is a C-contiguous row slice, so that a ufunc takes the same
    loop, and gives the same bits, as on a fresh array.  The thread that
    runs a fit owns the workspace (``_workspace``) and keeps the last
    size's buffers between fits: 792 KB at k = 100, 2 MB at k = 3999 and
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
    transform up to sign (``_signed_s_values``); buffer 3 the rows, differenced from the threshold column or
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
    # _signed_s_values gives w = -s but for Weibull.  Negation is exact, so
    # the rows w_thr - w, and the slope and squared residuals of -fixed
    # against w, are those of s to the bit
    flip = model is not PlottingModel.WEIBULL
    if f_thr is None and flip:
        fixed = np.negative(fixed)
    fixed_sxx = _rowdot(fixed, fixed)

    def profile(levels):
        levels = np.asarray(levels, dtype=float)
        work = _workspace(k)
        loss = penalty(levels)
        slope = np.empty(levels.size)
        skipped = np.zeros(levels.size, dtype=int)
        for start in range(0, levels.size, work.rows):
            part = slice(start, start + work.rows)
            rows = levels[part].size
            args = np.divide(f_cols, levels[part, None], out=work.floats(2, rows, cols))
            np.subtract(1.0, args, out=args)
            ok = _admissible(model, args, work.mask(0, rows, cols))
            masked = not ok.all()
            if masked:
                keep = ok[:, :size]
                if f_thr is not None:
                    keep &= ok[:, size:]
                np.copyto(args, 0.5, where=np.logical_not(ok, out=work.mask(1, rows, cols)))
                if gather is not None:
                    keep = keep.take(gather, axis=1, out=work.mask(1, rows, k), mode="clip")
                kept = np.count_nonzero(keep, axis=1)
                skipped[part] = k - kept
                if not kept.any():
                    # e.g. Weibull and log-normal at F(threshold) = 0
                    slope[part] = math.nan
                    continue
            scratch = None
            if model is PlottingModel.LOGNORMAL:
                scratch = tuple(work.floats(i, rows, cols) for i in (0, 1, 3))
            # at t_thr == 1 (F(threshold) = 0) only Pareto keeps terms, and s = 0
            w = _signed_s_values(model, args, out=args, scratch=scratch)
            if f_thr is not None:
                lhs, rhs = (w[:, size:], w[:, :size]) if flip else (w[:, :size], w[:, size:])
                w = np.subtract(lhs, rhs, out=work.floats(3, rows, size))
            if gather is not None:
                # take() keeps rows C-contiguous; w[:, gather] would not
                out = work.floats(2 if f_thr is not None else 3, rows, k)
                w = w.take(gather, axis=1, out=out, mode="clip")
            x, y = (w, fixed) if f_thr is None else (fixed, w)
            if masked:
                x = _masked(x, keep, work.floats(0, rows, k))
                y = _masked(y, keep, work.floats(1, rows, k))
            sxx = fixed_sxx if x is fixed else _rowdot(x, x)
            b = np.divide(_rowdot(x, y), sxx, out=np.zeros(rows), where=sxx != 0.0)
            # b * x goes over x itself when x is the masked copy in buffer 0
            r = np.multiply(b[:, None], x, out=work.floats(0, rows, k))
            np.subtract(y, r, out=r)
            loss[part] += _rowdot(r, r)
            if masked:
                b[kept == 0] = math.nan
            slope[part] = b
        return loss, slope, skipped

    return profile


def _golden_step(a: float, b: float, c: float, d: float, left: bool):
    """The bracket ``(a, b, c, d)`` after one golden-section step from bracket
    (a, b) with inner points c < d, left when ``fc <= fd`` holds; the step's
    new point is the new ``c`` after a left step and the new ``d`` after a
    right one.  These are the one-point search's own expressions."""
    if left:
        return a, d, d - _INVPHI * (d - a), c
    return c, b, d, c + _INVPHI * (b - c)


def _golden_path(a: float, b: float, c: float, d: float, left: bool, steps: int,
                 guess: float, xtol: float):
    """The next golden-section steps along the path that ``guess`` predicts,
    as ``(side, point)`` pairs, ``side`` being the ``fc <= fd`` outcome
    that takes the step.

    The search sits at bracket (a, b) with inner points c < d.  The first
    step goes to the side ``left`` gives; each step after it goes left when
    ``guess <= (c + d) / 2`` on the bracket it starts from.  The path ends
    after ``steps`` steps or where its bracket is no wider than ``xtol``,
    where the one-point search stops too.
    """
    path = []
    while len(path) < steps and b - a > xtol:
        a, b, c, d = _golden_step(a, b, c, d, left)
        path.append((left, c if left else d))
        left = guess <= (c + d) / 2
    return path


def _vertex(a, b, c, d, fa, fb, fc, fd) -> float:
    """Where the parabola through the bracket's best inner point and its two
    neighbours has its vertex, the guess ``_golden_path`` follows.

    The three points are (a, c, d) when ``fc <= fd`` and (c, d, b)
    otherwise (the parabolic step of Brent, 1973).  A tie ``fc == fd``
    gives ``a``, which predicts a left step at every step, since the
    one-point search steps left on a tie, as it does along a plateau.  A
    vertex that is not finite or lies outside [a, b] gives ``a`` when
    ``fc <= fd`` and ``b`` otherwise; an unknown end value is ``inf``,
    which makes the vertex NaN.
    """
    left = fc <= fd
    x1, f1, x2, f2, x3, f3 = (a, fa, c, fc, d, fd) if left else (c, fc, d, fd, b, fb)
    p, q = (x2 - x1) * (f2 - f3), (x2 - x3) * (f2 - f1)
    v = x2 - 0.5 * ((x2 - x1) * p - (x2 - x3) * q) / (p - q) if p != q and fc != fd else math.nan
    return v if a <= v <= b else (a if left else b)


def _values_at(call, i: int) -> tuple:
    """Entry ``i`` of each array of one objective call, as Python scalars."""
    return tuple(v[i].item() for v in call)


def _golden_min(a: float, b: float, xtol: float, width: int, guess: float,
                fa: float = math.inf, fb: float = math.inf):
    """Golden-section minimizer biased toward the left end under ties, as a generator.

    It takes the level-search protocol of ``_level_search``: each batch it
    yields is a 1-d array of points, and what is sent back is the
    profile's tuple of arrays of their values, the quantity to minimize
    first, for exactly those points; a point's values must not depend on
    what else shares its batch.  ``guess`` is where the minimum is
    expected, and ``fa`` and ``fb`` are the values at the bracket ends,
    ``inf`` where unknown; they only steer which points share a batch.

    Every batch is a predicted path (``_golden_path``) of at most
    ``max(width, 2)`` points.  The first is the inner pair and then
    ``width - 2`` steps toward ``guess``, whose first side is a guess too.
    Each batch after it holds up to ``width`` steps along the path that a
    parabola through the bracket predicts (``_vertex``); its first step is
    known, so it serves at least one.  The replay serves the next step of
    a batch while its side equals ``fc <= fd`` and yields a new path where
    it does not, so the values of a mispredicted step and of every step
    after it are never read.  The steps are those of a one-point-per-batch
    search: same points, same tie rule, same 200-step cap.  ``width=1`` is
    the plain sequential search.

    Returns ``(x, values)``: the best point the search took, the first of
    equal values winning, and every entry of the profile's tuple at it,
    read from the batch that held it.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    path = [(None, c), (None, d)]
    path += _golden_path(a, b, c, d, guess <= (c + d) / 2, min(width - 2, 200), guess, xtol)
    call = yield np.array([x for _, x in path])
    values = call[0].tolist()
    fc, fd = values[:2]
    # (value, point, call, index in the call) of the best point so far
    best = (fc, c, call, 0) if fc <= fd else (fd, d, call, 1)
    node = 2
    for step in range(200):
        if b - a <= xtol:
            break
        left = fc <= fd
        if node == len(path) or path[node][0] != left:
            path = _golden_path(a, b, c, d, left, min(width, 200 - step),
                                _vertex(a, b, c, d, fa, fb, fc, fd), xtol)
            call = yield np.array([x for _, x in path])
            values = call[0].tolist()
            node = 0
        x, fx = path[node][1], values[node]
        a, b, c, d, fa, fb, fc, fd = ((a, d, x, c, fa, fd, fx, fc) if left
                                      else (c, b, d, x, fc, fb, fd, fx))
        if fx < best[0]:
            best = (fx, x, call, node)
        node += 1
    _, x, call, i = best
    return x, _values_at(call, i)


def _level_search(lower: float, upper: float, resolution: int, xtol: float, width: int):
    """Dense grid over (lower, upper] followed by golden-section refinement, as a generator.

    Each batch it yields is a 1-d array of levels; the caller sends back
    the profile's tuple of arrays of their values, the quantity to
    minimize first, for exactly those levels, as a profile from
    ``profile_levels`` gives it.  A level's values must not depend on what
    else shares its batch.  ``minimize_on_interval`` drives it.

    A collapsed interval (``lower >= upper``) yields ``[upper]`` alone and
    returns it.  Otherwise the first batch is the grid, all ``resolution``
    points, plus the boundary notch, the first representable point past
    the open lower end.  Then ``_golden_min`` refines around every local
    minimum of the grid profile (up to the three deepest), on the bracket
    of its two grid neighbours, in batches of at most ``width`` points
    (two for a width below two).  Its first batch holds the inner pair and
    a path toward the guess that ``_vertex`` makes of the grid point and
    its two neighbours, the parabola through (a, c, d) with c the grid
    point and d = b; at the last grid point, which is the upper end of its
    bracket, the guess is that end.  It gets the grid's values at the
    bracket ends to aim its later paths; the end of a basin at the first
    or last grid point has no grid neighbour and gets ``inf``, which makes
    the first basin's guess its lower end.

    Returns ``(x, values)`` from one list of candidates: the grid's best
    point, one per refined basin, and the notch when it is probed.  The
    least value wins, and a tie goes to the smallest level; a NaN value is
    neither less than nor equal to any other, so a candidate with one
    neither replaces an earlier candidate nor is replaced by a later one.
    """
    if lower >= upper:
        return upper, _values_at((yield np.array([upper])), 0)
    grid = lower + (upper - lower) * np.arange(1, resolution + 1) / resolution
    notch = np.nextafter(lower, upper)
    probe = notch < upper
    call = yield np.append(grid, notch) if probe else grid
    vals = call[0][:resolution]
    # local minima of the sampled profile, endpoints included
    padded = np.concatenate(([np.inf], vals, [np.inf]))
    locmin = np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:]))
    order = locmin[np.argsort(vals[locmin], kind="stable")][:3]
    best = int(np.argmin(vals))
    candidates = [(float(grid[best]), _values_at(call, best))]
    for i in order:
        a, fa = (grid[i - 1], vals[i - 1]) if i > 0 else (lower + (upper - lower) * 1e-12, np.inf)
        b, fb = (grid[i + 1], vals[i + 1]) if i < resolution - 1 else (upper, np.inf)
        a, b, fa, fb = float(a), float(b), float(fa), float(fb)
        # the last grid point is the bracket's upper end, with one neighbour
        guess = b if i == resolution - 1 else _vertex(a, b, float(grid[i]), b, fa, fb,
                                                      float(vals[i]), fb)
        candidates.append((yield from _golden_min(a, b, xtol, width, guess, fa, fb)))
    if probe:
        candidates.append((float(notch), _values_at(call, resolution)))
    return min(candidates, key=lambda c: (c[1][0], c[0]))


def minimize_on_interval(fun, lower: float, upper: float, resolution: int, xtol: float,
                         *, width: int):
    """Minimize ``fun`` over (lower, upper] by ``_level_search``.

    This driver is the one place where the level search calls the
    profile.  ``fun`` maps each batch of levels the search yields, a 1-d
    array, to a tuple of arrays of their values, the quantity to minimize
    first, as a profile from ``profile_levels`` does; a level's values must
    not depend on the other levels of its batch.  Both fits pass a grid of
    ``resolution`` levels and a refinement ``width`` of ``_golden_width(k)``
    (see ``PROFILE_CHUNK_ELEMENTS``): the grid is one call, and each
    refinement call holds at most ``width`` levels, each basin's first call
    its inner pair and a predicted path.

    Returns ``(x, values)``: the minimizing level and the entries of
    ``fun``'s tuple at it, as Python scalars read from the call that
    evaluated it.
    """
    search, values = _level_search(lower, upper, resolution, xtol, width), None
    try:
        while True:
            values = fun(search.send(values))
    except StopIteration as stop:
        return stop.value


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


def _plot_setup(tail, lam=0.0):
    """What ``pp_fit``, ``pp_loss`` and ``gof_series`` read of the ``TopTail``
    record ``tail`` besides its curve: ``(x, p_n, penalty)``, the log
    excesses of the top k (refusing a non-positive threshold), the
    benchmark p_n that bounds the level from below, and the penalty on a
    level or array of levels p, ``lam`` times its squared distance to p_n."""
    return tail.excesses(log_scale=True), tail.p_n, lambda p: lam * (p - tail.p_n) ** 2


def pp_loss(model, ordered, curve, k, slope, p, lam):
    """Penalized plot loss at explicit slope and cure level.

    The rows and kept terms are those of ``pp_fit`` (``_kept_rows``), the
    log excesses the regressor; a level that keeps no term scores its
    penalty alone.
    """
    _check_model(model)
    tail = top_tail(ordered, curve, k)
    x, p_n, penalty = _plot_setup(tail, lam)
    _check_level(p, "p", InfeasiblePError, p_n)
    _check_lam(lam)
    check_real(slope, "slope must be a finite real")
    keep, rows = _kept_rows(model, tail.f_top, p, tail.f_thr)
    r = rows - slope * x[keep]
    return float(r @ r) + penalty(p)


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
    x, p_n, penalty = _plot_setup(tail, config.resolved_lam(ordered.n))
    if not np.any(x > 0):
        raise DegenerateRegressorError("top k+1 observations coincide; no slope identifiable")
    p_hat, (loss, slope, skipped) = minimize_on_interval(
        profile_levels(model, tail.f_top, x, penalty, tail.f_thr),
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
    _plot_setup(tail)  # refuses a non-positive threshold, as the fits do
    _check_level(p_hat, "p", InfeasiblePError)
    keep, y = _kept_rows(model, tail.f_top, p_hat)
    return PlotSeries(np.log(tail.times[keep]), y, model, tail.k,
                      tail.k - int(np.count_nonzero(keep)))
