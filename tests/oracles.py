"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions and imports nothing from
the package: the product-limit curve is accumulated per distinct event time
with explicit risk-set counts, the losses are evaluated as arrays straight
from their formulas, the minimizer walks dense zooming grids with
parabola-vertex slope steps (the losses are exactly quadratic in their
slope), and the variance constant is the raw double sum.
"""
import numpy as np
from scipy.special import ndtri

# Transform arguments this close to {0, 1} drop their term from the sum.
BOUNDARY_EPS = 1e-15

# Most (level, term) elements one array evaluation of a loss holds.
BLOCK_ELEMENTS = 1 << 18

# Vertical plot coordinate of each plotting model at tail probability t.
TRANSFORMS = {
    "pareto": lambda t: -np.log(t),
    "weibull": lambda t: np.log(-np.log(t)),
    "lognormal": lambda t: -ndtri(t),
}


def km_direct(times, events):
    """Product-limit curve straight from the definition."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    ev_times = sorted(set(times[events == 1]))
    out_t, out_f = [], []
    surv = 1.0
    for tau in ev_times:
        d = int(np.sum((times == tau) & (events == 1)))
        at_risk = int(np.sum(times >= tau))
        surv *= 1.0 - d / at_risk
        out_t.append(tau)
        out_f.append(1.0 - surv)
    return np.array(out_t), np.array(out_f)


def km_direct_eval(times, events, at):
    """Right-continuous evaluation of the direct curve."""
    jt, fv = km_direct(times, events)
    at = np.atleast_1d(np.asarray(at, dtype=float))
    out = np.zeros_like(at)
    for i, t in enumerate(at):
        below = jt <= t
        out[i] = fv[below][-1] if np.any(below) else 0.0
    return out


def _plot_rows(model, f_top, f_thr, x, p_n, lam):
    """Regressor, response and penalty of the plot loss at levels p.

    The response is s(1 - F/p) minus its value at the threshold; a term
    whose argument is within BOUNDARY_EPS of 0 (or, except for Pareto,
    of 1) is dropped, and an inadmissible threshold drops every term.
    """
    def rows(p):
        t = 1.0 - np.append(f_top, f_thr) / p[:, None]
        ok = (t > BOUNDARY_EPS) & ((t < 1.0 - BOUNDARY_EPS) | (model == "pareto"))
        s = TRANSFORMS[model](np.where(ok, t, 0.5))
        keep = ok[:, :-1] & ok[:, -1:]
        y = np.where(keep, s[:, :-1] - s[:, -1:], 0.0)
        return np.where(keep, x, 0.0), y, lam * (p - p_n) ** 2
    return rows


def _pot_rows(e, f_exc, p_k, p_n, lam):
    """Regressor -log(1 - F/pi), response e and penalty of the exceedance
    loss at conditional levels pi; the slope is the scale.  A term whose
    argument is within BOUNDARY_EPS of 0 is dropped."""
    def rows(pi):
        arg = 1.0 - f_exc / pi[:, None]
        keep = arg > BOUNDARY_EPS
        penalty = lam * (1.0 - (1.0 - pi) * p_k - p_n) ** 2
        return -np.log(np.where(keep, arg, 1.0)), np.where(keep, e, 0.0), penalty
    return rows


def _profile(rows, levels, unit, offset):
    """Loss and slope at each level, the slope profiled by one parabola.

    The loss is probed at slopes unit * (offset + j) for j = 0, 1, 2 and
    evaluated at the vertex of the parabola through the probes, which is
    exact because the loss is quadratic in the slope.  A flat or concave
    parabola takes the best probe instead, and so does a vertex at a slope
    <= 0 when the probes start above 0 (the exceedance scale is positive).
    """
    x, y, penalty = rows(levels)

    def loss(slope):
        r = y - slope[:, None] * x
        return (r * r).sum(axis=1) + penalty

    f0, f1, f2 = (loss(np.full(levels.size, unit * (offset + j))) for j in range(3))
    a = (f0 - 2.0 * f1 + f2) / 2.0
    best = unit * (offset + np.argmin([f0, f1, f2], axis=0))
    vertex = unit * (offset + np.divide(f0 - f1 + a, 2.0 * a, out=np.zeros_like(a), where=a > 0))
    slope = np.where((a > 0) & ((vertex > 0) | (offset == 0)), vertex, best)
    return loss(slope), slope


def grid_oracle(times, events, k, model, lam, stages=3, points=600):
    """Dense-grid minimizer of one family's penalized loss over its level.

    ``times`` and ``events`` are the sample sorted by time, events first
    within ties; the top k times lie above the threshold, the (k+1)-th
    largest.  ``model`` is a plot model of TRANSFORMS (level p, slope on
    the log excesses) or "gumbel-pot" / "frechet-pot" (conditional level
    pi on the product-limit curve of the raw or log excesses, with the
    events at the threshold time censored, slope the scale).  The level
    grid of ``points`` zooms ``stages`` times from the curve's value at
    the largest time up to 1 and finishes with the two boundary
    candidates; the first of equal losses wins.  Levels are
    evaluated in blocks of at most BLOCK_ELEMENTS terms.  Returns the
    minimizing level, its slope and its loss.
    """
    times, events = np.asarray(times, dtype=float), np.asarray(events)
    thr, top = times[-k - 1], times[-k:]
    f = km_direct_eval(times, events, np.append(top, thr))
    p_n, log_e = f[-2], np.log(top) - np.log(thr)
    if model in TRANSFORMS:
        rows, lower, unit, offset = _plot_rows(model, f[:-1], f[-1], log_e, p_n, lam), p_n, 1.0, 0
    else:
        e = log_e if model == "frechet-pot" else top - thr
        # an event at the threshold time is in F(thr) already, not an exceedance
        f_exc = km_direct_eval(e, np.where(top > thr, events[-k:], 0), e)
        rows, lower = _pot_rows(e, f_exc, 1.0 - f[-1], p_n, lam), f_exc[-1]
        unit, offset = 0.5 * (float(np.mean(e)) + 1.0), 1

    def profiled(levels):
        size = max(1, BLOCK_ELEMENTS // k)
        parts = [_profile(rows, levels[i:i + size], unit, offset)
                 for i in range(0, levels.size, size)]
        return levels, *(np.concatenate(v) for v in zip(*parts))

    found, lo, hi = [], lower, 1.0
    for _ in range(stages if lower < 1.0 else 0):
        step = (hi - lo) / points
        found.append(profiled(lo + step * np.arange(1, points + 1)))
        grid, i = found[-1][0], int(np.argmin(found[-1][1]))
        lo = grid[i - 1] if i > 0 else lo + step * 1e-6
        hi = grid[min(i + 1, points - 1)]
    found.append(profiled(np.array([np.nextafter(lower, 1.0), 1.0])))
    level, loss, slope = (np.concatenate(v) for v in zip(*found))
    i = int(np.argmin(loss))
    return float(level[i]), float(slope[i]), float(loss[i])


def sigma2_naive(gamma_c, k):
    """Raw double sum over index pairs, O(k^2)."""
    j = np.arange(1, k + 1, dtype=float)
    a = 1.0 - (j / (k + 1)) ** (-gamma_c)
    j1, j2 = np.meshgrid(j, j, indexing="ij")
    m = np.maximum(j1, j2)
    ex = 1.0 + gamma_c
    if abs(ex) < 1e-12:
        h = np.log((k + 1) / m)
    else:
        h = (((k + 1) / m) ** ex - 1.0) / ex
    return float(np.sum(np.outer(a, a) * h)) / k**2
