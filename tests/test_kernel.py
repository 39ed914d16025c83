"""The batched profile kernel against the scalar public losses.

``profile_levels`` evaluates a whole grid of cure levels in chunks; at
each level its loss must equal ``pp_loss``/``pot_loss`` evaluated at the
slope (or scale) it returns, and its skipped count must follow the
boundary rule written out below from the definitions.
"""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curetail import (
    PlottingModel,
    PotDomain,
    SurvivalSample,
    exceedances,
    km_eval,
    km_fit,
    order_sample,
    p_benchmark,
    pot_loss,
    pp_loss,
)
from curetail.plotfit import (
    BOUNDARY_EPS,
    PROFILE_CHUNK_ELEMENTS,
    _plot_terms,
    _top_slice,
    profile_levels,
)
from curetail.potfit import _pot_terms

RTOL = 1e-11
K_VALUES = (3, 40, 399)
PLOT_TAILS = {
    PlottingModel.PARETO: "pareto",
    PlottingModel.WEIBULL: "weibull",
    PlottingModel.LOGNORMAL: "lognormal",
}
POT_TAILS = {PotDomain.GUMBEL: "weibull", PotDomain.FRECHET: "pareto"}


def mixture(rng, n, tail, p=0.8):
    if tail == "pareto":
        life = (1.0 - rng.random(n)) ** -0.5
        cen = rng.uniform(1, 5, n)
    elif tail == "weibull":
        life = rng.weibull(0.8, n) * 2.0
        cen = rng.uniform(0, 5, n)
    else:
        life = np.exp(rng.standard_normal(n))
        cen = rng.uniform(0, 6, n)
    life = np.where(rng.random(n) < p, life, np.inf)
    return SurvivalSample(np.minimum(life, cen), (life <= cen).astype(int))


def grid_over(lower, k, chunks=3):
    """Levels in (lower, 1] spanning ``chunks`` full kernel chunks and a partial one."""
    size = chunks * max(1, PROFILE_CHUNK_ELEMENTS // k) + 5
    return lower + (1.0 - lower) * np.arange(1, size + 1) / size


def checked_indices(size, k):
    """Every level next to a chunk boundary, plus an even spread of the rest."""
    rows = max(1, PROFILE_CHUNK_ELEMENTS // k)
    near = [b + d for b in range(0, size, rows) for d in (-1, 0, 1)]
    spread = range(0, size, max(1, size // 60))
    return sorted({i for i in (*near, *spread, size - 1) if 0 <= i < size})


def plot_skipped(model, f_top, f_thr, p):
    """Terms the plot loss drops at level p, from the boundary rule."""
    t = 1.0 - f_top / p
    t_thr = 1.0 - f_thr / p
    if model is PlottingModel.PARETO:
        keep, thr_ok = t > BOUNDARY_EPS, t_thr > BOUNDARY_EPS
    else:
        keep = (t > BOUNDARY_EPS) & (t < 1.0 - BOUNDARY_EPS)
        thr_ok = BOUNDARY_EPS < t_thr < 1.0 - BOUNDARY_EPS
    return f_top.size if not thr_ok else int(f_top.size - np.count_nonzero(keep))


class PlotCase:
    def __init__(self, model, ordered, curve, k, lam):
        self.model, self.ordered, self.curve, self.k, self.lam = model, ordered, curve, k, lam
        threshold, z_top, self.f_top, self.f_thr = _top_slice(ordered, curve, k)
        x = np.log(z_top) - math.log(threshold)
        self.p_n = p_benchmark(curve, ordered)
        self.terms = _plot_terms(model, self.f_top, self.f_thr, x, lam, self.p_n)

    def run(self, levels):
        return profile_levels(np.asarray(levels, dtype=float), self.k, self.terms)

    def scalar_loss(self, slope, p):
        return pp_loss(self.model, self.ordered, self.curve, self.k, slope, p, self.lam, self.p_n)


class PotCase:
    def __init__(self, domain, ordered, curve, k, lam):
        exc = exceedances(ordered, k, log_scale=domain is PotDomain.FRECHET)
        self.e = exc.times
        self.exc_curve = km_fit(exc)
        self.f_k = np.asarray(km_eval(self.exc_curve, self.e))
        threshold = float(ordered.sorted_times[ordered.n - k - 1])
        self.p_k = 1.0 - float(km_eval(curve, threshold))
        self.p_n = p_benchmark(curve, ordered)
        self.k, self.lam = k, lam
        events = self.exc_curve.jump_times.size > 0
        self.pi_lower = float(self.exc_curve.cdf_values[-1]) if events else 1.0
        self.terms = _pot_terms(self.e, self.f_k, lam, self.p_n, self.p_k)

    def run(self, levels):
        return profile_levels(np.asarray(levels, dtype=float), self.k, self.terms)

    def penalty(self, pi):
        return self.lam * (1.0 - (1.0 - pi) * self.p_k - self.p_n) ** 2


def plot_case(model, k, seed):
    rng = np.random.default_rng(seed)
    o = order_sample(mixture(rng, max(60, 3 * k), PLOT_TAILS[model]))
    return PlotCase(model, o, km_fit(o), k, k / o.n)


def pot_case(domain, k, seed):
    # the search needs a conditional curve that stays below 1; redraw until it does
    rng = np.random.default_rng(seed)
    while True:
        o = order_sample(mixture(rng, max(60, 3 * k), POT_TAILS[domain]))
        case = PotCase(domain, o, km_fit(o), k, k / o.n)
        if case.pi_lower < 1.0:
            return case


@pytest.mark.parametrize("k", K_VALUES)
@pytest.mark.parametrize("model", list(PLOT_TAILS))
def test_plot_kernel_matches_pp_loss(model, k):
    case = plot_case(model, k, seed=1000 + k)
    levels = grid_over(case.p_n, k)
    loss, slope, skipped = case.run(levels)
    assert loss.shape == slope.shape == skipped.shape == levels.shape
    for i in checked_indices(levels.size, k):
        p = float(levels[i])
        assert skipped[i] == plot_skipped(model, case.f_top, case.f_thr, p)
        if skipped[i] == k:
            assert math.isnan(slope[i])
            assert loss[i] == case.scalar_loss(0.0, p)
        else:
            assert_allclose(loss[i], case.scalar_loss(float(slope[i]), p), rtol=RTOL)


@pytest.mark.parametrize("k", K_VALUES)
@pytest.mark.parametrize("domain", list(POT_TAILS))
def test_pot_kernel_matches_pot_loss(domain, k):
    case = pot_case(domain, k, seed=2000 + k)
    levels = grid_over(case.pi_lower, k)
    loss, slope, skipped = case.run(levels)
    for i in checked_indices(levels.size, k):
        pi = float(levels[i])
        arg = 1.0 - case.f_k / pi
        assert skipped[i] == k - np.count_nonzero(arg > BOUNDARY_EPS)
        scale = -float(slope[i])
        assert scale > 0.0
        expected = pot_loss(case.exc_curve, case.e, scale, pi, case.lam, case.p_n, case.p_k)
        assert_allclose(loss[i], expected, rtol=RTOL)


def test_kept_nothing_row_is_penalty_only():
    # at p = F(first top point) every plot argument is <= 0; the threshold
    # argument stays admissible when that point is an event, so F jumps
    for model in PLOT_TAILS:
        seed = 7
        while (case := plot_case(model, 40, seed)).f_top[0] == case.f_thr:
            seed += 1
        p = float(case.f_top[0])
        loss, slope, skipped = case.run([p, 1.0])
        assert skipped[0] == 40 and math.isnan(slope[0])
        assert loss[0] == pytest.approx(case.lam * (p - case.p_n) ** 2, rel=1e-15)
        assert skipped[1] < 40 and math.isfinite(slope[1])
    # for the exceedance loss, the smallest exceedance must be an event
    for domain in POT_TAILS:
        seed = 8
        while (case := pot_case(domain, 40, seed)).f_k.min() == 0.0:
            seed += 1
        pi = float(case.f_k.min())
        loss, slope, skipped = case.run([pi])
        assert skipped[0] == 40 and math.isnan(slope[0])
        assert loss[0] == pytest.approx(case.penalty(pi), rel=1e-15)


def test_inadmissible_threshold_row():
    # at p = F(threshold) the threshold argument is 0: every term goes
    for model in PLOT_TAILS:
        case = plot_case(model, 40, seed=9)
        p = float(case.f_thr)
        assert p > 0.0
        loss, slope, skipped = case.run([p])
        assert skipped[0] == 40 and math.isnan(slope[0])
        assert loss[0] == pytest.approx(case.lam * (p - case.p_n) ** 2, rel=1e-15)


def test_threshold_below_first_event():
    # every observation up to the threshold is censored, so F(threshold) = 0
    # and the threshold argument is exactly 1: Pareto keeps its terms with
    # s(threshold) = 0, the other two transforms diverge there and drop all
    rng = np.random.default_rng(11)
    n, k = 120, 60
    times = np.sort(rng.uniform(1.0, 10.0, n))
    events = np.concatenate([np.zeros(n - k, dtype=int), (rng.random(k) < 0.7).astype(int)])
    o = order_sample(SurvivalSample(times, events))
    c = km_fit(o)
    for model in PLOT_TAILS:
        case = PlotCase(model, o, c, k, 0.5)
        assert case.f_thr == 0.0
        levels = grid_over(case.p_n, k, chunks=1)
        loss, slope, skipped = case.run(levels)
        for i in checked_indices(levels.size, k):
            p = float(levels[i])
            assert skipped[i] == plot_skipped(model, case.f_top, case.f_thr, p)
            if model is PlottingModel.PARETO:
                assert skipped[i] < k
                assert_allclose(loss[i], case.scalar_loss(float(slope[i]), p), rtol=RTOL)
            else:
                assert skipped[i] == k and math.isnan(slope[i])
                assert loss[i] == case.scalar_loss(1.0, p)
