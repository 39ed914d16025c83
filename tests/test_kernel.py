"""The batched profile kernel against the scalar public losses.

``profile_levels`` evaluates a whole grid of cure levels in chunks; at
each level its loss must equal ``pp_loss``/``pot_loss`` evaluated at the
slope (or scale) it returns, and its skipped count must follow the
boundary rule written out below from the definitions.  A level's results
must not depend on the other levels of its call, bit for bit, because the
golden-section search evaluates its future points ahead of time in
batches; that search must take exactly the path of the one-point search.
"""
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from curetail import (
    FitConfig,
    OrderedSample,
    PlottingModel,
    PotDomain,
    SurvivalSample,
    exceedances,
    km_eval,
    km_fit,
    order_sample,
    pot_fit,
    pot_loss,
    pp_fit,
    pp_loss,
)
from curetail import plotfit, potfit
from curetail.plotfit import (
    BOUNDARY_EPS,
    _chunk_rows,
    _distinct,
    _golden_min,
    _plot_terms,
    minimize_on_interval,
    profile_levels,
)
from curetail.potfit import _pot_terms
from curetail.survival import top_tail

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
    size = chunks * _chunk_rows(k) + 5
    return lower + (1.0 - lower) * np.arange(1, size + 1) / size


def checked_indices(size, k):
    """Every level next to a chunk boundary, plus an even spread of the rest."""
    rows = _chunk_rows(k)
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
        tail = top_tail(ordered, curve, k)
        self.f_top, self.f_thr, self.p_n = tail.f_top, tail.f_thr, tail.p_n
        self.terms = _plot_terms(model, tail, tail.excesses(log_scale=True), lam)

    def run(self, levels):
        return profile_levels(np.asarray(levels, dtype=float), self.k, self.terms)

    def scalar_loss(self, slope, p):
        return pp_loss(self.model, self.ordered, self.curve, self.k, slope, p, self.lam, self.p_n)


class PotCase:
    def __init__(self, domain, ordered, curve, k, lam):
        self.domain, self.ordered, self.curve = domain, ordered, curve
        exc = exceedances(ordered, k, log_scale=domain is PotDomain.FRECHET)
        self.e = exc.times
        self.exc_curve = km_fit(exc)
        self.f_k = np.asarray(km_eval(self.exc_curve, self.e))
        tail = top_tail(ordered, curve, k)
        self.p_k, self.p_n = tail.p_k, tail.p_n
        self.k, self.lam = k, lam
        events = self.exc_curve.jump_times.size > 0
        self.pi_lower = float(self.exc_curve.cdf_values[-1]) if events else 1.0
        self.terms = _pot_terms(self.e, self.f_k, lam, tail)

    def run(self, levels):
        return profile_levels(np.asarray(levels, dtype=float), self.k, self.terms)

    def penalty(self, pi):
        return self.lam * (1.0 - (1.0 - pi) * self.p_k - self.p_n) ** 2


def plot_case(model, k, seed, p=0.8, n=None):
    rng = np.random.default_rng(seed)
    o = order_sample(mixture(rng, n or max(60, 3 * k), PLOT_TAILS[model], p))
    return PlotCase(model, o, km_fit(o), k, k / o.n)


def pot_case(domain, k, seed, p=0.8, n=None):
    # the search needs a conditional curve that stays below 1; redraw until it does
    rng = np.random.default_rng(seed)
    while True:
        o = order_sample(mixture(rng, n or max(60, 3 * k), POT_TAILS[domain], p))
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


def boundary_case(case, top_censored=False):
    """``case`` with its largest observation made an event, so that the plot
    curve (p_n) and the exceedance curve both reach 1 and the feasible
    interval collapses; ``top_censored`` also censors the rest of the top k."""
    o, k = case.ordered, case.k
    events = o.concomitant_events.copy()
    if top_censored:
        events[o.n - k:] = 0
    events[-1] = 1
    o = OrderedSample(o.sorted_times, events)
    if isinstance(case, PlotCase):
        return PlotCase(case.model, o, km_fit(o), k, case.lam)
    return PotCase(case.domain, o, km_fit(o), k, case.lam)


def fit_case(case):
    """Fit the case's model; returns the fit, its level and its profiled slope."""
    if isinstance(case, PlotCase):
        fit = pp_fit(case.ordered, case.curve, FitConfig(k=case.k, model=case.model))
        return fit, fit.p_hat, fit.slope_hat
    fit = pot_fit(case.ordered, case.curve, case.domain, FitConfig(k=case.k))
    return fit, fit.pi_hat, -fit.scale_hat


@pytest.mark.parametrize("n, k", [(200, 40), (200, 199)])
@pytest.mark.parametrize("model", [*PLOT_TAILS, *POT_TAILS])
def test_fit_fields_equal_a_fresh_profile_at_the_estimate(model, n, k):
    # the fits read loss, slope and skipped count back from the search's
    # own kernel calls instead of evaluating the estimate once more; a
    # boundary fit's come from the search's one call at level 1
    if model in PLOT_TAILS:
        case = plot_case(model, k, seed=3000 + k, n=n)
    else:
        case = pot_case(model, k, seed=4000 + k, n=n)
    for case, boundary in ((case, False), (boundary_case(case), True)):
        fit, level, slope = fit_case(case)
        assert fit.boundary == boundary
        if boundary:
            assert level == 1.0 and fit.p_hat == 1.0
        loss, want_slope, skipped = case.run([level])
        assert_same_bits([fit.loss, slope], [loss[0], want_slope[0]])
        assert fit.skipped_terms == skipped[0]


@pytest.mark.parametrize("domain", list(POT_TAILS))
def test_boundary_exceedance_fit_without_a_slope_has_no_scale(domain):
    # every top-k observation but the largest is censored: at pi = 1 the
    # kept terms have F = 0, so every log-term is 0 and the slope is 0
    case = boundary_case(pot_case(domain, 40, seed=4040, n=200), top_censored=True)
    fit, level, _ = fit_case(case)
    loss, slope, skipped = case.run([1.0])
    assert fit.boundary and level == 1.0 and slope[0] == 0.0
    assert math.isnan(fit.scale_hat)
    assert_same_bits([fit.loss], loss)
    assert fit.skipped_terms == skipped[0] == 1


def test_each_fit_makes_one_search_through_its_own_module(monkeypatch):
    # the benchmark's tracer tells plot searches from exceedance searches
    # by the module name a fit calls minimize_on_interval through
    counts = {}
    for module in (plotfit, potfit):
        search = module.minimize_on_interval

        def counting(*args, _search=search, _name=module.__name__, **kwargs):
            counts[_name] += 1
            return _search(*args, **kwargs)

        monkeypatch.setattr(module, "minimize_on_interval", counting)
    cases = [plot_case(model, 40, seed=3040, n=200) for model in PLOT_TAILS]
    cases += [pot_case(domain, 40, seed=4040, n=200) for domain in POT_TAILS]
    for case in cases:
        for case in (case, boundary_case(case)):
            counts.update({plotfit.__name__: 0, potfit.__name__: 0})
            fit_case(case)
            plot = isinstance(case, PlotCase)
            assert counts == {plotfit.__name__: int(plot), potfit.__name__: int(not plot)}


@pytest.mark.parametrize("n, k, widest", [(500, 100, 63), (4000, 3999, 3)])
@pytest.mark.parametrize("model", [*PLOT_TAILS, *POT_TAILS])
def test_fit_does_not_depend_on_chunk_size(monkeypatch, model, n, k, widest):
    # the kernel is batch-invariant, so the chunk size may change the grid
    # call's chunks and the refinement's call sizes but no estimate
    if model in PLOT_TAILS:
        case = plot_case(model, k, seed=5000 + k, n=n)

        def fit():
            return pp_fit(case.ordered, case.curve, FitConfig(k=k, model=model))
    else:
        case = pot_case(model, k, seed=6000 + k, n=n)

        def fit():
            return pot_fit(case.ordered, case.curve, model, FitConfig(k=k))
    kernel = plotfit.profile_levels
    sizes = []

    def recording(levels, *args):
        sizes.append(len(levels))
        return kernel(levels, *args)

    monkeypatch.setattr(plotfit, "profile_levels", recording)
    monkeypatch.setattr(potfit, "profile_levels", recording)
    default = plotfit.PROFILE_CHUNK_ELEMENTS
    results = set()
    for elements in (k, 4096, default, 65536):
        monkeypatch.setattr(plotfit, "PROFILE_CHUNK_ELEMENTS", elements)
        sizes.clear()
        result = fit()
        assert not result.boundary
        results.add(repr(result))
        # one grid call of 512 levels and the notch, then the refinement:
        # the first basin's first pair is one call of two levels, and every
        # later call holds at most one chunk
        assert sizes[0] == 513
        assert sizes[1] == 2
        assert all(size <= _chunk_rows(k) for size in sizes[2:])
        if elements == default:
            assert max(sizes[1:]) == widest
    assert len(results) == 1


def test_distinct_rule_follows_transform_cost():
    few = np.repeat([0.1, 0.2, 0.3], 2)  # half the elements repeat
    most = np.array([0.1, 0.1, 0.2, 0.3, 0.4])  # one element in five repeats
    unique = np.array([0.1, 0.2, 0.3])
    for values, costly, gathered in [(few, False, True), (few, True, True),
                                     (most, False, False), (most, True, True),
                                     (unique, False, False), (unique, True, False)]:
        dist, gather = _distinct(values, costly)
        assert (gather is not None) == gathered
        assert_array_equal(dist if gather is None else dist[gather], values)


def batch_levels(rng, lower, curve_values, k):
    """Two chunks of levels in (lower, 1], then shuffled levels over (0, 1].

    Above the feasibility bound ``lower`` every term is usually kept, so
    whole chunks take the unmasked path.  Below it levels skip terms, and
    the curve's own values skip every term, so the later chunks mix kept
    and skipped rows.
    """
    rows = _chunk_rows(k)
    feasible = lower + (1.0 - lower) * (1.0 - rng.random(2 * rows))
    edges = [np.nextafter(lower, 1.0), lower, 1.0]
    spread = np.concatenate([1.0 - rng.random(rows + 7), curve_values[curve_values > 0], edges])
    return np.concatenate([feasible, rng.permutation(spread)])


def assert_same_bits(got, want):
    assert_array_equal(np.asarray(got, dtype=float).view(np.int64),
                       np.asarray(want, dtype=float).view(np.int64))


@pytest.mark.parametrize("k", (3, 40, 100, 399))
@pytest.mark.parametrize("model", [*PLOT_TAILS, *POT_TAILS])
# no shrink phase: shrinking every failing case makes a broken kernel take minutes to report
@settings(max_examples=10, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.3, 0.9))
def test_kernel_is_batch_invariant(model, k, seed, p):
    if model in PLOT_TAILS:
        case = plot_case(model, k, seed, p)
        lower, curve_values = case.p_n, case.f_top
    else:
        case = pot_case(model, k, seed, p)
        lower, curve_values = case.pi_lower, case.f_k
    rng = np.random.default_rng(seed)
    levels = batch_levels(rng, lower, curve_values, k)
    loss, slope, skipped = case.run(levels)
    checked = checked_indices(levels.size, k)
    assert np.any(skipped[checked] == 0) and np.any(skipped[checked] > 0)
    alone = [case.run(levels[i:i + 1]) for i in checked]
    assert_same_bits(loss[checked], [r[0][0] for r in alone])
    assert_same_bits(slope[checked], [r[1][0] for r in alone])
    assert_array_equal(skipped[checked], [r[2][0] for r in alone])


INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def one_point_golden(f, a, b, xtol):
    """The golden-section search one point at a time; returns (x, f, points)."""
    points = []

    def at(v):
        points.append(v)
        return float(f(np.array([v]))[0])

    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = at(c), at(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(200):
        if b - a <= xtol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = at(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = at(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f, points


OBJECTIVES = {
    "bowl": lambda x: (x - 0.3) ** 2,
    "wavy": lambda x: np.sin(40.0 * x) + x,
    # plateaus make fc == fd ties
    "steps": lambda x: np.round(20.0 * (x - 0.37) ** 2, 1),
    "flat": lambda x: np.zeros_like(x),
}


@pytest.mark.parametrize("a, b, xtol", [(0.0, 1.0, 1e-10), (0.2, 0.2 + 1e-6, 1e-10),
                                        (0.1, 0.9, 1e-3), (0.0, 1.0, 0.0)])
@pytest.mark.parametrize("name", list(OBJECTIVES))
@pytest.mark.parametrize("width", (1, 3, 7, 63))
def test_speculative_golden_follows_one_point_search(width, name, a, b, xtol):
    f = OBJECTIVES[name]
    want_x, want_f, want_points = one_point_golden(f, a, b, xtol)
    calls = []

    def recording(x):
        calls.append(np.array(x))
        return f(x)

    x, fx = _golden_min(recording, a, b, xtol, width)
    assert (x, fx) == (want_x, want_f)
    evaluated = set(np.concatenate(calls).tolist())
    assert evaluated >= set(want_points)
    # one call for the first pair, then one per tree of up to `width` points
    depth = (width + 1).bit_length() - 1
    assert calls[0].tolist() == want_points[:2]
    assert all(c.size <= width for c in calls[1:])
    assert len(calls) == 1 + -(-(len(want_points) - 2) // depth)


def test_notch_is_evaluated_in_the_grid_call():
    lower, upper, resolution = 0.25, 1.0, 64
    notch = np.nextafter(lower, upper)
    calls = []

    def rising(x):
        # increasing, so the notch beats every refined basin
        calls.append(np.array(x))
        return (x - lower,)

    x, (fx,) = minimize_on_interval(rising, lower, upper, resolution, 1e-10, width=7)
    assert x == notch and fx == notch - lower
    assert calls[0].size == resolution + 1 and calls[0][-1] == notch
    assert all(notch not in c for c in calls[1:])


def test_collapsed_interval_evaluates_the_upper_end_alone():
    calls = []

    def profile(x):
        calls.append(np.array(x))
        return x + 1.0, 2.0 * x, np.full(x.shape, 3)

    x, values = minimize_on_interval(profile, 1.0, 1.0, 64, 1e-10, width=7)
    assert [c.tolist() for c in calls] == [[1.0]]
    assert x == 1.0 and values == (2.0, 2.0, 3)
    assert [type(v) for v in values] == [float, float, int]
