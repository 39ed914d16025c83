"""The batched profile kernel against the scalar public losses.

``profile_levels`` evaluates a whole grid of cure levels in chunks; at
each level its loss must equal ``pp_loss``/``pot_loss`` evaluated at the
slope (or scale) it returns, and its skipped count must follow the
boundary rule written out below from the definitions.  A level's results
must not depend on the other levels of its call, bit for bit, because the
golden-section search evaluates its future points ahead of time in
batches; that search must take exactly the path of the one-point search.
Nor may they depend on what earlier calls left in a reused workspace.
"""
import math
import sys
import threading
import tracemalloc

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
    _level_terms,
    _workspace,
    minimize_on_interval,
    profile_levels,
)
from curetail.survival import top_tail
from curetail.transforms import _s_values

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


def plot_kept(model, f_top, f_thr, p):
    """Where the plot loss keeps a term at level p, from the boundary rule:
    the argument 1 - F/p of the term, and of the threshold unless ``f_thr``
    is None, must stay above BOUNDARY_EPS, and below 1 - BOUNDARY_EPS for
    the two models other than Pareto."""
    t = 1.0 - f_top / p
    t_thr = 0.5 if f_thr is None else 1.0 - f_thr / p
    if model is PlottingModel.PARETO:
        keep, thr_ok = t > BOUNDARY_EPS, t_thr > BOUNDARY_EPS
    else:
        keep = (t > BOUNDARY_EPS) & (t < 1.0 - BOUNDARY_EPS)
        thr_ok = BOUNDARY_EPS < t_thr < 1.0 - BOUNDARY_EPS
    return keep & thr_ok


def plot_skipped(model, f_top, f_thr, p):
    """Terms the plot loss drops at level p, from the boundary rule."""
    return int(f_top.size - np.count_nonzero(plot_kept(model, f_top, f_thr, p)))


class PlotCase:
    def __init__(self, model, ordered, curve, k, lam):
        self.model, self.ordered, self.curve, self.k, self.lam = model, ordered, curve, k, lam
        self.tail = tail = top_tail(ordered, curve, k)
        self.f_top, self.f_thr, self.p_n = tail.f_top, tail.f_thr, tail.p_n
        self.lower, self.curve_values = self.p_n, self.f_top
        self.terms = self.make_terms()

    def make_terms(self):
        # as pp_fit builds them: the negated log excesses are the regressor
        return _level_terms(self.model, self.f_top, -self.tail.excesses(log_scale=True),
                            self.penalty, self.f_thr)

    def run(self, levels):
        return profile_levels(np.asarray(levels, dtype=float), self.k, self.terms)

    def scalar_loss(self, slope, p):
        return pp_loss(self.model, self.ordered, self.curve, self.k, slope, p, self.lam, self.p_n)

    def penalty(self, p):
        return self.lam * (p - self.p_n) ** 2


class PotCase:
    def __init__(self, domain, ordered, curve, k, lam):
        self.domain, self.ordered, self.curve = domain, ordered, curve
        exc = exceedances(ordered, k, log_scale=domain is PotDomain.FRECHET)
        self.e = exc.times
        self.exc_curve = km_fit(exc)
        self.f_k = np.asarray(km_eval(self.exc_curve, self.e))
        self.tail = tail = top_tail(ordered, curve, k)
        self.p_k, self.p_n = tail.p_k, tail.p_n
        self.k, self.lam = k, lam
        events = self.exc_curve.jump_times.size > 0
        self.pi_lower = float(self.exc_curve.cdf_values[-1]) if events else 1.0
        self.lower, self.curve_values = self.pi_lower, self.f_k
        self.terms = self.make_terms()

    def make_terms(self):
        return _level_terms(PlottingModel.PARETO, self.f_k, self.e, self.penalty)

    def run(self, levels):
        return profile_levels(np.asarray(levels, dtype=float), self.k, self.terms)

    def penalty(self, pi):
        return self.lam * (1.0 - (1.0 - pi) * self.p_k - self.p_n) ** 2


def plot_case(model, k, seed, p=0.8, n=None):
    # the search needs p_n below 1; redraw until it is
    rng = np.random.default_rng(seed)
    while True:
        o = order_sample(mixture(rng, n or max(60, 3 * k), PLOT_TAILS[model], p))
        case = PlotCase(model, o, km_fit(o), k, k / o.n)
        if case.p_n < 1.0:
            return case


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


@pytest.mark.parametrize("repeated", [False, True])
@pytest.mark.parametrize("model, f_thr", [(m, f_thr) for m in PLOT_TAILS for f_thr in (0.15, 0.0)]
                         + [(PlottingModel.PARETO, None)])
def test_level_terms_rows_follow_the_definition(model, f_thr, repeated):
    # on the kept terms the rows are u(1 - F/p) - u(1 - F_thr/p) with
    # u = -s, or u(1 - F/p) without a threshold, bit for bit; the mask is
    # plot_kept's.  A curve with repeated values takes the gather path.  At
    # F_thr = 0 the threshold's argument is 1, which drops every term but
    # Pareto's; above it, a level drops what its own terms' arguments drop.
    rng = np.random.default_rng(12)
    if repeated:
        f = np.repeat(np.sort(rng.uniform(0.2, 0.75, 4)), [3, 2, 4, 3])
    else:
        f = np.sort(rng.uniform(0.2, 0.75, 12))
    fixed = rng.standard_normal(f.size)
    terms = _level_terms(model, f, fixed, lambda p: 2.0 * p, f_thr)
    dist = np.unique(f)
    groups = {"all": [0.8, 0.9, 1.0], "some": [dist[2], (dist[0] + dist[1]) / 2],
              "none": [dist[0], *([f_thr] if f_thr else [])]}
    kept_range = {"all": (f.size, f.size), "some": (1, f.size - 1), "none": (0, 0)}
    if f_thr == 0.0 and model is not PlottingModel.PARETO:
        kept_range = dict.fromkeys(kept_range, (0, 0))
    for name, levels in [*groups.items(), ("mixed", sum(groups.values(), []))]:
        levels = np.array(levels)
        want_keep = np.array([plot_kept(model, f, f_thr, p) for p in levels])
        low, high = kept_range.get(name, (0, f.size))
        assert np.all((low <= want_keep.sum(axis=1)) & (want_keep.sum(axis=1) <= high))
        x, y, keep, penalty = terms(levels, _workspace(f.size))
        assert_same_bits(penalty, 2.0 * levels)
        assert (keep is None) == want_keep.all()
        assert_array_equal(want_keep if keep is None else keep, want_keep)
        if not want_keep.any():
            continue  # no row is built or read
        rows, regressor_or_response = (x, y) if f_thr is None else (y, x)
        assert regressor_or_response is fixed
        for row, kept, p in zip(rows, want_keep, levels.tolist()):
            if not kept.any():
                continue  # the threshold's argument may sit on the boundary
            want = -_s_values(model, 1.0 - f[kept] / p)
            if f_thr is not None:
                want = want - -_s_values(model, np.array([1.0 - f_thr / p]))
            assert_same_bits(row[kept], want)


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
    sizes, chunks = [], []

    def recording(levels, k, terms, *args):
        sizes.append(len(levels))
        chunks.append(0)

        def counting(*a):
            chunks[-1] += 1
            return terms(*a)

        return kernel(levels, k, counting, *args)

    monkeypatch.setattr(plotfit, "profile_levels", recording)
    monkeypatch.setattr(potfit, "profile_levels", recording)
    default = plotfit.PROFILE_CHUNK_ELEMENTS
    results = set()
    for elements in (k, 4096, default, 65536):
        monkeypatch.setattr(plotfit, "PROFILE_CHUNK_ELEMENTS", elements)
        sizes.clear()
        chunks.clear()
        result = fit()
        assert not result.boundary
        results.add(repr(result))
        # one grid call of 512 levels and the notch, in chunks of at least
        # sixteen levels; then the refinement: the first basin's first pair
        # is one call of two levels, and every later call holds at most
        # max(4, elements // k) levels, in one chunk
        assert sizes[0] == 513
        assert chunks[0] == -(-513 // max(16, elements // k))
        assert sizes[1] == 2
        assert all(size <= max(4, elements // k) for size in sizes[2:])
        assert chunks[1:] == [1] * (len(sizes) - 1)
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


def benchmark_shaped_case(model, k, seed):
    """A case with n = 5k at small k and k = n - 1 at large k."""
    n = 5 * k if k <= 100 else k + 1
    return plot_case(model, k, seed, n=n) if model in PLOT_TAILS else pot_case(model, k, seed, n=n)


def on_fresh_thread(fn, *args):
    """``fn(*args)`` on a new thread, which starts without a workspace."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn(*args)))
    thread.start()
    thread.join(timeout=60)
    return result[0]


@pytest.mark.parametrize("k", (100, 3999))
@pytest.mark.parametrize("model", [*PLOT_TAILS, *POT_TAILS])
def test_reused_workspace_matches_a_fresh_one(model, k):
    # a thread's kernel calls reuse one workspace; a 513-level grid ends on
    # a partial chunk, and calls of other sizes view the same buffers in
    # other shapes
    case = benchmark_shaped_case(model, k, seed=7000 + k)
    terms, work = case.make_terms(), _workspace(k)
    mid = float(np.median(case.curve_values[case.curve_values > 0]))
    grid = case.lower + (1.0 - case.lower) * np.arange(1, 514) / 513
    calls = [grid, np.array([mid]), np.array([0.5 * mid, np.nextafter(case.lower, 1.0), 1.0]),
             grid]
    skipped = []
    for levels in calls:
        got = profile_levels(levels, k, terms)
        want = on_fresh_thread(profile_levels, levels, k, case.make_terms())
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        skipped.append(got[2])
    assert _workspace(k) is work
    # a curve value as level drops terms, so the masked rows were reused too
    assert skipped[1][0] > 0


def observed_case(model, k, seed):
    """A case at k = n - 1 whose observations are all events but the
    largest, so every curve value but the last is distinct: the transforms
    then run on whole rows, where the benchmark-shaped sample repeats values."""
    rng = np.random.default_rng(seed)
    events = np.ones(k + 1, dtype=int)
    events[-1] = 0
    o = order_sample(SurvivalSample(np.sort(rng.weibull(0.8, k + 1)), events))
    cls = PlotCase if model in PLOT_TAILS else PotCase
    return cls(model, o, km_fit(o), k, k / o.n)


@pytest.mark.parametrize("make_case", [benchmark_shaped_case, observed_case])
@pytest.mark.parametrize("model", [*PLOT_TAILS, *POT_TAILS])
def test_grid_call_allocates_no_chunk_at_large_k(model, make_case):
    # a chunk writes into its thread's workspace; tracemalloc sees numpy's
    # data buffers, so one float array of a whole chunk would lift the peak
    # by rows * k * 8 bytes.  What remains are boolean masks, tail gathers of
    # the normal quantile and the per-level outputs.  The levels span (0, 1],
    # so that chunks below the feasibility bound drop terms and mask rows.
    # A warm call first gives this thread its workspace for k.
    k = 3999
    case = make_case(model, k, seed=8000)
    terms = case.make_terms()
    grid = np.arange(1, 514) / 513
    profile_levels(grid, k, terms)
    assert peak_bytes(profile_levels, grid, k, terms) < _chunk_rows(k) * k * 8


@pytest.mark.parametrize("n, k", [(500, 100), (4000, 3999)])
def test_fits_of_one_sample_allocate_no_workspace(n, k):
    # the thread keeps its workspace between fits, so once the first fit of
    # a sample has sized it, the other four allocate no float array of its
    # size.  The bound is not one chunk: at k = 100 a chunk of 8 100 elements
    # fits in one of numpy's 8 192-element ufunc buffers, and b * x fills two
    case = plot_case(PlottingModel.PARETO, k, seed=8100, n=n)
    o, c = case.ordered, case.curve
    fits = [lambda m=m: pp_fit(o, c, FitConfig(k=k, model=m)) for m in PLOT_TAILS]
    fits += [lambda d=d: pot_fit(o, c, d, FitConfig(k=k)) for d in POT_TAILS]
    fits[0]()
    for fit in fits[1:]:
        assert peak_bytes(fit) < 4 * _chunk_rows(k) * (k + 1) * 8


def peak_bytes(fn, *args):
    """Most bytes ``fn(*args)`` held at once beyond what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_fits_on_threads_match_sequential_fits():
    # each thread owns its workspace, so concurrent fits share no buffer; three
    # threads and a short switch interval interleave their kernel chunks
    k = 1999
    samples = []
    for seed in (9001, 9002, 9003):
        o = order_sample(mixture(np.random.default_rng(seed), k + 1, "weibull"))
        samples.append((o, km_fit(o)))

    def five_fits(o, c):
        fits = [pp_fit(o, c, FitConfig(k=k, model=m)) for m in PLOT_TAILS]
        fits += [pot_fit(o, c, d, FitConfig(k=k)) for d in POT_TAILS]
        return [repr(f) for f in fits]

    want = [five_fits(*s) for s in samples]
    got = [None] * len(samples)
    start = threading.Barrier(len(samples))

    def worker(i):
        start.wait(timeout=60)
        got[i] = [five_fits(*samples[i]) for _ in range(2)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(samples))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w, w] for w in want]


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
