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
import re
import sys
import threading
import tracemalloc
from pathlib import Path

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
    _golden_path,
    _golden_width,
    _level_search,
    _rowdot,
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
        # as pp_fit builds it: the log excesses are the regressor
        self.profile = profile_levels(model, self.f_top, tail.excesses(log_scale=True),
                                      self.penalty, self.f_thr)

    def run(self, levels):
        return self.profile(levels)

    def scalar_loss(self, slope, p):
        return pp_loss(self.model, self.ordered, self.curve, self.k, slope, p, self.lam)

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
        self.profile = profile_levels(PlottingModel.PARETO, self.f_k, self.e, self.penalty)

    def run(self, levels):
        return self.profile(levels)

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
        scale = float(slope[i])
        assert scale > 0.0
        expected = pot_loss(case.domain, case.ordered, case.curve, k, scale, pi, case.lam)
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
    # on the kept terms, plot_kept's mask, the rows are s(1 - F/p) - s(1 - F_thr/p),
    # the response against the regressor ``fixed``, or s(1 - F/p) alone
    # without a threshold, the regressor against the response ``fixed``;
    # dropped terms are 0 in both.  Loss and slope are the line through the
    # origin on those rows, summed by _rowdot, bit for bit.  A curve with
    # repeated values takes the gather path.  At F_thr = 0 the threshold's
    # argument is 1, which drops every term but Pareto's; above it, a level
    # drops what its own terms' arguments drop.
    rng = np.random.default_rng(12)
    if repeated:
        f = np.repeat(np.sort(rng.uniform(0.2, 0.75, 4)), [3, 2, 4, 3])
    else:
        f = np.sort(rng.uniform(0.2, 0.75, 12))
    fixed = rng.standard_normal(f.size)
    profile = profile_levels(model, f, fixed, lambda p: 2.0 * p, f_thr)
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
        loss, slope, skipped = profile(levels)
        assert_array_equal(skipped, f.size - want_keep.sum(axis=1))
        want_loss, want_slope = 2.0 * levels, np.full(levels.size, math.nan)
        for i, (kept, p) in enumerate(zip(want_keep, levels.tolist())):
            if not kept.any():
                continue  # the threshold's argument may sit on the boundary
            rows = np.zeros(f.size)
            rows[kept] = _s_values(model, 1.0 - f[kept] / p)
            if f_thr is not None:
                rows[kept] -= _s_values(model, np.array([1.0 - f_thr / p]))
            kept_fixed = np.where(kept, fixed, 0.0)
            x, y = (rows, kept_fixed) if f_thr is None else (kept_fixed, rows)
            sxx = _rowdot(x, x)
            want_slope[i] = _rowdot(x, y) / sxx if sxx != 0.0 else 0.0
            r = y - want_slope[i] * x
            want_loss[i] += _rowdot(r, r)
        assert_same_bits(loss, want_loss)
        assert_same_bits(slope, want_slope)


def matmul_rows(a, b):
    """Row dot products as one (1, k) @ (k, 1) matmul per row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@pytest.mark.parametrize("k", (1, 26, 100, 3999, 10_000))
def test_vecdot_rows_equal_matmul_rows(k):
    # _rowdot's np.vecdot runs the BLAS dot product of the matmul form, at
    # the BLAS thread count the process starts with; up to one grid chunk of
    # rows, a 1-d row against 2-d rows as the plot fits' regressor is
    rng = np.random.default_rng(k)
    for rows in sorted({1, 2, 7, _chunk_rows(k)}):
        a = rng.standard_normal((rows, k))
        b = rng.standard_normal((rows, k)) * rng.uniform(0.0, 1e3, k)
        for x, y in [(a, b), (a, a), (b[0], a), (a, b[0])]:
            got = _rowdot(x, y)
            assert_same_bits(got, matmul_rows(x, y))
            i = rows // 2
            pair = [v if v.ndim == 1 else v[i] for v in (x, y)]
            assert_same_bits(_rowdot(*pair), got[i])


def test_declared_numpy_floor_has_vecdot():
    # _rowdot calls np.vecdot, which NumPy 2.0 added.  pyproject.toml is read
    # as text, since tomllib came with Python 3.11
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floors = re.findall(r'"numpy\s*>=\s*(\d+)\.(\d+)', text)
    assert len(floors) == 1 and tuple(map(int, floors[0])) >= (2, 0)


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
    return fit, fit.pi_hat, fit.scale_hat


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
    # by the module name a fit calls minimize_on_interval through, and
    # counts the profile's calls as the calls of the fun it passes there
    counts, calls = {}, {}

    def counted(fun, key):
        def wrapped(levels):
            calls[key] += 1
            return fun(levels)

        return wrapped

    for module in (plotfit, potfit):
        search, kernel = module.minimize_on_interval, module.profile_levels

        def counting(fun, *args, _search=search, _name=module.__name__, **kwargs):
            counts[_name] += 1
            return _search(counted(fun, "fun"), *args, **kwargs)

        def profiling(*args, _kernel=kernel):
            return counted(_kernel(*args), "profile")

        monkeypatch.setattr(module, "minimize_on_interval", counting)
        monkeypatch.setattr(module, "profile_levels", profiling)
    cases = [plot_case(model, 40, seed=3040, n=200) for model in PLOT_TAILS]
    cases += [pot_case(domain, 40, seed=4040, n=200) for domain in POT_TAILS]
    for case in cases:
        for case in (case, boundary_case(case)):
            counts.update({plotfit.__name__: 0, potfit.__name__: 0})
            calls.update({"fun": 0, "profile": 0})
            fit_case(case)
            plot = isinstance(case, PlotCase)
            assert counts == {plotfit.__name__: int(plot), potfit.__name__: int(not plot)}
            assert calls["fun"] == calls["profile"] > 0


@pytest.mark.parametrize("n, k, tree", [(500, 100, 15), (4000, 3999, 3)])
@pytest.mark.parametrize("model", [*PLOT_TAILS, *POT_TAILS])
def test_fit_does_not_depend_on_chunk_size(monkeypatch, model, n, k, tree):
    # the kernel is batch-invariant, so the grid chunk size and the
    # refinement's call size may change the grid call's chunks and the
    # refinement's call sizes but no estimate
    if model in PLOT_TAILS:
        case = plot_case(model, k, seed=5000 + k, n=n)

        def fit():
            return pp_fit(case.ordered, case.curve, FitConfig(k=k, model=model))
    else:
        case = pot_case(model, k, seed=6000 + k, n=n)

        def fit():
            return pot_fit(case.ordered, case.curve, model, FitConfig(k=k))
    kernel, admissible = plotfit.profile_levels, plotfit._admissible
    sizes, chunks = [], []

    def recording(*args):
        profile = kernel(*args)

        def recorded(levels):
            sizes.append(len(levels))
            chunks.append(0)
            return profile(levels)

        return recorded

    def counting(*args):
        # the kernel applies the boundary rule once per chunk
        chunks[-1] += 1
        return admissible(*args)

    monkeypatch.setattr(plotfit, "profile_levels", recording)
    monkeypatch.setattr(potfit, "profile_levels", recording)
    monkeypatch.setattr(plotfit, "_admissible", counting)
    defaults = plotfit.PROFILE_CHUNK_ELEMENTS, plotfit.REFINE_CALL_ELEMENTS
    results = set()
    for elements in (k, 4096, defaults[0], 65536):
        for refine in (k, 1024, defaults[1], 65536):
            monkeypatch.setattr(plotfit, "PROFILE_CHUNK_ELEMENTS", elements)
            monkeypatch.setattr(plotfit, "REFINE_CALL_ELEMENTS", refine)
            sizes.clear()
            chunks.clear()
            result = fit()
            assert not result.boundary
            results.add(repr(result))
            # one grid call of 512 levels and the notch, in chunks of at
            # least sixteen levels; then the refinement, every call of which,
            # a basin's first pair and its path included, holds at most
            # max(4, refine // k) levels, in as few chunks
            rows = max(16, elements // k)
            assert sizes[0] == 513
            assert all(size <= max(4, refine // k) for size in sizes[1:])
            assert chunks == [-(-size // rows) for size in sizes]
            if (elements, refine) == defaults:
                # the first basin's pair and the path the grid predicts fill
                # its first call to _golden_width(k) levels (30 at k = 100,
                # 4 at k = 3999), more than the `tree` points of the complete
                # trees that the refinement once made at that width
                assert sizes[1] == max(sizes[1:]) == _golden_width(k) > tree
                assert chunks[1:] == [1] * (len(sizes) - 1)
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
    work = _workspace(k)
    mid = float(np.median(case.curve_values[case.curve_values > 0]))
    grid = case.lower + (1.0 - case.lower) * np.arange(1, 514) / 513
    calls = [grid, np.array([mid]), np.array([0.5 * mid, np.nextafter(case.lower, 1.0), 1.0]),
             grid]
    skipped = []
    for levels in calls:
        got = case.profile(levels)
        want = on_fresh_thread(case.profile, levels)
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
    grid = np.arange(1, 514) / 513
    case.profile(grid)
    assert peak_bytes(case.profile, grid) < _chunk_rows(k) * k * 8


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


def step_by_hand(search, fun):
    """Run a level-search generator, sending back ``fun``'s tuple for each
    batch it yields; returns its batches and the value it returns."""
    batches, values = [], None
    while True:
        try:
            batch = search.send(values)
        except StopIteration as stop:
            return batches, stop.value
        batches.append(np.array(batch))
        values = fun(batch)


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

    def poisoned(x):
        # a value the one-point search never reads would win if it were read
        return (np.where(np.isin(x, want_points), f(x), -1e300),)

    # guesses at either end predict the first step to each side, so one of
    # them drops the first path unread
    for guess in (a, want_x, b):
        calls, (x, (fx,)) = step_by_hand(_golden_min(a, b, xtol, width, guess),
                                         lambda x: (f(x),))
        assert (x, fx) == (want_x, want_f)
        evaluated = set(np.concatenate(calls).tolist())
        assert evaluated >= set(want_points)
        # the first call starts with the pair, no call holds more than
        # max(width, 2) points, and each call after the first serves at
        # least one step
        assert calls[0][:2].tolist() == want_points[:2]
        assert all(c.size <= max(width, 2) for c in calls)
        assert len(calls) <= 1 + len(want_points) - 2
        _, (x, (fx,)) = step_by_hand(_golden_min(a, b, xtol, width, guess), poisoned)
        assert (x, fx) == (want_x, want_f)


def tree_calls(steps, width):
    """Calls after the first pair that complete trees of up to ``width``
    points take for ``steps`` golden-section steps."""
    depth = max(1, (width + 1).bit_length() - 1)
    return -(-steps // depth)


@pytest.mark.parametrize("name", list(OBJECTIVES))
@pytest.mark.parametrize("width", (3, 7, 15, 30))
def test_predicted_paths_take_fewer_calls_than_trees(width, name):
    # the same search as one point per call, in fewer calls than the
    # complete trees of the next steps would take, basin by basin
    f = OBJECTIVES[name]

    def search(width):
        calls = []

        def fun(x):
            calls.append(np.array(x))
            return (f(x),)

        return minimize_on_interval(fun, 0.0, 1.0, 64, 1e-10, width=width), calls

    want, one_point = search(1)
    got, calls = search(width)
    assert got == want
    # with one point per call, each basin is its pair and then one call per step
    starts = [i for i, c in enumerate(one_point) if c.size == 2] + [len(one_point)]
    trees = 1 + sum(1 + tree_calls(end - start - 1, width)
                    for start, end in zip(starts, starts[1:]))
    assert len(calls) < trees


def forced_golden(a, b, c, d, outcomes):
    """The points of one-point golden-section steps from bracket (a, b) with
    inner points c < d, each step taking the ``fc <= fd`` outcome given."""
    points = []
    for left in outcomes:
        if left:
            b, d = d, c
            c = b - INVPHI * (b - a)
            points.append(c)
        else:
            a, c = c, d
            d = a + INVPHI * (b - a)
            points.append(d)
    return points


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.2, 0.2 + 1e-12), (0.7, np.nextafter(0.7, 1.0))])
@pytest.mark.parametrize("left", (True, False))
@pytest.mark.parametrize("where", (0.0, 0.3, 1.0))
@pytest.mark.parametrize("steps, xtol", [(1, 0.0), (5, 0.0), (40, 0.0), (40, 1e-3)])
def test_golden_path_takes_the_steps_of_its_sides(a, b, left, where, steps, xtol):
    # a path's points are the one-point steps of the sides it reports: the
    # side given first, then left while the guess lies at or left of the
    # inner pair's midpoint; it ends after `steps` steps or where the
    # bracket is no wider than xtol, also on brackets below 1e-10
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    guess = a + where * (b - a)
    path = _golden_path(a, b, c, d, left, steps, guess, xtol)
    sides = [side for side, _ in path]
    assert [x for _, x in path] == forced_golden(a, b, c, d, sides)
    assert _golden_path(a, b, c, d, left, 0, guess, xtol) == []
    want, width = left, b - a
    for side in sides:
        assert side == want and width > xtol
        a, b, c, d = (a, d, d - INVPHI * (d - a), c) if side else (c, b, d, c + INVPHI * (b - c))
        want, width = guess <= (c + d) / 2, b - a
    assert len(path) == steps or width <= xtol


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


def plateau_profile(centres, half_width, zero_below=-math.inf):
    """A synthetic profile ``(loss, level, count)`` whose loss is exactly 0
    on a plateau of ``half_width`` around each centre and below
    ``zero_below``, and rises linearly elsewhere; its calls are recorded."""
    calls = []

    def profile(x):
        calls.append(np.array(x))
        loss = np.min([np.maximum(np.abs(x - c) - half_width, 0.0) for c in centres], axis=0)
        return np.where(x < zero_below, 0.0, loss), x.copy(), np.floor(x * 1e6).astype(np.int64)

    return profile, calls


def assert_read_at_its_own_level(x, values):
    _, level, count = values
    assert level == x
    assert type(count) is int and count == math.floor(x * 1e6)


def test_equal_refined_basins_resolve_to_the_left_one():
    # the grid sits closer to the right plateau, so its basin is refined
    # first; both refinements reach the plateau's loss of exactly 0
    profile, calls = plateau_profile((0.3, 0.685), 1e-3)
    x, values = minimize_on_interval(profile, 0.0, 1.0, 16, 1e-10, width=7)
    refined = np.concatenate(calls[1:])
    assert 0.625 <= calls[1].min() and calls[1].max() <= 0.75
    for centre in (0.3, 0.685):
        assert np.any(np.abs(refined - centre) <= 1e-3)
    assert abs(x - 0.3) <= 1e-3 and values[0] == 0.0
    assert_read_at_its_own_level(x, values)


def test_notch_wins_a_tie_with_the_best_refined_point():
    lower = 0.25
    notch = np.nextafter(lower, 1.0)
    profile, calls = plateau_profile((0.6,), 1e-3, zero_below=0.26)
    x, values = minimize_on_interval(profile, lower, 1.0, 16, 1e-10, width=7)
    refined = np.concatenate(calls[1:])
    assert np.any(np.abs(refined - 0.6) <= 1e-3)
    assert x == notch and values[0] == 0.0
    assert_read_at_its_own_level(x, values)


def test_values_are_read_from_the_call_that_made_the_winner():
    # the search enters the plateau long before it stops, and later points
    # on the plateau tie rather than beat the first one
    profile, calls = plateau_profile((0.6,), 1e-3)
    x, values = minimize_on_interval(profile, 0.0, 1.0, 16, 1e-10, width=7)
    made = [j for j, c in enumerate(calls) if x in c]
    assert made and 0 < made[0] < len(calls) - 1 and x not in calls[-1]
    assert values[0] == 0.0
    assert_read_at_its_own_level(x, values)


def test_level_search_yields_the_calls_of_its_driver():
    # three basins, so the search refines three times after the grid call
    profile, calls = plateau_profile((0.2, 0.5, 0.81), 1e-3)
    want = minimize_on_interval(profile, 0.0, 1.0, 16, 1e-10, width=7)
    profile, _ = plateau_profile((0.2, 0.5, 0.81), 1e-3)
    batches, got = step_by_hand(_level_search(0.0, 1.0, 16, 1e-10, 7), profile)
    assert [b.tolist() for b in batches] == [c.tolist() for c in calls]
    assert batches[0].size == 17 and batches[0][-1] == np.nextafter(0.0, 1.0)
    # each basin's first batch starts with its inner pair, and no batch
    # holds more than the width of 7
    pairs = [[b - INVPHI * (b - a), a + INVPHI * (b - a)]
             for a, b in ((0.125, 0.25), (0.4375, 0.5625), (0.75, 0.875))]
    assert sorted(b[:2].tolist() for b in batches[1:] if b[:2].tolist() in pairs) == pairs
    assert all(b.size <= 7 for b in batches[1:])
    assert got == want
    assert_read_at_its_own_level(*got)
    batches, got = step_by_hand(_level_search(1.0, 1.0, 64, 1e-10, 7), profile)
    assert [b.tolist() for b in batches] == [[1.0]]
    assert got == minimize_on_interval(profile, 1.0, 1.0, 64, 1e-10, width=7)


def test_collapsed_interval_evaluates_the_upper_end_alone():
    calls = []

    def profile(x):
        calls.append(np.array(x))
        return x + 1.0, 2.0 * x, np.full(x.shape, 3)

    x, values = minimize_on_interval(profile, 1.0, 1.0, 64, 1e-10, width=7)
    assert [c.tolist() for c in calls] == [[1.0]]
    assert x == 1.0 and values == (2.0, 2.0, 3)
    assert [type(v) for v in values] == [float, float, int]
