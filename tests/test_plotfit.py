"""Penalized plot loss, its profiled fit and the diagnostic series."""
import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import grid_oracle

from curetail import (
    DegenerateRegressorError,
    FitConfig,
    InfeasiblePError,
    InvalidKError,
    NonPositiveThresholdError,
    PlottingModel,
    PotDomain,
    SurvivalSample,
    ValidationError,
    fit_estimate,
    gof_series,
    km_fit,
    order_sample,
    p_benchmark,
    pp_fit,
    pp_loss,
)
from curetail.estimators import fit_fields, fit_series

ALL_MODELS = (PlottingModel.PARETO, PlottingModel.WEIBULL, PlottingModel.LOGNORMAL)


def mixture_sample(rng, n, p, tail="weibull"):
    """Susceptible lifetimes with a cured point mass and uniform censoring."""
    if tail == "weibull":
        life = rng.weibull(0.8, n) * 2.0
        cen = rng.uniform(0, 5, n)
    elif tail == "pareto":
        life = (1.0 - rng.random(n)) ** -0.5
        cen = rng.uniform(1, 5, n)
    else:
        life = np.exp(rng.standard_normal(n))
        cen = rng.uniform(0, 6, n)
    life = np.where(rng.random(n) < p, life, np.inf)
    z = np.minimum(life, cen)
    return SurvivalSample(z, (life <= cen).astype(int))


def prepared(rng, n=250, p=0.8, tail="weibull"):
    s = mixture_sample(rng, n, p, tail)
    o = order_sample(s)
    return o, km_fit(o)


def exact_pareto_grid(n=200, gamma=0.5):
    """Uncensored sample whose plot is exactly linear at p = 1.

    Order statistic i sits at (1 - i/n)^(-gamma), except the top one which
    only needs to dominate; at p = 1 its transform argument hits 0 and the
    term is dropped.
    """
    i = np.arange(1, n)
    z = (1.0 - i / n) ** -gamma
    z = np.concatenate([z, [2.0 * z[-1]]])
    return SurvivalSample(z, np.ones(n, dtype=int))


class TestPBenchmark:
    def test_all_events_reaches_one(self):
        o = order_sample(SurvivalSample([1.0, 2.0, 3.0], [1, 1, 1]))
        assert p_benchmark(km_fit(o), o) == 1.0

    def test_all_censored_is_zero(self):
        o = order_sample(SurvivalSample([1.0, 2.0, 3.0], [0, 0, 0]))
        assert p_benchmark(km_fit(o), o) == 0.0

    def test_hand_value(self):
        # last jump of the 5-point curve sits at 11/15
        o = order_sample(SurvivalSample([1, 2, 3, 4, 5], [1, 0, 1, 1, 0]))
        assert_allclose(p_benchmark(km_fit(o), o), 11 / 15, rtol=1e-12)


class TestPpLoss:
    def test_profiled_slope_is_least_squares(self):
        # loss is quadratic in the slope, so the closed-form least-squares
        # slope must beat any nearby slope at every p
        rng = np.random.default_rng(2)
        for _ in range(100):
            o, c = prepared(rng, n=int(rng.integers(60, 200)))
            k = int(rng.integers(5, o.n // 2))
            p_n = p_benchmark(c, o)
            if p_n >= 0.97:
                continue
            p = rng.uniform(p_n + 0.01, 1.0)
            model = ALL_MODELS[int(rng.integers(3))]
            # rebuild the closed form from public pieces
            n = o.n
            thr = o.sorted_times[n - k - 1]
            if thr <= 0:
                continue
            base = pp_loss(model, o, c, k, 0.0, p, 0.0)
            at1 = pp_loss(model, o, c, k, 1.0, p, 0.0)
            at2 = pp_loss(model, o, c, k, 2.0, p, 0.0)
            a = (base - 2 * at1 + at2) / 2
            if a <= 0:
                continue
            slope = -(at1 - base - a) / (2 * a)
            best = pp_loss(model, o, c, k, slope, p, 0.0)
            for delta in (-1e-3, 1e-3):
                assert best <= pp_loss(model, o, c, k, slope + delta, p, 0.0) + 1e-12

    def test_exact_grid_zero_loss(self):
        s = exact_pareto_grid(n=200, gamma=0.5)
        o = order_sample(s)
        c = km_fit(o)
        loss = pp_loss(PlottingModel.PARETO, o, c, 199, 2.0, 1.0, 0.0)
        assert loss < 1e-18

    def test_penalty_term(self):
        o, c = prepared(np.random.default_rng(7))
        p_n = p_benchmark(c, o)
        p = (p_n + 1.0) / 2.0
        l0 = pp_loss(PlottingModel.PARETO, o, c, 50, 1.0, p, 0.0)
        l1 = pp_loss(PlottingModel.PARETO, o, c, 50, 1.0, p, 3.0)
        assert_allclose(l1 - l0, 3.0 * (p - p_n) ** 2, rtol=1e-9)

    def test_infeasible_p(self):
        o, c = prepared(np.random.default_rng(9))
        p_n = p_benchmark(c, o)
        for bad in (0.0, -0.3, 1.2, p_n, p_n / 2):
            with pytest.raises(InfeasiblePError):
                pp_loss(PlottingModel.PARETO, o, c, 50, 1.0, bad, 0.0)

    def test_p_equal_one_admissible_even_at_boundary_benchmark(self):
        # benchmark 1 leaves an empty open interval; p = 1 must still work
        o = order_sample(SurvivalSample(np.arange(1.0, 21.0), np.ones(20, dtype=int)))
        c = km_fit(o)
        assert p_benchmark(c, o) == 1.0
        loss = pp_loss(PlottingModel.PARETO, o, c, 10, 1.0, 1.0, 0.0)
        assert np.isfinite(loss)

    def test_k_bounds(self):
        o, c = prepared(np.random.default_rng(3), n=50)
        for bad in (1, 50, 51):
            with pytest.raises(InvalidKError):
                pp_loss(PlottingModel.PARETO, o, c, bad, 1.0, 0.99, 0.0)


class TestPpFit:
    def test_exact_grid_recovers_slope_at_boundary(self):
        s = exact_pareto_grid(n=200, gamma=0.5)
        o = order_sample(s)
        c = km_fit(o)
        fit = pp_fit(o, c, FitConfig(k=199, model=PlottingModel.PARETO, lam=0.0))
        assert fit.boundary
        assert fit.p_hat == 1.0
        assert abs(fit.slope_hat - 2.0) <= 1e-6
        assert fit.loss < 1e-12

    def test_heavy_penalty_pins_to_benchmark(self):
        rng = np.random.default_rng(12)
        for model in ALL_MODELS:
            o, c = prepared(rng, n=200, p=0.75)
            fit = pp_fit(o, c, FitConfig(k=100, model=model, lam=1e12))
            assert abs(fit.p_hat - fit.p_n) <= 1e-6

    def test_matches_grid_oracle_single_instance(self):
        # one heavier instance: heavy-tailed lifetimes, k = n - 1
        rng = np.random.default_rng(81)
        n = 5000
        life = (1.0 - rng.random(n)) ** -0.5
        life = np.where(rng.random(n) < 0.9, life, np.inf)
        cen = rng.uniform(1, 5, n)
        s = SurvivalSample(np.minimum(life, cen), (life <= cen).astype(int))
        o = order_sample(s)
        c = km_fit(o)
        fit = pp_fit(o, c, FitConfig(k=n - 1, model=PlottingModel.PARETO))
        _, _, oracle_loss = grid_oracle(o.sorted_times, o.concomitant_events, n - 1, "pareto",
                                        (n - 1) / n)
        assert abs(fit.loss - oracle_loss) <= 1e-8

    def test_smallest_p_wins_ties(self):
        # fully censored sample: the curve is identically zero, every term
        # of the unpenalized loss vanishes for any p, and the profile is
        # exactly flat; the tie rule must then return the smallest feasible
        # point, which is the first float above the benchmark 0
        o = order_sample(SurvivalSample(np.arange(1.0, 21.0), np.zeros(20, dtype=int)))
        c = km_fit(o)
        fit = pp_fit(o, c, FitConfig(k=10, model=PlottingModel.PARETO, lam=0.0))
        assert fit.p_n == 0.0
        assert fit.p_hat == np.nextafter(0.0, 1.0)
        assert fit.loss == 0.0
        assert fit.slope_hat == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(14)
        s = mixture_sample(rng, 300, 0.8, tail="pareto")
        o = order_sample(s)
        c = km_fit(o)
        base = {
            m: pp_fit(o, c, FitConfig(k=150, model=m)) for m in ALL_MODELS
        }
        for factor in (0.1, 7.3, 1000.0):
            s2 = SurvivalSample(factor * s.times, s.events)
            o2 = order_sample(s2)
            c2 = km_fit(o2)
            for m in ALL_MODELS:
                fit2 = pp_fit(o2, c2, FitConfig(k=150, model=m))
                assert abs(fit2.p_hat - base[m].p_hat) <= 1e-9
                assert abs(fit2.slope_hat - base[m].slope_hat) <= 1e-9

    def test_penalty_monotonicity(self):
        # a larger penalty weight can only pull the fit closer to p_n
        rng = np.random.default_rng(23)
        for trial in range(5):
            o, c = prepared(rng, n=180, p=0.75, tail="pareto")
            gaps = []
            for lam in (0.0, 0.1, 1.0, 10.0, 1e3, 1e6):
                fit = pp_fit(
                    o, c,
                    FitConfig(k=90, model=PlottingModel.PARETO, lam=lam,
                              refine_tolerance=1e-13),
                )
                gaps.append(abs(fit.p_hat - fit.p_n))
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a + 1e-9

    def test_feasible_lower_is_benchmark(self):
        o, c = prepared(np.random.default_rng(10))
        fit = pp_fit(o, c, FitConfig(k=80, model=PlottingModel.WEIBULL))
        assert fit.feasible_lower == fit.p_n
        assert fit.p_hat > fit.p_n

    def test_degenerate_regressor(self):
        o = order_sample(SurvivalSample(np.full(12, 3.0), np.ones(12, dtype=int)))
        c = km_fit(o)
        with pytest.raises(DegenerateRegressorError):
            pp_fit(o, c, FitConfig(k=5, model=PlottingModel.PARETO))

    def test_zero_threshold(self):
        times = np.concatenate([[0.0] * 8, [1.0, 2.0, 3.0]])
        o = order_sample(SurvivalSample(times, np.ones(11, dtype=int)))
        c = km_fit(o)
        with pytest.raises(NonPositiveThresholdError):
            pp_fit(o, c, FitConfig(k=10, model=PlottingModel.PARETO))
        with pytest.raises(NonPositiveThresholdError):
            pp_loss(PlottingModel.PARETO, o, c, 10, 1.0, 1.0, 0.0)
        with pytest.raises(NonPositiveThresholdError):
            gof_series(PlottingModel.PARETO, o, c, 10, 0.9)
        # censored, with a zero time inside the top k
        o = order_sample(SurvivalSample([0, 0, 0, 0, 1, 2, 3], [1, 1, 1, 0, 1, 1, 0]))
        with pytest.raises(NonPositiveThresholdError):
            gof_series(PlottingModel.PARETO, o, km_fit(o), 4, 0.9)

    def test_model_required(self):
        o, c = prepared(np.random.default_rng(1))
        with pytest.raises(ValidationError):
            pp_fit(o, c, FitConfig(k=10))

    @pytest.mark.parametrize("model", ["lognormal", PotDomain.GUMBEL])
    @pytest.mark.parametrize("entry", ["FitConfig", "pp_loss", "gof_series"])
    def test_model_must_be_a_plotting_model(self, entry, model):
        # a model name is not the model: "lognormal" would run Pareto's transform
        o, c = prepared(np.random.default_rng(1))
        call = {
            "FitConfig": lambda: FitConfig(k=10, model=model),
            "pp_loss": lambda: pp_loss(model, o, c, 10, 1.5, 0.95, 0.0),
            "gof_series": lambda: gof_series(model, o, c, 10, 0.95),
        }[entry]
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"model must be a PlottingModel, got {model!r}"

    def test_estimator_needs_config(self):
        o, c = prepared(np.random.default_rng(1))
        with pytest.raises(ValidationError, match="requires a fit configuration"):
            fit_estimate("weibull", o, c, None)

    @pytest.mark.parametrize("helper", [fit_fields, fit_series])
    @pytest.mark.parametrize("name", ["pn", "no-such-model"])
    def test_fit_helpers_take_fitted_models_only(self, helper, name):
        # pn is an estimator without a fit, so it has no record or series
        o, c = prepared(np.random.default_rng(1))
        with pytest.raises(ValidationError, match="has no fit"):
            helper(name, o, c, FitConfig(k=10))

    def test_config_validation(self):
        with pytest.raises(InvalidKError):
            FitConfig(k=1)
        with pytest.raises(ValidationError):
            FitConfig(k=10, lam=-1.0)
        with pytest.raises(ValidationError):
            FitConfig(k=10, p_grid_resolution=5)
        for not_integer in (10.5, 512.0, True, "512"):
            with pytest.raises(ValidationError):
                FitConfig(k=10, p_grid_resolution=not_integer)
        assert FitConfig(k=10, p_grid_resolution=np.int64(64)).p_grid_resolution == 64
        with pytest.raises(ValidationError):
            FitConfig(k=10, refine_tolerance=0.0)


class TestGofSeries:
    def test_exact_grid_is_colinear(self):
        s = exact_pareto_grid(n=120, gamma=0.5)
        o = order_sample(s)
        c = km_fit(o)
        series = gof_series(PlottingModel.PARETO, o, c, 119, 1.0)
        # top point dropped (argument 0 at p = 1), remainder on one line
        assert series.dropped == 1
        slope = np.sum(series.x * series.y) / np.sum(series.x**2)
        resid = series.y - slope * series.x
        assert np.max(np.abs(resid - resid[0])) < 1e-9

    def test_benchmark_p_drops_top_point(self):
        rng = np.random.default_rng(44)
        times = rng.exponential(1, 100)
        o = order_sample(SurvivalSample(times, np.ones(100, dtype=int)))
        c = km_fit(o)
        series = gof_series(PlottingModel.PARETO, o, c, 40, p_benchmark(c, o))
        assert series.dropped >= 1
        assert series.x.size == 40 - series.dropped

    def test_minimal_k(self):
        o, c = prepared(np.random.default_rng(15), n=60)
        series = gof_series(PlottingModel.WEIBULL, o, c, 2, 0.99)
        assert series.x.size <= 2

    def test_sorted_by_x(self):
        o, c = prepared(np.random.default_rng(16))
        series = gof_series(PlottingModel.LOGNORMAL, o, c, 70, 0.95)
        assert np.all(np.diff(series.x) >= 0)

    def test_p_domain(self):
        o, c = prepared(np.random.default_rng(18))
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(InfeasiblePError):
                gof_series(PlottingModel.PARETO, o, c, 50, bad)
