"""Exceedance losses, the joint scale/level fit and its diagnostics."""
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from oracles import grid_oracle

from curetail import (
    DegenerateExceedancesError,
    FitConfig,
    InfeasiblePiError,
    InvalidKError,
    NonPositiveThresholdError,
    PotDomain,
    SurvivalSample,
    ValidationError,
    exceedances,
    km_fit,
    order_sample,
    p_benchmark,
    pot_fit,
    pot_gof_series,
    pot_loss,
)
from curetail.potfit import _exceedance_setup
from curetail.survival import top_tail


def mixture_sample(rng, n, p, tail="exp"):
    if tail == "exp":
        life = rng.exponential(1.0, n)
        cen = rng.uniform(0, 3, n)
    else:
        life = (1.0 - rng.random(n)) ** -0.5
        cen = rng.uniform(1, 5, n)
    life = np.where(rng.random(n) < p, life, np.inf)
    z = np.minimum(life, cen)
    return SurvivalSample(z, (life <= cen).astype(int))


def prepared(rng, n=300, p=0.8, tail="exp"):
    s = mixture_sample(rng, n, p, tail)
    o = order_sample(s)
    return o, km_fit(o)


def exact_exceedance_sample(sigma0=0.7, k=50, m=30, threshold=1.0):
    """Sample whose top-k excesses sit exactly on exponential quantiles.

    Excess j lands on -sigma0*log(1 - j/k); the top excess is duplicated
    with a censored copy so the conditional curve keeps its final value
    strictly below 1 and every loss term vanishes at (sigma0, pi = 1).
    The duplicate reuses the identical float so the tie is bit-exact.
    """
    j = np.arange(1, k)
    ej = -sigma0 * np.log1p(-j / k)
    exc_times = np.concatenate([ej, [ej[-1]]])
    exc_events = np.concatenate([np.ones(k - 1, dtype=int), [0]])
    low = np.linspace(0.01, 0.99, m) * threshold
    times = np.concatenate([low, [threshold], threshold + exc_times])
    events = np.concatenate([np.ones(m + 1, dtype=int), exc_events])
    return SurvivalSample(times, events)


def exact_case(sigma0=1.3, k=40):
    """``exact_exceedance_sample`` ordered, its curve, and the lower bound
    of the conditional level, the exceedance curve's final value."""
    o = order_sample(exact_exceedance_sample(sigma0=sigma0, k=k))
    c = km_fit(o)
    _, f_k, _, _ = _exceedance_setup(top_tail(o, c, k), PotDomain.GUMBEL)
    return o, c, float(f_k[-1])


class TestPotLoss:
    def test_zero_at_exact_construction(self):
        o, c, _ = exact_case(sigma0=1.3, k=40)
        loss = pot_loss(PotDomain.GUMBEL, o, c, 40, 1.3, 1.0, 0.0)
        assert loss < 1e-18

    def test_profiled_scale_is_least_squares(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            o, c = prepared(rng, n=int(rng.integers(80, 250)))
            k = int(rng.integers(5, o.n // 2))
            _, f_k, _, _ = _exceedance_setup(top_tail(o, c, k), PotDomain.GUMBEL)
            lower = float(f_k[-1])
            if lower == 0.0 or lower >= 0.99:
                continue
            pi = rng.uniform(lower + 0.005, 1.0)
            if pi <= lower:
                continue

            def loss(scale):
                return pot_loss(PotDomain.GUMBEL, o, c, k, scale, pi, 0.0)

            base, d = 0.5, 0.5
            f0, f1, f2 = loss(base), loss(base + d), loss(base + 2 * d)
            a = (f0 - 2 * f1 + f2) / 2
            if a <= 0:
                continue
            s_best = base + d * (-(f1 - f0 - a) / (2 * a))
            if s_best <= 1e-3:
                continue
            best = loss(s_best)
            for delta in (-1e-3, 1e-3):
                assert best <= loss(s_best + delta) + 1e-12

    def test_penalty_acts_on_recovered_fraction(self):
        # the exceedance curve's final value (k-1)/k bounds pi from below
        o, c, lower = exact_case(k=20)
        tail = top_tail(o, c, 20)
        pi = 0.98
        assert lower < pi
        l0 = pot_loss(PotDomain.GUMBEL, o, c, 20, 1.0, pi, 0.0)
        l1 = pot_loss(PotDomain.GUMBEL, o, c, 20, 1.0, pi, 5.0)
        p = 1.0 - (1.0 - pi) * tail.p_k
        assert p != tail.p_n
        assert_allclose(l1 - l0, 5.0 * (p - tail.p_n) ** 2, rtol=1e-9)

    def test_boundary_terms_dropped(self):
        o, c, lower = exact_case(sigma0=1.3, k=10)
        # one float above the bound the top terms' argument is ~1e-16 and
        # must be dropped; kept, their residuals alone would exceed 1000
        notch = float(np.nextafter(lower, 1.0))
        loss = pot_loss(PotDomain.GUMBEL, o, c, 10, 1.3, notch, 0.0)
        assert np.isfinite(loss)
        assert loss < 100.0

    def test_validation(self):
        o, c, lower = exact_case(k=10)
        with pytest.raises(ValidationError):
            pot_loss(PotDomain.GUMBEL, o, c, 10, 0.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            pot_loss(PotDomain.GUMBEL, o, c, 10, -1.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            pot_loss(PotDomain.GUMBEL, o, c, 10, 1.0, 1.0, -0.5)
        with pytest.raises(ValidationError):
            pot_loss("gumbel", o, c, 10, 1.0, 1.0, 0.0)
        with pytest.raises(InfeasiblePiError):
            pot_loss(PotDomain.GUMBEL, o, c, 10, 1.0, 0.0, 0.0)
        with pytest.raises(InfeasiblePiError):
            pot_loss(PotDomain.GUMBEL, o, c, 10, 1.0, 1.5, 0.0)
        with pytest.raises(InfeasiblePiError):
            pot_loss(PotDomain.GUMBEL, o, c, 10, 1.0, lower / 2, 0.0)


class TestPotFit:
    def test_exact_construction_recovers_scale(self):
        s = exact_exceedance_sample(sigma0=0.7, k=50, m=30)
        o = order_sample(s)
        c = km_fit(o)
        fit = pot_fit(o, c, PotDomain.GUMBEL, FitConfig(k=50, lam=0.0))
        assert abs(fit.scale_hat - 0.7) <= 1e-6
        assert fit.pi_hat == 1.0
        assert fit.p_hat == 1.0
        assert fit.loss < 1e-12
        assert not fit.clipped

    def test_heavy_penalty_pins_to_benchmark(self):
        rng = np.random.default_rng(17)
        for domain, tail in ((PotDomain.GUMBEL, "exp"), (PotDomain.FRECHET, "pareto")):
            o, c = prepared(rng, n=250, p=0.75, tail=tail)
            fit = pot_fit(o, c, domain, FitConfig(k=120, lam=1e12))
            p_n = p_benchmark(c, o)
            assert abs(fit.p_hat - p_n) <= 1e-6

    def test_recovery_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            o, c = prepared(rng, n=200, p=0.8)
            fit = pot_fit(o, c, PotDomain.GUMBEL, FitConfig(k=80))
            lhs = (1.0 - fit.pi_hat) * fit.p_k
            assert abs(lhs - (1.0 - fit.p_hat)) <= 1e-12

    def test_p_k_matches_curve_tail(self):
        o, c = prepared(np.random.default_rng(25), n=150)
        k = 60
        fit = pot_fit(o, c, PotDomain.GUMBEL, FitConfig(k=k))
        from curetail import km_eval

        thr = float(o.sorted_times[o.n - k - 1])
        assert_allclose(fit.p_k, 1.0 - float(km_eval(c, thr)), rtol=1e-12)

    def test_gumbel_scale_equivariance(self):
        # the loss bottom is flat enough that the reported minimizer can
        # drift by ~1e-9 between equivalent runs, so the fit is converged
        # tighter than the default here; the 7.3 case gets the sharp bound,
        # the other factors a softer one
        rng = np.random.default_rng(31)
        s = mixture_sample(rng, 300, 0.8, tail="exp")
        o = order_sample(s)
        c = km_fit(o)
        cfg = FitConfig(k=150, lam=0.0, refine_tolerance=1e-13)
        base = pot_fit(o, c, PotDomain.GUMBEL, cfg)
        for factor in (0.1, 7.3, 1000.0):
            s2 = SurvivalSample(factor * s.times, s.events)
            o2 = order_sample(s2)
            fit2 = pot_fit(o2, km_fit(o2), PotDomain.GUMBEL, cfg)
            tol = 1e-9 if factor == 7.3 else 1e-8
            assert abs(fit2.scale_hat - factor * base.scale_hat) <= tol * max(factor, 1.0)
            assert abs(fit2.pi_hat - base.pi_hat) <= tol
            assert abs(fit2.p_hat - base.p_hat) <= tol

    def test_gumbel_translation_invariance(self):
        # dyadic times keep every shifted sum exact, so the excesses over
        # the shifted threshold are bit-identical and the fit must not move
        rng = np.random.default_rng(37)
        times = rng.integers(1, 102_400, 250) / 1024.0
        events = (rng.random(250) < 0.7).astype(int)
        s = SurvivalSample(times, events)
        o = order_sample(s)
        base = pot_fit(o, km_fit(o), PotDomain.GUMBEL, FitConfig(k=100))
        for shift in (0.5, 5.0, 123.25):
            s2 = SurvivalSample(s.times + shift, s.events)
            o2 = order_sample(s2)
            fit2 = pot_fit(o2, km_fit(o2), PotDomain.GUMBEL, FitConfig(k=100))
            assert abs(fit2.scale_hat - base.scale_hat) <= 1e-12
            assert abs(fit2.pi_hat - base.pi_hat) <= 1e-12
            assert fit2.p_k == base.p_k

    def test_frechet_scale_invariance(self):
        rng = np.random.default_rng(33)
        s = mixture_sample(rng, 300, 0.8, tail="pareto")
        o = order_sample(s)
        base = pot_fit(o, km_fit(o), PotDomain.FRECHET, FitConfig(k=150))
        for factor in (0.1, 7.3, 1000.0):
            s2 = SurvivalSample(factor * s.times, s.events)
            o2 = order_sample(s2)
            fit2 = pot_fit(o2, km_fit(o2), PotDomain.FRECHET, FitConfig(k=150))
            assert abs(fit2.scale_hat - base.scale_hat) <= 1e-9
            assert abs(fit2.pi_hat - base.pi_hat) <= 1e-9
            assert abs(fit2.p_hat - base.p_hat) <= 1e-9

    def test_matches_grid_oracle_single_instance(self):
        rng = np.random.default_rng(55)
        o, c = prepared(rng, n=2000, p=0.85, tail="pareto")
        k = 800
        fit = pot_fit(o, c, PotDomain.FRECHET, FitConfig(k=k))
        _, _, oracle_loss = grid_oracle(o.sorted_times, o.concomitant_events, k, "frechet-pot",
                                        k / o.n)
        assert abs(fit.loss - oracle_loss) <= 1e-8

    def test_exceedance_curve_jump_count(self):
        # continuous data: one jump per uncensored top-k observation
        o, c = prepared(np.random.default_rng(61), n=200)
        k = 80
        exc = exceedances(o, k)
        ec = km_fit(exc)
        assert ec.jump_times.size == int(np.sum(o.concomitant_events[o.n - k:]))

    def test_all_zero_exceedances(self):
        times = np.concatenate([[1.0, 2.0], np.full(6, 5.0)])
        o = order_sample(SurvivalSample(times, np.ones(8, dtype=int)))
        c = km_fit(o)
        with pytest.raises(DegenerateExceedancesError):
            pot_fit(o, c, PotDomain.GUMBEL, FitConfig(k=5))

    def test_eventless_top(self):
        times = np.arange(1.0, 13.0)
        events = np.concatenate([np.ones(6, dtype=int), np.zeros(6, dtype=int)])
        o = order_sample(SurvivalSample(times, events))
        c = km_fit(o)
        with pytest.raises(DegenerateExceedancesError):
            pot_fit(o, c, PotDomain.GUMBEL, FitConfig(k=4))

    def test_overflowing_excesses(self):
        # raw excesses near the largest float: their squares overflow, while
        # their logarithms stay small
        times = np.array([1.0, 2.0, 3.0, 4.0, 5e307, 1e308])
        o = order_sample(SurvivalSample(times, np.array([1, 1, 0, 1, 1, 0])))
        c = km_fit(o)
        with pytest.raises(DegenerateExceedancesError, match="overflows"):
            pot_fit(o, c, PotDomain.GUMBEL, FitConfig(k=3))
        assert np.isfinite(pot_fit(o, c, PotDomain.FRECHET, FitConfig(k=3)).loss)

    def test_k_out_of_range(self):
        o, c = prepared(np.random.default_rng(3), n=50)
        with pytest.raises(InvalidKError):
            pot_fit(o, c, PotDomain.GUMBEL, FitConfig(k=50))

    def test_frechet_needs_positive_threshold(self):
        times = np.concatenate([np.zeros(5), [1.0, 2.0, 3.0, 4.0]])
        o = order_sample(SurvivalSample(times, np.ones(9, dtype=int)))
        c = km_fit(o)
        with pytest.raises(NonPositiveThresholdError):
            pot_fit(o, c, PotDomain.FRECHET, FitConfig(k=4))

    def test_domain_type_checked(self):
        o, c = prepared(np.random.default_rng(3), n=50)
        with pytest.raises(ValidationError):
            pot_fit(o, c, "gumbel", FitConfig(k=10))


def threshold_tied_sample(events):
    """Ten times with a tie at 4, the threshold of the top 6, two of which
    sit at 4; ``events`` gives the indicators in sorted order."""
    times = [1.0, 2.0, 3.0, 4.0, 4.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    o = order_sample(SurvivalSample(times, events))
    return o, km_fit(o)


class TestEventAtThreshold:
    """A top-k event at the threshold time is in F(threshold) already, so
    the exceedance curve counts it as censored."""

    EVENTS = [1, 0, 1, 1, 1, 0, 1, 0, 1, 0]

    def test_penalty_limit_recovers_the_benchmark(self):
        o, c = threshold_tied_sample(self.EVENTS)
        for domain in PotDomain:
            fit = pot_fit(o, c, domain, FitConfig(k=6, lam=1e12))
            assert abs(fit.p_hat - p_benchmark(c, o)) <= 1e-12

    def test_both_domains_read_one_curve(self):
        o, c = threshold_tied_sample(self.EVENTS)
        tail = top_tail(o, c, 6)
        (e_g, f_g), (e_f, f_f) = (_exceedance_setup(tail, d)[:2] for d in PotDomain)
        assert_array_equal(f_g, f_f)
        assert_array_equal(e_g, tail.excesses())
        assert_array_equal(e_f, tail.excesses(log_scale=True))
        # no jump at the threshold; jumps at 5 (4 at risk) and at 7 (2 at risk)
        assert_allclose(f_g, [0.0, 0.0, 0.25, 0.25, 1.0 - 0.75 * 0.5, 1.0 - 0.75 * 0.5])

    def test_public_loss_reproduces_the_fit(self):
        o, c = threshold_tied_sample(self.EVENTS)
        for domain in PotDomain:
            fit = pot_fit(o, c, domain, FitConfig(k=6))
            loss = pot_loss(domain, o, c, 6, fit.scale_hat, fit.pi_hat, 6 / o.n)
            assert_allclose(loss, fit.loss, rtol=1e-12)

    def test_no_event_above_the_threshold(self):
        # the one top-k event sits at the threshold, so no exceedance is observed
        o, c = threshold_tied_sample([1, 0, 1, 1, 1, 0, 0, 0, 0, 0])
        for domain in PotDomain:
            with pytest.raises(DegenerateExceedancesError, match="no events above"):
                pot_fit(o, c, domain, FitConfig(k=6))


class TestPotGofSeries:
    def test_diagonal_on_exact_construction(self):
        s = exact_exceedance_sample(sigma0=0.7, k=50, m=30)
        o = order_sample(s)
        c = km_fit(o)
        series = pot_gof_series(o, c, PotDomain.GUMBEL, 50, 1.0, 0.7)
        assert series.dropped == 0
        assert np.max(np.abs(series.y - series.x)) <= 1e-9

    def test_drop_at_conditional_boundary(self):
        o, c = prepared(np.random.default_rng(71), n=150)
        exc = exceedances(o, 60)
        ec = km_fit(exc)
        lower = float(ec.cdf_values[-1])
        if lower <= 0 or lower > 1:
            pytest.skip("degenerate draw")
        series = pot_gof_series(o, c, PotDomain.GUMBEL, 60, lower, 1.0)
        # every observation at or past the last conditional jump drops
        assert series.dropped >= 1
        assert series.x.size == 60 - series.dropped

    def test_minimal_k(self):
        times = np.array([1.0, 2.0, 3.0])
        o = order_sample(SurvivalSample(times, np.array([1, 1, 0])))
        c = km_fit(o)
        series = pot_gof_series(o, c, PotDomain.GUMBEL, 2, 1.0, 1.0)
        assert series.x.size <= 2

    def test_validation(self):
        o, c = prepared(np.random.default_rng(77), n=60)
        with pytest.raises(InfeasiblePiError):
            pot_gof_series(o, c, PotDomain.GUMBEL, 20, 0.0, 1.0)
        with pytest.raises(ValidationError):
            pot_gof_series(o, c, PotDomain.GUMBEL, 20, 0.5, 0.0)
        with pytest.raises(ValidationError):
            pot_gof_series(o, c, "frechet", 20, 0.5, 1.0)
