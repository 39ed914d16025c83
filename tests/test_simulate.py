"""Sampling mechanism, scenario catalogue and the replication harness."""
import os

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose, assert_array_equal

from curetail import (
    BurrLifetime,
    CuretailError,
    Exponential,
    ParetoLifetime,
    SCENARIO_IDS,
    ScenarioSpec,
    ShiftedExpCensoring,
    StdLogNormal,
    UniformCensoring,
    ValidationError,
    WeibullLifetime,
    run_scenario,
    sample_scenario,
    scenario_spec,
)

U = np.linspace(0.01, 0.99, 23)


class TestInverseCdfs:
    """Each law against the matching scipy quantile function."""

    def test_exponential(self):
        assert_allclose(Exponential(1.0).inverse_cdf(U), scipy.stats.expon.ppf(U), rtol=1e-12)
        assert_allclose(
            Exponential(3.5).inverse_cdf(U), scipy.stats.expon(scale=1 / 3.5).ppf(U), rtol=1e-12
        )

    def test_lognormal(self):
        assert_allclose(
            StdLogNormal().inverse_cdf(U), scipy.stats.lognorm(s=1.0).ppf(U), rtol=1e-9
        )

    def test_weibull(self):
        assert_allclose(
            WeibullLifetime(0.5).inverse_cdf(U),
            scipy.stats.weibull_min(c=0.5).ppf(U),
            rtol=1e-12,
        )

    def test_pareto(self):
        # tail index gamma corresponds to shape 1/gamma
        assert_allclose(
            ParetoLifetime(0.5).inverse_cdf(U), scipy.stats.pareto(b=2.0).ppf(U), rtol=1e-12
        )

    def test_burr(self):
        assert_allclose(
            BurrLifetime(1.5, 1.5).inverse_cdf(U),
            scipy.stats.burr12(c=1.5, d=1.5).ppf(U),
            rtol=1e-12,
        )

    def test_uniform(self):
        assert_allclose(
            UniformCensoring(1.0, 5.0).inverse_cdf(U),
            scipy.stats.uniform(loc=1.0, scale=4.0).ppf(U),
            rtol=1e-12,
        )

    def test_shifted_exponential(self):
        assert_allclose(
            ShiftedExpCensoring(0.05, 1.0).inverse_cdf(U),
            scipy.stats.expon(loc=1.0, scale=20.0).ppf(U),
            rtol=1e-12,
        )


class TestSampleScenario:
    def test_deterministic_per_replication(self):
        spec = scenario_spec(2, n=100, reps=3, p=0.8, seed=99)
        a = sample_scenario(spec, 1)
        b = sample_scenario(spec, 1)
        assert_array_equal(a.times, b.times)
        assert_array_equal(a.events, b.events)
        c = sample_scenario(spec, 2)
        assert not np.array_equal(a.times, c.times)

    def test_seed_separates_runs(self):
        s1 = sample_scenario(scenario_spec(2, 100, 1, 0.8, seed=1), 0)
        s2 = sample_scenario(scenario_spec(2, 100, 1, 0.8, seed=2), 0)
        assert not np.array_equal(s1.times, s2.times)

    def test_support_bounds(self):
        # censoring support caps every observation
        s2 = sample_scenario(scenario_spec(2, 5000, 1, 0.8, seed=5), 0)
        assert np.all(s2.times <= 3.0)
        s8 = sample_scenario(scenario_spec(8, 5000, 1, 0.8, seed=5), 0)
        assert np.all(s8.times <= 5.0)
        assert np.all(s8.times >= 1.0)

    def test_cured_subjects_are_censored(self):
        # censoring pushed beyond any susceptible draw: every susceptible
        # subject is an event, so the event fraction estimates p itself
        spec = ScenarioSpec(
            scenario_id="far-censoring",
            susceptible=Exponential(1.0),
            censoring=UniformCensoring(1e6, 2e6),
            p=0.7,
            n=100_000,
            reps=1,
            seed=11,
        )
        s = sample_scenario(spec, 0)
        frac = float(np.mean(s.events))
        # three binomial standard errors
        assert abs(frac - 0.7) <= 3 * np.sqrt(0.7 * 0.3 / 100_000)
        assert np.all(np.isfinite(s.times))

    @pytest.mark.parametrize("rep_index", [1.7, True, -1])
    def test_rep_index_is_a_non_negative_integer(self, rep_index):
        spec = scenario_spec(2, 20, 1, 0.8, 0)
        with pytest.raises(ValidationError) as info:
            sample_scenario(spec, rep_index)
        assert str(info.value) == f"rep_index must be a non-negative integer, got {rep_index!r}"

    def test_event_times_finite_and_positive(self):
        for sid in SCENARIO_IDS:
            s = sample_scenario(scenario_spec(sid, 200, 1, 0.75, seed=3), 0)
            assert np.all(s.times > 0)
            assert np.all(np.isfinite(s.times))
            assert set(np.unique(s.events)) <= {0, 1}


class TestScenarioSpec:
    def test_catalogue_presets(self):
        s1 = scenario_spec(1, 100, 1, 0.5, 0)
        assert isinstance(s1.susceptible, Exponential)
        assert isinstance(s1.censoring, ShiftedExpCensoring)
        assert s1.censoring.rate == 0.05 and s1.censoring.shift == 1.0
        assert s1.fit_config().k == 99

        s3 = scenario_spec(3, 100, 1, 0.5, 0)
        assert isinstance(s3.susceptible, StdLogNormal)
        assert s3.censoring.upper == 6.0
        assert s3.fit_config().k == 20

        s8 = scenario_spec(8, 100, 1, 0.5, 0)
        assert isinstance(s8.susceptible, ParetoLifetime)
        assert s8.susceptible.gamma == 0.5
        assert s8.censoring.lower == 1.0 and s8.censoring.upper == 5.0
        assert s8.fit_config().k == 99

        s10 = scenario_spec(10, 100, 1, 0.5, 0)
        assert isinstance(s10.susceptible, BurrLifetime)
        assert s10.susceptible.c == 1.5 and s10.susceptible.d == 1.5

        assert SCENARIO_IDS == tuple(range(1, 11))

    def test_unknown_scenario(self):
        with pytest.raises(ValidationError):
            scenario_spec(11, 100, 1, 0.5, 0)

    def test_k_rules(self):
        base = dict(
            scenario_id="x",
            susceptible=Exponential(),
            censoring=UniformCensoring(0, 3),
            p=0.5,
            n=50,
            reps=1,
            seed=0,
        )
        assert ScenarioSpec(**base, k_rule="n-1").fit_config().k == 49
        assert ScenarioSpec(**base, k_rule="n/5").fit_config().k == 10
        assert ScenarioSpec(**base, k_rule=17).fit_config().k == 17
        with pytest.raises(ValidationError):
            ScenarioSpec(**base, k_rule="half")
        with pytest.raises(ValidationError):
            ScenarioSpec(**base, k_rule=50)
        with pytest.raises(ValidationError):
            ScenarioSpec(**base, k_rule=1)

    def test_lam_rules(self):
        spec = scenario_spec(2, 100, 1, 0.5, 0)
        assert spec.fit_config().resolved_lam(spec.n) == 0.99
        spec2 = ScenarioSpec(
            scenario_id="x",
            susceptible=Exponential(),
            censoring=UniformCensoring(0, 3),
            p=0.5,
            n=50,
            reps=1,
            seed=0,
            lam=0.25,
        )
        assert spec2.fit_config().resolved_lam(spec2.n) == 0.25
        with pytest.raises(ValidationError):
            ScenarioSpec(
                scenario_id="x",
                susceptible=Exponential(),
                censoring=UniformCensoring(0, 3),
                p=0.5,
                n=50,
                reps=1,
                seed=0,
                lam=-1.0,
            )

    def test_domain_checks(self):
        for bad in (dict(p=0.0), dict(p=1.0), dict(n=9), dict(reps=0), dict(seed=-1),
                    dict(seed=True), dict(seed=1.5)):
            kwargs = dict(
                scenario_id="x",
                susceptible=Exponential(),
                censoring=UniformCensoring(0, 3),
                p=0.5,
                n=50,
                reps=1,
                seed=0,
            )
            kwargs.update(bad)
            with pytest.raises(ValidationError):
                ScenarioSpec(**kwargs)


class TestRunScenario:
    def test_summary_definitions(self):
        spec = scenario_spec(2, n=80, reps=6, p=0.8, seed=7)
        out = run_scenario(spec, ("gumbel-pot", "pn"))
        for summ in out:
            assert_allclose(summ.summary["rmse"] ** 2, np.mean(summ.squared_errors), rtol=1e-12)
            assert_array_equal(summ.biases, summ.estimates - 0.8)
            assert summ.failures == 6 - summ.estimates.size
            assert summ.rep_indices.size == summ.estimates.size

    def test_summary_is_computed_when_first_read(self):
        spec = scenario_spec(2, n=80, reps=6, p=0.8, seed=7)
        out = run_scenario(spec, ("gumbel-pot", "pareto"))
        assert all("summary" not in vars(summ) for summ in out)
        for summ in out:
            values = summ.estimates
            q25, q75 = np.quantile(values, [0.25, 0.75]).tolist()
            want = {"mean": float(np.mean(values)), "median": float(np.median(values)),
                    "q25": q25, "q75": q75,
                    "rmse": float(np.sqrt(np.mean((values - spec.p) ** 2)))}
            assert summ.summary == want
            assert vars(summ)["summary"] is summ.summary

    def test_benchmark_always_present_and_dedup(self):
        spec = scenario_spec(2, n=60, reps=2, p=0.8, seed=7)
        out = run_scenario(spec, ("pareto", "pareto"))
        assert [s.label for s in out] == ["pareto", "pn"]
        # a bare name is one name, not a string of one-letter names
        bare = run_scenario(spec, "gumbel-pot")
        listed = run_scenario(spec, ("gumbel-pot",))
        assert [s.label for s in bare] == ["gumbel-pot", "pn"]
        for got, want in zip(bare, listed, strict=True):
            assert (got.label, got.failures, got.summary) == (want.label, want.failures,
                                                              want.summary)
            assert_array_equal(got.estimates, want.estimates)
            assert_array_equal(got.rep_indices, want.rep_indices)

    def test_unknown_estimator(self):
        spec = scenario_spec(2, n=60, reps=1, p=0.8, seed=7)
        with pytest.raises(ValidationError):
            run_scenario(spec, ("median-of-means",))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_every_fit_of_a_run_shares_one_config(self, monkeypatch, threads):
        # a CURETAIL_THREADS left in the environment changes nothing
        import curetail.simulate as sim

        monkeypatch.setenv("CURETAIL_THREADS", threads)
        seen = []
        real = sim.fit_estimate

        def spy(name, ordered, curve, config):
            seen.append(config)
            return real(name, ordered, curve, config)

        monkeypatch.setattr(sim, "fit_estimate", spy)
        spec = ScenarioSpec(scenario_id="x", susceptible=Exponential(),
                            censoring=UniformCensoring(0, 3), p=0.8, n=60, reps=3, seed=5,
                            k_rule=17, lam=0.25)
        run_scenario(spec, ("gumbel-pot",))
        assert len(seen) == 6
        assert all(config is seen[0] for config in seen)
        assert seen[0] == spec.fit_config()

    def test_failed_fits_are_counted_and_excluded(self, monkeypatch):
        import curetail.simulate as sim

        real = sim.fit_estimate

        def flaky(name, ordered, curve, config):
            if name == "weibull":
                raise CuretailError("synthetic failure")
            return real(name, ordered, curve, config)

        monkeypatch.setattr(sim, "fit_estimate", flaky)
        spec = scenario_spec(2, n=60, reps=3, p=0.8, seed=21)
        out = run_scenario(spec, ("weibull", "pn"))
        by_label = {s.label: s for s in out}
        assert by_label["weibull"].failures == 3
        assert by_label["weibull"].estimates.size == 0
        assert np.isnan(by_label["weibull"].summary["rmse"])
        assert by_label["pn"].failures == 0
        assert by_label["pn"].estimates.size == 3

    def test_same_summaries_inside_a_pool_worker(self, monkeypatch):
        # a daemonic pool worker may start no child process, whatever
        # CURETAIL_THREADS a caller left in the environment
        import multiprocessing

        monkeypatch.setenv("CURETAIL_THREADS", "2")
        spec = scenario_spec(2, n=60, reps=4, p=0.8, seed=13)
        direct = run_scenario(spec, ("gumbel-pot",))
        with multiprocessing.Pool(1, initializer=os.environ.__setitem__,
                                  initargs=("CURETAIL_THREADS", "2")) as pool:
            nested = pool.apply(run_scenario, (spec, ("gumbel-pot",)))
        assert [s.label for s in nested] == [s.label for s in direct]
        for a, b in zip(direct, nested):
            assert_array_equal(a.estimates, b.estimates)
            assert_array_equal(a.rep_indices, b.rep_indices)
            assert a.failures == b.failures
            assert a.summary == b.summary

    def test_benchmark_estimates_match_direct_evaluation(self):
        # any replication regenerates in isolation: each summary value is
        # one fit of its own stream, and so is each failure
        from curetail import ESTIMATOR_NAMES, fit_estimate, km_fit, order_sample

        spec = scenario_spec(4, n=70, reps=3, p=0.6, seed=31)
        out = run_scenario(spec, ESTIMATOR_NAMES)
        assert [s.label for s in out] == list(ESTIMATOR_NAMES)
        assert any(s.failures for s in out)
        for summ in out:
            values = {}
            for r in range(spec.reps):
                o = order_sample(sample_scenario(spec, r))
                try:
                    values[r] = fit_estimate(summ.label, o, km_fit(o), spec.fit_config())
                except CuretailError:
                    pass
            assert summ.rep_indices.tolist() == list(values)
            assert summ.estimates.tolist() == list(values.values())
            assert summ.failures == spec.reps - len(values)
