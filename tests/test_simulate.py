"""Sampling mechanism, scenario catalogue and the replication harness."""
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
        assert s1.resolve_k() == 99

        s3 = scenario_spec(3, 100, 1, 0.5, 0)
        assert isinstance(s3.susceptible, StdLogNormal)
        assert s3.censoring.upper == 6.0
        assert s3.resolve_k() == 20

        s8 = scenario_spec(8, 100, 1, 0.5, 0)
        assert isinstance(s8.susceptible, ParetoLifetime)
        assert s8.susceptible.gamma == 0.5
        assert s8.censoring.lower == 1.0 and s8.censoring.upper == 5.0
        assert s8.resolve_k() == 99

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
        assert ScenarioSpec(**base, k_rule="n-1").resolve_k() == 49
        assert ScenarioSpec(**base, k_rule="n/5").resolve_k() == 10
        assert ScenarioSpec(**base, k_rule=17).resolve_k() == 17
        with pytest.raises(ValidationError):
            ScenarioSpec(**base, k_rule="half")
        with pytest.raises(ValidationError):
            ScenarioSpec(**base, k_rule=50)
        with pytest.raises(ValidationError):
            ScenarioSpec(**base, k_rule=1)

    def test_lam_rules(self):
        spec = scenario_spec(2, 100, 1, 0.5, 0)
        assert spec.resolve_lam(99) == 0.99
        spec2 = ScenarioSpec(
            scenario_id="x",
            susceptible=Exponential(),
            censoring=UniformCensoring(0, 3),
            p=0.5,
            n=50,
            reps=1,
            seed=0,
            lam_rule=0.25,
        )
        assert spec2.resolve_lam(10) == 0.25
        with pytest.raises(ValidationError):
            ScenarioSpec(
                scenario_id="x",
                susceptible=Exponential(),
                censoring=UniformCensoring(0, 3),
                p=0.5,
                n=50,
                reps=1,
                seed=0,
                lam_rule=-1.0,
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


def inline_pool(monkeypatch):
    """Replace the process pool with one that maps inline and return the
    list its sizes are recorded in: a real pool forks every requested
    worker at the first submit."""
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestRunScenario:
    def test_summary_definitions(self):
        spec = scenario_spec(2, n=80, reps=6, p=0.8, seed=7)
        out = run_scenario(spec, ("gumbel-pot", "pn"))
        for summ in out:
            assert_allclose(summ.summary["rmse"] ** 2, np.mean(summ.squared_errors), rtol=1e-12)
            assert_array_equal(summ.biases, summ.estimates - 0.8)
            assert summ.failures == 6 - summ.estimates.size
            assert summ.rep_indices.size == summ.estimates.size

    def test_benchmark_always_present_and_dedup(self):
        spec = scenario_spec(2, n=60, reps=2, p=0.8, seed=7)
        out = run_scenario(spec, ("pareto", "pareto"))
        assert [s.label for s in out] == ["pareto", "pn"]

    def test_unknown_estimator(self):
        spec = scenario_spec(2, n=60, reps=1, p=0.8, seed=7)
        with pytest.raises(ValidationError):
            run_scenario(spec, ("median-of-means",))

    def test_reproducible_across_worker_counts(self, monkeypatch):
        spec = scenario_spec(2, n=60, reps=4, p=0.8, seed=13)
        monkeypatch.delenv("CURETAIL_THREADS", raising=False)
        serial = run_scenario(spec, ("gumbel-pot",))
        monkeypatch.setenv("CURETAIL_THREADS", "2")
        parallel = run_scenario(spec, ("gumbel-pot",))
        for a, b in zip(serial, parallel):
            assert a.label == b.label
            assert_array_equal(a.estimates, b.estimates)
            assert_array_equal(a.rep_indices, b.rep_indices)
            assert a.failures == b.failures

    def test_worker_count_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("CURETAIL_THREADS", "x")
        spec = scenario_spec(2, n=60, reps=2, p=0.8, seed=7)
        with pytest.raises(ValidationError, match="CURETAIL_THREADS"):
            run_scenario(spec)

    @pytest.mark.parametrize("reps, cpus, workers", [(3, 8, 3), (6, 2, 2), (4, 1, None)])
    def test_pool_is_capped_by_replications_and_cpus(self, monkeypatch, reps, cpus, workers):
        sizes = inline_pool(monkeypatch)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setenv("CURETAIL_THREADS", "1000")
        spec = scenario_spec(2, n=60, reps=reps, p=0.8, seed=7)
        out = run_scenario(spec)
        assert sizes == ([] if workers is None else [workers])
        assert out[0].estimates.size == reps

    @pytest.mark.parametrize("cpus, workers", [(8, 3), (1, None), (None, None)])
    def test_cpu_count_caps_the_pool_without_affinity(self, monkeypatch, cpus, workers):
        # macOS and Windows have no os.sched_getaffinity
        sizes = inline_pool(monkeypatch)
        monkeypatch.delattr("os.sched_getaffinity")
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        monkeypatch.setenv("CURETAIL_THREADS", "1000")
        out = run_scenario(scenario_spec(2, n=60, reps=3, p=0.8, seed=7))
        assert sizes == ([] if workers is None else [workers])
        assert out[0].estimates.size == 3

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

    def test_benchmark_estimates_match_direct_evaluation(self):
        from curetail import km_fit, order_sample, p_benchmark

        spec = scenario_spec(4, n=70, reps=3, p=0.6, seed=31)
        out = run_scenario(spec, ("pn",))
        pn = out[0]
        for r, value in zip(pn.rep_indices, pn.estimates):
            o = order_sample(sample_scenario(spec, int(r)))
            assert value == p_benchmark(km_fit(o), o)
