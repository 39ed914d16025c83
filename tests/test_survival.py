"""Ordering, product-limit curve, tail record, exceedances and the stress operator."""
import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import km_direct

import curetail
from curetail import (
    EmptySampleError,
    InvalidKError,
    KaplanMeierCurve,
    NonPositiveThresholdError,
    OrderedSample,
    SurvivalSample,
    ValidationError,
    apply_insufficiency,
    exceedances,
    km_eval,
    km_fit,
    order_sample,
    p_benchmark,
)
from curetail.survival import top_tail


class TestOrdering:
    def test_sorts_by_time(self):
        s = SurvivalSample([3.0, 1.0, 2.0], [1, 0, 1])
        o = order_sample(s)
        assert_array_equal(o.sorted_times, [1.0, 2.0, 3.0])
        assert_array_equal(o.concomitant_events, [0, 1, 1])

    def test_events_first_within_ties(self):
        s = SurvivalSample([2.0, 2.0, 2.0], [0, 1, 0])
        o = order_sample(s)
        assert_array_equal(o.concomitant_events, [1, 0, 0])

    def test_stable_among_equal_records(self):
        # four tied censorings keep their input order
        s = SurvivalSample([5.0, 5.0, 5.0, 5.0], [0, 0, 0, 0])
        o = order_sample(s)
        assert_array_equal(o.sorted_times, [5.0] * 4)

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleError):
            SurvivalSample([], [])

    def test_bad_indicator_rejected(self):
        with pytest.raises(ValidationError):
            SurvivalSample([1.0], [2])

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            SurvivalSample([-1.0], [1])


    def test_malformed_pairs_rejected(self):
        with pytest.raises(ValidationError, match="equal length"):
            SurvivalSample([1.0, 2.0], [1])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite"):
                SurvivalSample([1.0, bad], [1, 0])
        with pytest.raises(ValidationError, match="non-decreasing"):
            OrderedSample([2.0, 1.0], [1, 1])


class TestKaplanMeier:
    def test_hand_example(self):
        # times 1..5, censored at 2 and 5:
        # F(1) = 1 - 4/5 = 0.2
        # F(3) = 1 - (4/5)(2/3) = 7/15
        # F(5) = F(4) = 1 - (4/5)(2/3)(1/2) = 11/15
        s = SurvivalSample([1, 2, 3, 4, 5], [1, 0, 1, 1, 0])
        c = km_fit(s)
        assert_allclose(km_eval(c, 1.0), 0.2, rtol=1e-12)
        assert_allclose(km_eval(c, 3.0), 7 / 15, rtol=1e-12)
        assert_allclose(km_eval(c, 5.0), 11 / 15, rtol=1e-12)

    def test_no_censoring_matches_ecdf(self):
        rng = np.random.default_rng(5)
        times = np.round(rng.exponential(2.0, 60), 2)  # forces some ties
        s = SurvivalSample(times, np.ones(60, dtype=int))
        c = km_fit(s)
        grid = np.linspace(0, times.max() + 1, 200)
        ecdf = np.mean(times[:, None] <= grid[None, :], axis=0)
        assert_allclose(km_eval(c, grid), ecdf, atol=1e-12)

    def test_all_censored_is_zero_curve(self):
        s = SurvivalSample([1.0, 2.0, 3.0], [0, 0, 0])
        c = km_fit(s)
        assert c.jump_times.size == 0
        assert km_eval(c, 2.5) == 0.0

    def test_right_continuity_and_steps(self):
        s = SurvivalSample([1, 2, 3, 4, 5], [1, 0, 1, 1, 0])
        c = km_fit(s)
        assert km_eval(c, 0.999) == 0.0
        assert km_eval(c, 1.0) == km_eval(c, 1.5)  # value holds until next jump
        assert km_eval(c, 100.0) == km_eval(c, 4.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        times = rng.exponential(1.0, 80)
        events = (rng.random(80) < 0.7).astype(int)
        c0 = km_fit(SurvivalSample(times, events))
        for _ in range(5):
            perm = rng.permutation(80)
            c1 = km_fit(SurvivalSample(times[perm], events[perm]))
            assert_array_equal(c0.jump_times, c1.jump_times)
            assert_array_equal(c0.cdf_values, c1.cdf_values)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            n = int(rng.integers(3, 60))
            times = np.round(rng.exponential(1.0, n), 1)
            events = (rng.random(n) < 0.6).astype(int)
            c = km_fit(SurvivalSample(times, events))
            jt, fv = km_direct(times, events)
            assert_array_equal(c.jump_times, jt)
            assert_allclose(c.cdf_values, fv, rtol=1e-12, atol=1e-14)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(31)
        times = rng.weibull(0.7, 200) * 3
        events = (rng.random(200) < 0.5).astype(int)
        c = km_fit(SurvivalSample(times, events))
        assert np.all(np.diff(c.cdf_values) >= 0)
        assert np.all((c.cdf_values >= 0) & (c.cdf_values <= 1))

    def test_curve_validation(self):
        with pytest.raises(ValidationError):
            KaplanMeierCurve([2.0, 1.0], [0.1, 0.2], [5, 4])
        with pytest.raises(ValidationError):
            KaplanMeierCurve([1.0, 2.0], [0.5, 0.2], [5, 4])
        with pytest.raises(ValidationError, match="equal length"):
            KaplanMeierCurve([1.0, 2.0], [0.1, 0.2], [5])


class TestExceedances:
    def test_basic_excesses(self):
        s = SurvivalSample([1.0, 3.0, 7.0, 10.0], [1, 1, 0, 1])
        o = order_sample(s)
        e = exceedances(o, 2)
        assert_allclose(e.times, [4.0, 7.0])
        assert_array_equal(e.events, [0, 1])

    def test_log_scale(self):
        s = SurvivalSample([1.0, 2.0, 4.0, 8.0], [1, 1, 1, 1])
        o = order_sample(s)
        e = exceedances(o, 2, log_scale=True)
        assert_allclose(e.times, [np.log(2.0), np.log(4.0)], rtol=1e-15)

    def test_k_out_of_range(self):
        o = order_sample(SurvivalSample([1.0, 2.0, 3.0], [1, 1, 1]))
        for k in (0, 3, 4, -1):
            with pytest.raises(InvalidKError):
                exceedances(o, k)

    def test_zero_threshold_log_scale(self):
        o = order_sample(SurvivalSample([0.0, 1.0, 2.0], [1, 1, 1]))
        with pytest.raises(NonPositiveThresholdError):
            exceedances(o, 2, log_scale=True)
        # raw excesses over a zero threshold stay legal
        assert_allclose(exceedances(o, 2).times, [1.0, 2.0])

    def test_exceedance_curve_stays_below_one_when_top_censored(self):
        rng = np.random.default_rng(8)
        times = rng.exponential(1.0, 50)
        events = (rng.random(50) < 0.6).astype(int)
        events[np.argmax(times)] = 0
        o = order_sample(SurvivalSample(times, events))
        c = km_fit(exceedances(o, 20))
        assert c.cdf_values[-1] < 1.0


class TestTopTail:
    def test_fields_from_definitions(self):
        o = order_sample(SurvivalSample([1.0, 3.0, 7.0, 10.0, 2.0], [1, 1, 0, 1, 0]))
        c = km_fit(o)
        tail = top_tail(o, c, 3)
        assert (tail.k, tail.threshold) == (3, 2.0)
        assert_array_equal(tail.times, [3.0, 7.0, 10.0])
        assert_array_equal(tail.events, [1, 0, 1])
        assert_array_equal(tail.f_top, km_eval(c, [3.0, 7.0, 10.0]))
        assert tail.f_thr == km_eval(c, 2.0) and tail.p_k == 1.0 - tail.f_thr
        assert tail.p_n == p_benchmark(c, o) == 1.0
        assert not tail.f_top.flags.writeable
        for log_scale in (False, True):
            exc = exceedances(o, 3, log_scale=log_scale)
            assert_array_equal(tail.excesses(log_scale), exc.times)
            assert_array_equal(tail.events, exc.events)

    def test_k_range(self):
        o = order_sample(SurvivalSample([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1]))
        for k in (1, 4):
            with pytest.raises(InvalidKError, match=r"k must be an integer in \[2, 3\]"):
                top_tail(o, km_fit(o), k)

    def test_zero_threshold(self):
        o = order_sample(SurvivalSample([0.0, 0.0, 1.0, 2.0], [1, 0, 1, 1]))
        tail = top_tail(o, km_fit(o), 2)
        assert_array_equal(tail.excesses(), [1.0, 2.0])
        with pytest.raises(NonPositiveThresholdError,
                           match="log excesses need a positive threshold, got 0.0"):
            tail.excesses(log_scale=True)


class TestApplyInsufficiency:
    def test_zero_fraction_is_identity(self):
        s = SurvivalSample([1.0, 2.0, 3.0], [1, 1, 0])
        out = apply_insufficiency(s, 0.0)
        assert_array_equal(out.events, s.events)
        assert_array_equal(out.times, s.times)

    def test_half_censored(self):
        s = SurvivalSample([5.0, 1.0, 4.0, 2.0], [1, 1, 1, 1])
        out = apply_insufficiency(s, 0.5)
        # top two observations (5.0 and 4.0) forced to censored, order kept
        assert_array_equal(out.times, [5.0, 1.0, 4.0, 2.0])
        assert_array_equal(out.events, [0, 1, 0, 1])

    def test_count_is_exact_at_045(self):
        # ceil(0.45 * 100) must be 45, not a float-dust 46
        s = SurvivalSample(np.arange(1.0, 101.0), np.ones(100, dtype=int))
        out = apply_insufficiency(s, 0.45)
        assert int(np.sum(out.events == 0)) == 45

    def test_count_rounds_up_between_integers(self):
        # 0.13 * 50 = 6.5 is no float-dust integer, so the ceiling applies
        s = SurvivalSample(np.arange(1.0, 51.0), np.ones(50, dtype=int))
        out = apply_insufficiency(s, 0.13)
        assert_array_equal(out.events, np.r_[np.ones(43, dtype=int), np.zeros(7, dtype=int)])

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        s = SurvivalSample(rng.exponential(1, 40), (rng.random(40) < 0.5).astype(int))
        once = apply_insufficiency(s, 0.3)
        twice = apply_insufficiency(once, 0.3)
        assert_array_equal(once.events, twice.events)

    def test_monotone_in_fraction(self):
        rng = np.random.default_rng(6)
        s = SurvivalSample(rng.exponential(1, 60), np.ones(60, dtype=int))
        prev = s
        for f in (0.1, 0.2, 0.35, 0.45):
            cur = apply_insufficiency(s, f)
            # censorings only grow: wherever prev is censored, cur is too
            assert np.all(cur.events <= prev.events)
            prev = cur

    def test_fraction_domain(self):
        s = SurvivalSample([1.0, 2.0], [1, 1])
        for bad in (1.0, -0.1, 2.0):
            with pytest.raises(ValidationError):
                apply_insufficiency(s, bad)


# --- guard: the sorted sample is sliced in survival.py only -----------------

SORTED_FIELDS = {"sorted_times", "concomitant_events"}


def sorted_subscripts(source: str):
    """Lines that subscript ``.sorted_times`` or ``.concomitant_events``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                  and node.value.attr in SORTED_FIELDS)


def test_guard_sees_a_slice():
    source = ("a = o.sorted_times[n - k - 1]\nb = f(o.concomitant_events[n - k:])\n"
              "c = o.sorted_times\n")
    assert sorted_subscripts(source) == [1, 2]


def test_sorted_sample_sliced_in_survival_only():
    package = Path(curetail.__file__).parent
    offenders = [f"{path.name}:{line}"
                 for path in sorted(package.glob("*.py")) if path.name != "survival.py"
                 for line in sorted_subscripts(path.read_text())]
    assert offenders == []
