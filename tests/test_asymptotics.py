"""Tail integral and the benchmark variance constant."""
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import sigma2_naive

from curetail import CensoringTail, ValidationError, asymptotics, h_gamma, sigma2_k

# frozen outputs of the O(k^2) double-sum oracle in oracles.py
SIGMA2_HALF_K2 = 0.08659880337724826
SIGMA2_15_K7 = 0.2224340626735927
SIGMA2_20_K50 = 0.21621140904263847


class TestHGamma:
    def test_log_limit_value(self):
        assert_allclose(h_gamma(-1.0, math.e), 1.0, rtol=1e-15)

    def test_zero_at_one(self):
        for g in (-0.2, -1.0, -3.5):
            assert h_gamma(g, 1.0) == 0.0

    def test_closed_form_value(self):
        # exponent 0.5: (sqrt(4) - 1) / 0.5 = 2 exactly
        assert h_gamma(-0.5, 4.0) == 2.0

    def test_continuity_at_log_branch(self):
        # at exponent ex the integral is log(t) (1 + ex log(t) / 2 + ...),
        # about 4.5e-9 above log(t) at ex = 1e-9, t = 20
        for t in (1.5, 3.0, 20.0):
            for g in (-1.0 + 1e-9, -1.0 - 1e-9):
                x = (1.0 + g) * math.log(t)
                assert_allclose(h_gamma(g, t), math.log(t) * (1 + x / 2 + x * x / 6), rtol=2e-15)
            # inside the switch window the log branch is used verbatim
            assert h_gamma(-1.0 + 1e-13, t) == math.log(t)

    def test_accurate_next_to_log_branch(self):
        mpmath = pytest.importorskip("mpmath")
        for g in (-1.0 + 2e-12, -1.0 - 2e-12, -1.0 + 1e-10, -1.0 + 1e-6):
            ex = mpmath.mpf(1.0 + g)
            for t in (1.0 + 1e-6, 1.05, 2.0, 1e3):
                with mpmath.workdps(40):
                    want = float(mpmath.expm1(ex * mpmath.log(mpmath.mpf(t))) / ex)
                assert_allclose(h_gamma(g, t), want, rtol=1e-15)

    def test_matches_quadrature(self):
        quad = pytest.importorskip("scipy.integrate").quad
        rng = np.random.default_rng(8)
        for _ in range(25):
            g = float(rng.uniform(-3.0, -0.1))
            t = float(rng.uniform(1.0, 50.0))
            ref, _ = quad(lambda u: u**g, 1.0, t)
            assert_allclose(h_gamma(g, t), ref, rtol=1e-9, atol=1e-12)

    def test_monotone_in_t(self):
        ts = np.linspace(1.0, 30.0, 40)
        for g in (-0.3, -1.0, -2.2):
            vals = [h_gamma(g, float(t)) for t in ts]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            h_gamma(-1.0, 0.5)
        with pytest.raises(ValidationError):
            h_gamma(math.nan, 2.0)
        with pytest.raises(ValidationError):
            h_gamma(-1.0, math.inf)


def mp_sigma2(mpmath, gamma_c, k):
    """The variance constant's double sum at 40 digits."""
    with mpmath.workdps(40):
        gm = mpmath.mpf(gamma_c)
        a = [1 - mpmath.mpf(j) ** -gm / (k + 1) ** -gm for j in range(1, k + 1)]
        h = [mpmath.expm1((1 + gm) * mpmath.log(mpmath.mpf(k + 1) / j)) / (1 + gm)
             for j in range(1, k + 1)]
        return float(sum(a[i] * a[j] * h[max(i, j)] for i in range(k) for j in range(k)) / k**2)


class TestSigma2:
    def test_k1_closed_form(self):
        # single term: a^2 * log 2 with a = 1/2
        val = sigma2_k(CensoringTail(-1.0, 1))
        assert_allclose(val, 0.25 * math.log(2.0), rtol=1e-12)

    def test_frozen_oracle_values(self):
        assert_allclose(sigma2_k(CensoringTail(-0.5, 2)), SIGMA2_HALF_K2, rtol=1e-12)
        assert_allclose(sigma2_k(CensoringTail(-1.5, 7)), SIGMA2_15_K7, rtol=1e-12)
        assert_allclose(sigma2_k(CensoringTail(-2.0, 50)), SIGMA2_20_K50, rtol=1e-12)

    def test_matches_naive_double_sum(self):
        for g in (-0.25, -0.5, -1.0, -1.5, -2.7):
            for k in (1, 2, 5, 37, 200):
                got = sigma2_k(CensoringTail(g, k))
                want = sigma2_naive(g, k)
                assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_accurate_next_to_log_branch(self):
        mpmath = pytest.importorskip("mpmath")
        k = 20
        for g in (-1.0 + 2e-12, -1.0 + 1e-10, -1.0 - 1e-10):
            assert_allclose(sigma2_k(CensoringTail(g, k)), mp_sigma2(mpmath, g, k),
                            rtol=1e-14)

    @pytest.mark.parametrize("k", [10, 100])
    @pytest.mark.parametrize("g", [-1e-8, -1e-5, -1e-3])
    def test_accurate_as_index_approaches_zero(self, g, k):
        # a(j) = 1 - (j/(k+1))^(-g) cancels as g -> 0 unless taken by expm1
        mpmath = pytest.importorskip("mpmath")
        assert_allclose(sigma2_k(CensoringTail(g, k)), mp_sigma2(mpmath, g, k),
                        rtol=1e-14)

    def test_index_far_below_zero(self):
        # a(j) reaches its limit 1 and h its limit -1 / (1 + gamma_c) through
        # overflowing products, which must raise no warning
        for g in (-1e308, -1e300):
            assert sigma2_k(CensoringTail(g, 6)) == -1.0 / (1.0 + g)

    def test_positive(self):
        for g in (-0.1, -1.0, -4.0):
            for k in (1, 10, 123):
                assert sigma2_k(CensoringTail(g, k)) > 0.0

    def test_vanishes_as_index_approaches_zero(self):
        assert sigma2_k(CensoringTail(-1e-8, 10)) < 1e-13

    def test_validation(self):
        with pytest.raises(ValidationError):
            CensoringTail(0.0, 5)
        with pytest.raises(ValidationError):
            CensoringTail(0.5, 5)
        with pytest.raises(ValidationError):
            CensoringTail(math.inf, 5)
        with pytest.raises(ValidationError):
            CensoringTail(-1.0, 0)


def one_pass(gamma_c, k):
    """``sigma2_k`` as one pass over whole k-float arrays, on the package's
    own ``_h_values``: every summand and both sums in the blocked pass's
    order, so the two agree bit for bit."""
    j = np.arange(1, k + 1, dtype=float)
    a = -np.expm1(-gamma_c * np.log(j / (k + 1)))
    prefix = np.cumsum(a)
    h = asymptotics._h_values(gamma_c, (k + 1) / j)
    return float(np.sum(a * (2.0 * (prefix - a) + a) * h)) / k**2


class TestBlockedPass:
    B = asymptotics._BLOCK

    @pytest.mark.parametrize("k", [B - 1, B, B + 1, 3 * B + 7, 10**6])
    @pytest.mark.parametrize("g", [-0.5, -1.0, -2.25])
    def test_bit_equal_to_one_pass(self, k, g):
        assert sigma2_k(CensoringTail(g, k)).hex() == one_pass(g, k).hex()

    def test_holds_one_float_per_index(self):
        # the summands are k floats; a block's temporaries add a few
        # blocks, so the peak stays under 1.25 floats per index
        k = 10**6
        tail = CensoringTail(-0.75, k)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sigma2_k(tail)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * k
