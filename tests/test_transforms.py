"""Plot transforms and the normal quantile."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

from curetail import PlottingModel, TransformDomainError, norm_quantile, s_transform
from curetail.transforms import _A, _B, _C, _D, _E, _F, _norm_quantile


def reference_norm_quantile(arr):
    """The quantile formula as first written: both tail branches are
    evaluated on every tail element and np.where picks one."""

    def ratpoly(coef_num, coef_den, r):
        num = np.full_like(r, coef_num[-1])
        for c in coef_num[-2::-1]:
            num = num * r + c
        den = np.full_like(r, coef_den[-1])
        for c in coef_den[-2::-1]:
            den = den * r + c
        return num / den

    q = arr - 0.5
    out = np.empty_like(arr)
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * ratpoly(_A, _B, 0.180625 - qc * qc)
    tails = ~central
    small = np.minimum(arr[tails], 1.0 - arr[tails])
    r = np.sqrt(-np.log(small))
    near = r <= 5.0
    x = np.where(
        near,
        ratpoly(_C, _D, np.where(near, r - 1.6, 0.0)),
        ratpoly(_E, _F, np.where(near, 0.0, r - 5.0)),
    )
    out[tails] = np.where(q[tails] < 0.0, -x, x)
    return out


# upper quantile of the standard normal at 0.975, evaluated with a
# 40-digit inverse-erf oracle ahead of time
Q_975 = 1.9599639845400545


class TestSTransform:
    def test_pinned_values(self):
        assert_allclose(s_transform(PlottingModel.PARETO, math.exp(-1)), 1.0, rtol=1e-12)
        assert s_transform(PlottingModel.LOGNORMAL, 0.5) == 0.0
        assert_allclose(
            s_transform(PlottingModel.WEIBULL, math.exp(-math.e)), 1.0, rtol=1e-12
        )

    def test_strictly_decreasing(self):
        t = np.linspace(1e-6, 1 - 1e-6, 10_000)
        for model in PlottingModel:
            vals = np.array([s_transform(model, ti) for ti in t[:: 100]])
            assert np.all(np.diff(vals) < 0)

    def test_domain_guard(self):
        for model in PlottingModel:
            for bad in (0.0, 1.0, -0.5, 2.0, float("nan")):
                with pytest.raises(TransformDomainError):
                    s_transform(model, bad)

    def test_unknown_model(self):
        with pytest.raises(TransformDomainError, match="unknown plotting model"):
            s_transform("pareto", 0.5)


class TestNormQuantile:
    def test_median(self):
        assert norm_quantile(0.5) == 0.0

    def test_pinned_upper_quantile(self):
        assert abs(norm_quantile(0.975) - Q_975) <= 1e-9

    def test_one_sigma(self):
        # Phi(1) = 0.8413447460685429...
        assert abs(norm_quantile(0.841344746) - 1.0) <= 1e-6

    def test_symmetry_representable_pairs(self):
        # dyadic points: u and 1-u are both exact, so the tail reduction
        # through min(u, 1-u) must give exactly opposite results
        for u in (0.25, 0.125, 0.0625, 0.015625, 0.3, 0.4, 0.1):
            assert norm_quantile(u) == -norm_quantile(1.0 - u)

    def test_symmetry_decimal_grid(self):
        u = np.linspace(0.0001, 0.4999, 997)
        assert_allclose(norm_quantile(u), -norm_quantile(1.0 - u), atol=1e-12)

    def test_identity_against_cdf_oracle(self):
        u = np.concatenate(
            [
                np.geomspace(1e-10, 0.5, 300),
                1.0 - np.geomspace(1e-10, 0.5, 300),
            ]
        )
        back = ndtr(norm_quantile(u))
        assert np.max(np.abs(back - u)) <= 1e-8

    def test_accuracy_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40

        def oracle(x):
            return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(x) - 1))

        grid = np.concatenate(
            [np.geomspace(1e-12, 0.45, 80), 1.0 - np.geomspace(1e-12, 0.45, 80)]
        )
        for u in grid:
            assert abs(norm_quantile(float(u)) - oracle(u)) <= 1e-9

    def test_array_matches_scalar(self):
        u = np.array([0.01, 0.3, 0.5, 0.8, 0.999])
        assert_allclose(norm_quantile(u), [norm_quantile(float(x)) for x in u], rtol=0)

    def test_domain_guard(self):
        for bad in (0.0, 1.0, -0.2, 1.4, float("inf"), float("-inf"), float("nan")):
            with pytest.raises(TransformDomainError):
                norm_quantile(bad)
            with pytest.raises(TransformDomainError):
                norm_quantile(np.array([0.5, bad]))

    def test_core_is_bit_identical_to_reference_formula(self):
        # branch edges: |u - 0.5| = 0.425, and r = 5 between the two tail
        # approximations, which sits at u = exp(-25)
        edge = math.exp(-25.0)
        points = [0.075, 0.925, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0),
                  1.0 - edge, 1e-300, np.nextafter(1.0, 0.0), 0.5]
        rng = np.random.default_rng(4)
        u = np.concatenate([points, rng.random(5000), np.exp(-rng.uniform(0.0, 690.0, 5000))])
        assert np.array_equal(_norm_quantile(u), reference_norm_quantile(u))
        grid = u[:9999].reshape(-1, 3)
        assert np.array_equal(_norm_quantile(grid), reference_norm_quantile(grid))

    @pytest.mark.parametrize("layout", ["0-d", "fortran", "strided"])
    def test_core_is_bit_identical_in_any_layout(self, layout):
        # the tails are put back by flat index, which must follow C order
        # whatever the memory layout of the input
        rng = np.random.default_rng(5)
        u = np.concatenate([rng.random(3000), np.exp(-rng.uniform(0.0, 690.0, 3000))])
        rng.shuffle(u)
        if layout == "0-d":
            cases = [np.array(v) for v in (0.5, 0.075, 0.925, 0.01, 1e-300, u[0])]
        elif layout == "fortran":
            cases = [np.asfortranarray(u.reshape(60, 100))]
        else:
            cases = [u[::3], u.reshape(60, 100)[1::2, ::3]]
        for arr in cases:
            got = _norm_quantile(arr)
            assert got.shape == arr.shape
            assert np.array_equal(got, reference_norm_quantile(arr))
