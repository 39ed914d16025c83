"""Probability-plot coordinate transforms.

Each plotting model maps a tail probability t in (0, 1) to the vertical
coordinate of its probability plot: a sample following the model exactly
produces a straight line against the matching horizontal coordinate.  All
three transforms are strictly decreasing in t.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import TransformDomainError

__all__ = ["PlottingModel", "s_transform", "norm_quantile"]


class PlottingModel(Enum):
    PARETO = "pareto"
    WEIBULL = "weibull"
    LOGNORMAL = "lognormal"


# Rational minimax coefficients for the standard normal quantile,
# accurate to roughly 1e-15 relative error across (0, 1).
_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _ratpoly(coef_num, coef_den, r):
    num = np.full_like(r, coef_num[-1])
    for c in coef_num[-2::-1]:
        num *= r
        num += c
    den = np.full_like(r, coef_den[-1])
    for c in coef_den[-2::-1]:
        den *= r
        den += c
    return num / den


def norm_quantile(u):
    """Standard normal quantile at ``u`` (scalar or array), in (0, 1).

    Accuracy is far below the 1e-9 absolute error this package relies on.
    Tail evaluations route through min(u, 1-u), so exactly representable
    symmetric pairs map to exactly opposite values.
    """
    arr = np.asarray(u, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0)):
        raise TransformDomainError("quantile argument must lie strictly inside (0, 1)")
    out = _norm_quantile(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def _norm_quantile(arr: np.ndarray) -> np.ndarray:
    """Unchecked core of ``norm_quantile``: callers keep ``arr`` inside (0, 1)."""
    q = arr - 0.5
    out = np.empty_like(arr)

    central = np.abs(q) <= 0.425
    if np.any(central):
        qc = q[central]
        r = 0.180625 - qc * qc
        out[central] = qc * _ratpoly(_A, _B, r)

    tails = ~central
    if np.any(tails):
        at = arr[tails]
        r = np.sqrt(-np.log(np.minimum(at, 1.0 - at)))
        near = r <= 5.0
        x = np.empty_like(r)
        x[near] = _ratpoly(_C, _D, r[near] - 1.6)
        far = ~near
        if np.any(far):
            x[far] = _ratpoly(_E, _F, r[far] - 5.0)
        out[tails] = np.where(q[tails] < 0.0, -x, x)
    return out


def s_transform(model: PlottingModel, t: float) -> float:
    """Vertical plot coordinate for tail probability ``t`` in (0, 1).

    Pareto uses -log t (slope 1/gamma against log-spacings), Weibull uses
    log(-log t), and the log-normal model uses the upper normal quantile.
    """
    if not isinstance(model, PlottingModel):
        raise TransformDomainError(f"unknown plotting model {model!r}")
    if not (isinstance(t, (int, float, np.floating)) and np.isfinite(t)) or not (0.0 < t < 1.0):
        raise TransformDomainError(f"transform argument must lie in (0, 1), got {t!r}")
    return float(_s_values(model, np.asarray([t], dtype=float))[0])


def _s_values(model: PlottingModel, t: np.ndarray) -> np.ndarray:
    """Vectorized transform; callers guarantee t stays inside (0, 1)."""
    if model is PlottingModel.PARETO:
        return -np.log(t)
    if model is PlottingModel.WEIBULL:
        return np.log(-np.log(t))
    # upper-tail quantile: Phi^{-1}(1 - t) = -Phi^{-1}(t)
    return -_norm_quantile(np.asarray(t, dtype=float))
