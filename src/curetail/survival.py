"""Right-censored samples and the product-limit estimator.

Observations are pairs (time, indicator) with indicator 1 for an observed
event and 0 for right censoring.  At tied times events are ranked before
censorings, so tied censored subjects remain in the risk set when the tied
events occur.  The estimated distribution function is right-continuous and
constant between event times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySampleError,
    InvalidKError,
    NonPositiveThresholdError,
    ValidationError,
    check_int,
    check_real,
)

__all__ = [
    "SurvivalSample",
    "OrderedSample",
    "KaplanMeierCurve",
    "order_sample",
    "km_fit",
    "km_eval",
    "TopTail",
    "top_tail",
    "p_benchmark",
    "exceedances",
    "apply_insufficiency",
    "snap_ceil",
    "snap_floor",
]


def snap_ceil(x: float) -> int:
    """Ceiling that forgives float dust: 0.07*100 counts as 7, not 8."""
    r = round(x)
    if abs(x - r) < 1e-9:
        return int(r)
    return int(math.ceil(x))


def snap_floor(x: float) -> int:
    """Floor with the same dust tolerance as :func:`snap_ceil`."""
    r = round(x)
    if abs(x - r) < 1e-9:
        return int(r)
    return int(math.floor(x))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _validated_pair(times, events) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(times, dtype=float)
    e = np.asarray(events)
    if t.ndim != 1 or e.ndim != 1 or t.shape != e.shape:
        raise ValidationError("times and events must be 1-d arrays of equal length")
    if t.size == 0:
        raise EmptySampleError("sample contains no observations")
    if not np.all(np.isfinite(t)):
        raise ValidationError("observation times must be finite")
    if np.any(t < 0):
        raise ValidationError("observation times must be non-negative")
    ef = e.astype(float)
    if not np.all((ef == 0.0) | (ef == 1.0)):
        raise ValidationError("event indicators must be 0 or 1")
    return _frozen(t), _frozen(ef.astype(np.int64))


@dataclass(frozen=True)
class SurvivalSample:
    """Paired observation times and event indicators, unordered."""

    times: np.ndarray
    events: np.ndarray

    def __post_init__(self):
        t, e = _validated_pair(self.times, self.events)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "events", e)

    @property
    def n(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class OrderedSample:
    """Sample sorted by time, events first within ties."""

    sorted_times: np.ndarray
    concomitant_events: np.ndarray

    def __post_init__(self):
        t, e = _validated_pair(self.sorted_times, self.concomitant_events)
        if np.any(np.diff(t) < 0):
            raise ValidationError("sorted_times must be non-decreasing")
        object.__setattr__(self, "sorted_times", t)
        object.__setattr__(self, "concomitant_events", e)

    @property
    def n(self) -> int:
        return int(self.sorted_times.size)


def order_sample(sample: SurvivalSample) -> OrderedSample:
    """Sort by time with events placed before censorings at tied times.

    The sort is stable, so the input order breaks any remaining ties.
    """
    order = np.lexsort((1 - sample.events, sample.times))
    return OrderedSample(sample.times[order], sample.events[order])


@dataclass(frozen=True)
class KaplanMeierCurve:
    """Product-limit estimate of the lifetime distribution function.

    ``jump_times`` holds the distinct event times in increasing order,
    ``cdf_values`` the estimate immediately after each jump and
    ``n_at_risk`` the risk-set size at each jump.  A sample without events
    yields empty arrays and an identically zero curve.
    """

    jump_times: np.ndarray
    cdf_values: np.ndarray
    n_at_risk: np.ndarray

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        cv = np.asarray(self.cdf_values, dtype=float)
        nr = np.asarray(self.n_at_risk, dtype=np.int64)
        if not (jt.shape == cv.shape == nr.shape) or jt.ndim != 1:
            raise ValidationError("curve arrays must be 1-d and of equal length")
        if jt.size:
            if np.any(np.diff(jt) <= 0):
                raise ValidationError("jump times must be strictly increasing")
            if np.any(cv < 0) or np.any(cv > 1) or np.any(np.diff(cv) < 0):
                raise ValidationError("cdf values must be non-decreasing within [0, 1]")
        object.__setattr__(self, "jump_times", _frozen(jt))
        object.__setattr__(self, "cdf_values", _frozen(cv))
        object.__setattr__(self, "n_at_risk", _frozen(nr))


def km_fit(sample: SurvivalSample | OrderedSample) -> KaplanMeierCurve:
    """Fit the product-limit curve.

    Ties are resolved events-first: the risk set at an event time counts
    every subject with an observed time >= that time, censored or not.
    """
    if isinstance(sample, OrderedSample):
        ordered = sample
    else:
        ordered = order_sample(sample)
    t = ordered.sorted_times
    e = ordered.concomitant_events
    n = t.size
    event_times = t[e == 1]
    if event_times.size == 0:
        empty = np.empty(0)
        return KaplanMeierCurve(empty, empty.copy(), np.empty(0, dtype=np.int64))
    jumps, d = np.unique(event_times, return_counts=True)
    at_risk = n - np.searchsorted(t, jumps, side="left")
    survival = np.cumprod(1.0 - d / at_risk)
    return KaplanMeierCurve(jumps, 1.0 - survival, at_risk)


def km_eval(curve: KaplanMeierCurve, t):
    """Evaluate the curve at ``t`` (scalar or array), right-continuously.

    Below the first jump the estimate is 0; past the last jump it stays at
    the final value.
    """
    t_arr = np.asarray(t, dtype=float)
    # a curve without jumps pads to [0.0], which every index reads
    idx = np.searchsorted(curve.jump_times, t_arr, side="right")
    out = np.concatenate(([0.0], curve.cdf_values))[idx]
    if t_arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TopTail:
    """The top k order statistics of one sample, read by every fit.

    ``threshold`` is the (k+1)-th largest time; ``times`` holds the k
    largest times in increasing order and ``events`` their indicators.
    ``f_top`` and ``f_thr`` are the product-limit curve at ``times`` and at
    the threshold, ``p_k = 1 - f_thr`` the estimated probability of
    exceeding the threshold, and ``p_n`` the curve at the largest time, the
    benchmark estimate.
    """

    k: int
    threshold: float
    times: np.ndarray
    events: np.ndarray
    f_top: np.ndarray
    f_thr: float
    p_k: float
    p_n: float

    def excesses(self, log_scale: bool = False) -> np.ndarray:
        """Excesses of ``times`` over the threshold; see :func:`exceedances`."""
        return _excesses(self.threshold, self.times, log_scale)


def _top(ordered: OrderedSample, k: int, least: int):
    """The threshold (the (k+1)-th largest time), the k largest times and
    their indicators; k must lie in [least, n - 1]."""
    n = ordered.n
    check_int(k, f"k must be an integer in [{least}, {n - 1}]", least, n - 1, InvalidKError)
    return (float(ordered.sorted_times[n - k - 1]), ordered.sorted_times[n - k:],
            ordered.concomitant_events[n - k:])


def _excesses(threshold: float, times: np.ndarray, log_scale: bool) -> np.ndarray:
    if not log_scale:
        return times - threshold
    if threshold <= 0.0:
        raise NonPositiveThresholdError(f"log excesses need a positive threshold, got {threshold}")
    return np.log(times) - math.log(threshold)


def top_tail(ordered: OrderedSample, curve: KaplanMeierCurve, k: int) -> TopTail:
    """The tail record of ``ordered`` for k in [2, n - 1], with ``curve``
    its product-limit curve."""
    threshold, times, events = _top(ordered, k, 2)
    f_thr = km_eval(curve, threshold)
    return TopTail(int(k), threshold, times, events, _frozen(km_eval(curve, times)), f_thr,
                   1.0 - f_thr, p_benchmark(curve, ordered))


def p_benchmark(curve: KaplanMeierCurve, ordered: OrderedSample) -> float:
    """Product-limit estimate at the largest observation.

    Equals 1 exactly when the largest observation is an uncensored event,
    and 0 when the sample has no events at all.
    """
    return float(km_eval(curve, float(ordered.sorted_times[-1])))


def exceedances(ordered: OrderedSample, k: int, log_scale: bool = False) -> SurvivalSample:
    """Excesses of the top k observations over the (k+1)-th largest.

    Returns the k exceedances paired with the censoring indicators of the
    originating observations.  With ``log_scale`` the excesses are taken on
    the log scale, which requires a strictly positive threshold.
    """
    threshold, times, events = _top(ordered, k, 1)
    return SurvivalSample(_excesses(threshold, times, log_scale), events)


def apply_insufficiency(sample: SurvivalSample, fraction: float) -> SurvivalSample:
    """Force the largest ceil(fraction*n) observations to censored status.

    Emulates shortened follow-up: whatever was observed in the top tail is
    withheld.  ``fraction`` = 0 returns the sample unchanged.  Times are
    untouched, so repeated application with the same fraction is idempotent.
    """
    check_real(fraction, "fraction must lie in [0, 1)", lambda v: 0.0 <= v < 1.0)
    n = sample.n
    m = snap_ceil(fraction * n)
    if m == 0:
        return sample
    order = np.argsort(sample.times, kind="stable")
    events = np.array(sample.events, copy=True)
    events[order[n - m:]] = 0
    return SurvivalSample(sample.times, events)
