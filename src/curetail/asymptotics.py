"""Limit-variance diagnostics for the benchmark estimator.

Under heavy censoring the benchmark p_n fluctuates with a variance driven
by the censoring tail index gamma_c < 0 and the number of top order
statistics k.  The double sum below evaluates that variance constant; a
prefix-sum regrouping over the pair maximum brings the cost down to O(k)
without changing the summands.  The pass runs over blocks of indices and
keeps one float per index, the summands (about 80 MB at k = 10^7), and
the tail integral stays accurate next to its log limit at gamma_c = -1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_int, check_real

__all__ = ["CensoringTail", "h_gamma", "sigma2_k"]

# below this distance from the removable singularity at exponent 0 the
# integral is evaluated as its log limit
_SINGULARITY_EPS = 1e-12

# Indices j per block of ``sigma2_k``'s pass; only the summands, one float
# per index, outlive a block.  A block's temporaries of 64 KiB come from
# the heap.  At 1 << 14 each reaches glibc's 128 KiB mmap threshold and is
# mapped and faulted anew: a `diag --k 1000000` process took 9 300 minor
# faults against 5 200 (4 700 of them the import; glibc 2.36, numpy 2.4).
_BLOCK = 1 << 13


@dataclass(frozen=True)
class CensoringTail:
    """Censoring tail index gamma_c < 0 with tail size k."""

    gamma_c: float
    k: int

    def __post_init__(self):
        check_real(self.gamma_c, "gamma_c must be a finite negative real", lambda v: v < 0)
        check_int(self.k, "k must be a positive integer", 1)


def _h_values(gamma_c: float, t: np.ndarray) -> np.ndarray:
    """Integral of u^gamma_c over [1, t], elementwise; t >= 1 assumed."""
    ex = 1.0 + gamma_c
    if abs(ex) < _SINGULARITY_EPS:
        return np.log(t)
    # expm1 keeps the digits that t**ex - 1 cancels when t**ex is near 1;
    # an exponent far below zero makes ex * log(t) -inf, and expm1 gives the
    # limit -1 that t**ex - 1 reaches there
    with np.errstate(over="ignore"):
        return np.expm1(ex * np.log(t)) / ex


def h_gamma(gamma_c: float, t: float) -> float:
    """Integral of u^gamma_c from 1 to t, with the log limit at gamma_c = -1.

    Non-negative and non-decreasing in t on [1, inf).
    """
    check_real(gamma_c, "gamma_c must be a finite real")
    check_real(t, "t must be a real >= 1", lambda v: v >= 1.0)
    return float(_h_values(gamma_c, np.asarray([float(t)]))[0])


def sigma2_k(tail: CensoringTail) -> float:
    """Variance constant of the benchmark over the top k order statistics.

    Mathematically a double sum over index pairs (j1, j2) of
    a(j1) * a(j2) * h((k+1)/max(j1, j2)) with a(j) = 1 - (j/(k+1))^(-gamma_c).
    Grouping pairs by their maximum m collapses it to a single pass:
    sum_m a(m) * (2*S(m-1) + a(m)) * h((k+1)/m) with S the prefix sums,
    which reproduces the direct sum to within float round-off.
    """
    k = tail.k
    g = tail.gamma_c
    terms = np.empty(k)
    prefix_end = 0.0
    for start in range(0, k, _BLOCK):
        j = np.arange(start + 1, min(start + _BLOCK, k) + 1, dtype=float)
        # 1 - (j/(k+1))^(-g) by expm1, which keeps the digits that the
        # difference cancels as g -> 0; a g far below zero makes the product
        # -inf, where expm1 gives the limit a = 1
        with np.errstate(over="ignore"):
            a = -np.expm1(-g * np.log(j / (k + 1)))
        # the carry enters as the first addend, so the prefix sums keep the
        # left-to-right order of one cumulative sum over all k terms
        prefix = np.cumsum(np.concatenate(([prefix_end], a)))[1:]
        prefix_end = prefix[-1]
        terms[start:start + j.size] = a * (2.0 * (prefix - a) + a) * _h_values(g, (k + 1) / j)
    return float(np.sum(terms)) / k**2
