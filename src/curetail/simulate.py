"""Monte Carlo harness for the cure-fraction estimators.

Samples follow the mixture mechanism: with probability p a subject draws a
susceptible lifetime, otherwise its lifetime is infinite (cured); every
subject draws an independent censoring time and reports the minimum with
an event indicator.  Cured subjects are therefore always censored.

Replication r of a run seeded with s uses the dedicated generator stream
(s, r), so results do not depend on scheduling and any replication can be
regenerated in isolation.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CuretailError, ValidationError, check_int, check_real
from .estimators import check_name, fit_estimate
from .plotfit import FitConfig
from .survival import SurvivalSample, km_fit, order_sample
from .transforms import norm_quantile

__all__ = [
    "Exponential",
    "StdLogNormal",
    "WeibullLifetime",
    "ParetoLifetime",
    "BurrLifetime",
    "UniformCensoring",
    "ShiftedExpCensoring",
    "ScenarioSpec",
    "ReplicationSummary",
    "scenario_spec",
    "sample_scenario",
    "run_scenario",
    "SCENARIO_IDS",
]


# --- lifetime and censoring laws, all sampled by inverse transform -------

@dataclass(frozen=True)
class Exponential:
    rate: float = 1.0

    def inverse_cdf(self, u):
        return -np.log1p(-u) / self.rate


@dataclass(frozen=True)
class StdLogNormal:
    """exp(Z) with Z standard normal."""

    def inverse_cdf(self, u):
        # u == 0 maps to the lower endpoint 0
        uc = np.clip(np.asarray(u, dtype=float), 1e-300, None)
        return np.exp(np.asarray(norm_quantile(uc)))


@dataclass(frozen=True)
class WeibullLifetime:
    shape: float = 0.5

    def inverse_cdf(self, u):
        return np.power(-np.log1p(-u), 1.0 / self.shape)


@dataclass(frozen=True)
class ParetoLifetime:
    """Tail index gamma > 0; support [1, inf)."""

    gamma: float = 0.5

    def inverse_cdf(self, u):
        return np.power(1.0 - np.asarray(u, dtype=float), -self.gamma)


@dataclass(frozen=True)
class BurrLifetime:
    c: float = 1.5
    d: float = 1.5

    def inverse_cdf(self, u):
        inner = np.power(1.0 - np.asarray(u, dtype=float), -1.0 / self.d) - 1.0
        return np.power(inner, 1.0 / self.c)


@dataclass(frozen=True)
class UniformCensoring:
    lower: float = 0.0
    upper: float = 1.0

    def inverse_cdf(self, u):
        return self.lower + (self.upper - self.lower) * np.asarray(u, dtype=float)


@dataclass(frozen=True)
class ShiftedExpCensoring:
    """Exponential tail beyond a shift; support [shift, inf)."""

    rate: float = 0.05
    shift: float = 1.0

    def inverse_cdf(self, u):
        return self.shift - np.log1p(-np.asarray(u, dtype=float)) / self.rate


# --- scenario catalogue ---------------------------------------------------

_CATALOGUE = {
    1: (Exponential(1.0), ShiftedExpCensoring(1.0 / 20.0, 1.0), "n-1"),
    2: (Exponential(1.0), UniformCensoring(0.0, 3.0), "n-1"),
    3: (StdLogNormal(), UniformCensoring(0.0, 6.0), "n/5"),
    4: (StdLogNormal(), UniformCensoring(0.0, 2.0), "n/5"),
    5: (WeibullLifetime(0.5), UniformCensoring(0.0, 6.0), "n/5"),
    6: (WeibullLifetime(0.5), UniformCensoring(0.0, 2.0), "n/5"),
    7: (ParetoLifetime(0.5), ShiftedExpCensoring(1.0 / 20.0, 1.0), "n-1"),
    8: (ParetoLifetime(0.5), UniformCensoring(1.0, 5.0), "n-1"),
    9: (BurrLifetime(1.5, 1.5), UniformCensoring(0.0, 4.0), "n/5"),
    10: (BurrLifetime(1.5, 1.5), UniformCensoring(0.0, 2.0), "n/5"),
}

SCENARIO_IDS = tuple(sorted(_CATALOGUE))


@dataclass(frozen=True)
class ScenarioSpec:
    """Sampling mechanism plus the tail-size and penalty rules for fits.

    ``k_rule`` is "n-1", "n/5" or an explicit integer; ``lam_rule`` is
    "k/n" or an explicit non-negative real.
    """

    scenario_id: int | str
    susceptible: object
    censoring: object
    p: float
    n: int
    reps: int
    seed: int
    k_rule: int | str = "n/5"
    lam_rule: float | str = "k/n"

    def __post_init__(self):
        check_real(self.p, "p must lie in (0, 1)", lambda v: 0.0 < v < 1.0)
        check_int(self.n, "n must be an integer >= 10", 10)
        check_int(self.reps, "reps must be a positive integer", 1)
        check_int(self.seed, "seed must be a non-negative integer", 0)
        self.resolve_k()
        if self.lam_rule != "k/n":
            check_real(self.lam_rule, "lam_rule must be 'k/n' or a finite non-negative real",
                       lambda v: v >= 0)

    def resolve_k(self) -> int:
        if self.k_rule == "n-1":
            return self.n - 1
        if self.k_rule == "n/5":
            return self.n // 5
        check_int(self.k_rule, "k_rule must be 'n-1', 'n/5' or an integer in [2, n-1]",
                  2, self.n - 1)
        return int(self.k_rule)

    def resolve_lam(self, k: int) -> float:
        if self.lam_rule == "k/n":
            return k / self.n
        return float(self.lam_rule)


def scenario_spec(scenario_id: int, n: int, reps: int, p: float, seed: int) -> ScenarioSpec:
    """Preset sampling mechanism for catalogue scenarios 1 through 10."""
    if scenario_id not in _CATALOGUE:
        raise ValidationError(f"scenario_id must be one of {SCENARIO_IDS}, got {scenario_id!r}")
    susceptible, censoring, k_rule = _CATALOGUE[scenario_id]
    return ScenarioSpec(
        scenario_id=scenario_id,
        susceptible=susceptible,
        censoring=censoring,
        p=p,
        n=n,
        reps=reps,
        seed=seed,
        k_rule=k_rule,
    )


def sample_scenario(spec: ScenarioSpec, rep_index: int) -> SurvivalSample:
    """Draw one replication from its dedicated generator stream."""
    rng = np.random.default_rng([int(spec.seed), int(rep_index)])
    u_mix = rng.random(spec.n)
    u_life = rng.random(spec.n)
    u_cens = rng.random(spec.n)
    lifetimes = np.asarray(spec.susceptible.inverse_cdf(u_life), dtype=float)
    lifetimes = np.where(u_mix < spec.p, lifetimes, np.inf)
    cens = np.asarray(spec.censoring.inverse_cdf(u_cens), dtype=float)
    observed = np.minimum(lifetimes, cens)
    events = (lifetimes <= cens).astype(np.int64)
    return SurvivalSample(observed, events)


@dataclass(frozen=True)
class ReplicationSummary:
    """Per-estimator record of a scenario run.

    ``estimates`` holds the successful replications only;
    ``rep_indices`` names their replication numbers, ``failures`` counts
    the discarded ones.  ``squared_errors`` and ``biases`` are taken
    against the true p of the scenario.
    """

    label: str
    estimates: np.ndarray
    rep_indices: np.ndarray
    squared_errors: np.ndarray
    biases: np.ndarray
    failures: int
    summary: dict = field(compare=False)


def _fit_one(spec: ScenarioSpec, names: tuple, rep_index: int) -> dict:
    sample = sample_scenario(spec, rep_index)
    ordered = order_sample(sample)
    curve = km_fit(ordered)
    k = spec.resolve_k()
    config = FitConfig(k=k, lam=spec.resolve_lam(k))
    out = {}
    for name in names:
        try:
            out[name] = fit_estimate(name, ordered, curve, config)
        except CuretailError:
            out[name] = None
    return out


def _summary_stats(values: np.ndarray, p_true: float) -> dict:
    if values.size == 0:
        return {"mean": math.nan, "median": math.nan, "q25": math.nan,
                "q75": math.nan, "rmse": math.nan}
    q25, q75 = np.quantile(values, [0.25, 0.75]).tolist()
    return {
        "mean": float(np.mean(values)),
        "median": float(np.median(values)),
        "q25": q25,
        "q75": q75,
        "rmse": float(np.sqrt(np.mean((values - p_true) ** 2))),
    }


def run_scenario(spec: ScenarioSpec, estimators=("pn",)) -> list[ReplicationSummary]:
    """Run every replication and summarize each requested estimator.

    The benchmark ``pn`` is always appended when not requested.  Failed
    fits are excluded from the summaries and counted per estimator.
    Parallelism over replications (CURETAIL_THREADS workers, at most one
    per replication and per usable CPU) does not change any output bit:
    streams are per-replication and the reduction order is fixed.
    """
    names = list(dict.fromkeys(estimators))
    for name in names:
        check_name(name)
    if "pn" not in names:
        names.append("pn")
    names = tuple(names)

    raw = os.environ.get("CURETAIL_THREADS", "1")
    # os.sched_getaffinity is missing on macOS and Windows
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        workers = min(int(raw), spec.reps, cpus or 1)
    except ValueError:
        raise ValidationError(f"CURETAIL_THREADS must be an integer, got {raw!r}") from None
    reps = range(spec.reps)
    if workers > 1:
        # imported here: it adds about 15 ms to every import of the package
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_fit_one, [spec] * spec.reps, [names] * spec.reps, reps,
                                 chunksize=max(1, spec.reps // (4 * workers))))
    else:
        rows = [_fit_one(spec, names, r) for r in reps]

    summaries = []
    for name in names:
        est, idx = [], []
        for r, row in enumerate(rows):
            if row[name] is not None:
                est.append(row[name])
                idx.append(r)
        values = np.asarray(est, dtype=float)
        summaries.append(
            ReplicationSummary(
                label=name,
                estimates=values,
                rep_indices=np.asarray(idx, dtype=np.int64),
                squared_errors=(values - spec.p) ** 2,
                biases=values - spec.p,
                failures=spec.reps - values.size,
                summary=_summary_stats(values, spec.p),
            )
        )
    return summaries
