"""Digest every fit output over a fixed, seeded pool of samples.

A change that promises bit-identical results is checked by running this
against two source trees and diffing what it prints:

    PYTHONPATH=<old>/src python tools/fit_digest.py > old.txt
    PYTHONPATH=<new>/src python tools/fit_digest.py > new.txt
    diff old.txt new.txt

The tool itself must be the same on both sides: run one copy of it, and
point ``PYTHONPATH`` at each tree in turn.  It writes the directory of the
``curetail`` package it imported to stderr, so that a ``PYTHONPATH`` that
names no tree, and falls through to an installed package, shows there.
It prints one ``<family> <sha256>`` line per output family:

* each of the five fits, every field of its record or the class name of
  the error it raised;
* ``calls``: the levels of every profile call each fit made, in order;
* ``loss``: the public loss at each fit's estimate;
* ``series``: the plot series at each fit's estimate;
* ``fit_fields``: the fields of each fit's JSON record;
* ``stress_sweep``: the rows of a stress sweep per estimator;
* ``run_scenario``: the summaries of scenarios 3 and 7 at n = 200, 4 reps,
  each by its named attributes, so a field that becomes a property hashes
  as before.

The pool holds grid-tied and continuous samples with a censored or an
uncensored largest observation, n from 8 to 400; each is fitted at k = 5,
a seeded k and n - 1, with lam = k/n and lam = 0.  Floats are hashed
through ``float.hex``, so any change in the last bit shows.

    python tools/fit_digest.py [--samples N] [--seed S]
"""
import argparse
import contextlib
import dataclasses
import hashlib
import os
import sys
from enum import Enum

import numpy as np

import curetail
from curetail import (
    CuretailError,
    FitConfig,
    PlottingModel,
    PotDomain,
    ReplicationSummary,
    SurvivalSample,
    gof_series,
    km_fit,
    order_sample,
    pot_fit,
    pot_gof_series,
    pot_loss,
    pp_fit,
    pp_loss,
    run_scenario,
    scenario_spec,
    stress_sweep,
)
from curetail import plotfit, potfit
from curetail.estimators import ESTIMATOR_NAMES, fit_fields

MODELS = {
    "pareto": PlottingModel.PARETO,
    "weibull": PlottingModel.WEIBULL,
    "lognormal": PlottingModel.LOGNORMAL,
    "gumbel-pot": PotDomain.GUMBEL,
    "frechet-pot": PotDomain.FRECHET,
}
FAMILIES = (*MODELS, "calls", "loss", "series", "fit_fields", "stress_sweep", "run_scenario")
SUMMARY_ATTRIBUTES = ("label", "estimates", "rep_indices", "squared_errors", "biases",
                      "failures", "summary")
STRESS_FRACTIONS = (0.0, 0.05, 0.1)


def canon(value) -> str:
    """A text form of ``value`` that tells apart any two bit patterns."""
    if value is None or isinstance(value, (bool, np.bool_, str)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return canon(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{key}:{canon(v)}" for key, v in value.items()) + "}"
    if isinstance(value, ReplicationSummary):
        return "ReplicationSummary" + canon(
            {name: getattr(value, name) for name in SUMMARY_ATTRIBUTES})
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + canon(
            {f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    raise TypeError(f"no canonical form for {type(value).__name__}")


def outcome(fn, *args) -> str:
    """``canon`` of ``fn(*args)``, or the class name of the package error it raised."""
    try:
        return canon(fn(*args))
    except CuretailError as exc:
        return type(exc).__name__


def pool(size: int, seed: int):
    """``size`` samples: n spread over [8, 400], tied or continuous times,
    censored or uncensored largest observation, and a seeded k each."""
    for i, n in enumerate(np.linspace(8, 400, size).round().astype(int).tolist()):
        rng = np.random.default_rng([seed, i])
        if i % 2 == 0:
            times = rng.integers(1, max(2, n // 4) + 1, n) * 0.25
        else:
            times = rng.lognormal(0.0, 1.0, n)
        events = (rng.random(n) < 0.7).astype(int)
        top = times == times.max()
        events[top] = 0
        if i // 2 % 2:
            events[np.flatnonzero(top)[0]] = 1
        yield SurvivalSample(times, events), int(rng.integers(2, n))


@contextlib.contextmanager
def recorded_levels():
    """Record the levels of every profile call that either fit module makes
    in the block, into the list it yields; both modules get their
    ``profile_levels`` back on the way out."""
    calls = []
    kernel = plotfit.profile_levels

    def recording(*args):
        profile = kernel(*args)

        def recorded(levels):
            calls.append(np.array(levels, dtype=float))
            return profile(levels)

        return recorded

    try:
        plotfit.profile_levels = potfit.profile_levels = recording
        yield calls
    finally:
        plotfit.profile_levels = potfit.profile_levels = kernel


def fit_lines(sample, k: int, lam, calls: list):
    """(family, text) lines of the five fits of one sample, k and lam;
    ``calls`` is the list that ``recorded_levels`` fills."""
    ordered = order_sample(sample)
    curve = km_fit(ordered)
    config = FitConfig(k=k, lam=lam)
    resolved = config.resolved_lam(ordered.n)
    head = f"n={ordered.n} k={k} lam={canon(lam)} "
    for name, model in MODELS.items():
        calls.clear()
        try:
            if isinstance(model, PotDomain):
                fit = pot_fit(ordered, curve, model, config)
                loss = outcome(pot_loss, model, ordered, curve, k, fit.scale_hat,
                               fit.pi_hat, resolved)
                series = outcome(pot_gof_series, ordered, curve, model, k, fit.pi_hat,
                                 fit.scale_hat)
            else:
                fit = pp_fit(ordered, curve, dataclasses.replace(config, model=model))
                loss = outcome(pp_loss, model, ordered, curve, k, fit.slope_hat,
                               fit.p_hat, resolved)
                series = outcome(gof_series, model, ordered, curve, k, fit.p_hat)
        except CuretailError as exc:
            yield name, head + type(exc).__name__
            yield "calls", head + name + " " + canon(calls)
            continue
        yield name, head + canon(fit)
        yield "calls", head + name + " " + canon(calls)
        yield "loss", head + name + " " + loss
        yield "series", head + name + " " + series
        yield "fit_fields", head + outcome(fit_fields, name, ordered, curve, config)


def lines(size: int, seed: int):
    """(family, text) lines over the whole pool and the two scenario runs."""
    with recorded_levels() as calls:
        for sample, seeded_k in pool(size, seed):
            n = sample.n
            for k in (5, seeded_k, n - 1):
                for lam in (None, 0.0):
                    yield from fit_lines(sample, k, lam, calls)
            for k in (seeded_k, n - 1):
                for name in ESTIMATOR_NAMES:
                    yield "stress_sweep", f"n={n} k={k} {name} " + outcome(
                        stress_sweep, sample, STRESS_FRACTIONS, name, FitConfig(k=k))
    for scenario in (3, 7):
        spec = scenario_spec(scenario, n=200, reps=4, p=0.8, seed=seed)
        yield "run_scenario", f"{scenario} " + outcome(run_scenario, spec, ESTIMATOR_NAMES)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=24, help="pool size (default 24)")
    parser.add_argument("--seed", type=int, default=2024, help="pool seed (default 2024)")
    args = parser.parse_args(argv)
    print("curetail from", os.path.dirname(curetail.__file__), file=sys.stderr)
    digests = {family: hashlib.sha256() for family in FAMILIES}
    for family, text in lines(args.samples, args.seed):
        digests[family].update(text.encode() + b"\n")
    for family in FAMILIES:
        print(family, digests[family].hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
