"""Invariances the estimators promise, as properties over generated samples.

Samples are drawn with many ties (times on a coarse positive grid),
censoring from light to nearly total, and any tail size k from 2 to
n - 1.  A fit that fails must fail with a package error, and in the same
way for every ordering of the input rows.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import grid_oracle

from curetail import (
    CuretailError,
    FitConfig,
    PlottingModel,
    PotDomain,
    SurvivalSample,
    km_fit,
    order_sample,
    p_benchmark,
    pot_fit,
    pp_fit,
)

MODELS = (*PlottingModel, *PotDomain)


@st.composite
def samples(draw):
    """A sample, a tail size for it and a shuffle of its rows."""
    n = draw(st.integers(10, 60))
    grid = draw(st.integers(2, 3 * n))
    times = np.array(draw(st.lists(st.integers(1, grid), min_size=n, max_size=n)), float)
    censoring = draw(st.sampled_from([0.1, 0.5, 0.8, 0.95]))
    events = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n) >= censoring
    k = draw(st.integers(2, n - 1))
    order = np.array(draw(st.permutations(range(n))))
    return SurvivalSample(times * (2.5 / grid), events.astype(int)), k, order


def fits(sample, k, lam=None):
    """The fit of every model, or the class of the error it raised, and p_n."""
    ordered = order_sample(sample)
    curve = km_fit(ordered)
    out = {}
    for model in MODELS:
        try:
            if isinstance(model, PotDomain):
                out[model] = pot_fit(ordered, curve, model, FitConfig(k=k, lam=lam))
            else:
                out[model] = pp_fit(ordered, curve, FitConfig(k=k, model=model, lam=lam))
        except CuretailError as exc:
            out[model] = type(exc)
    return out, p_benchmark(curve, ordered)


@settings(max_examples=60)
@given(samples())
def test_fits_do_not_depend_on_row_order(case):
    sample, k, order = case
    shuffled = SurvivalSample(sample.times[order], sample.events[order])
    plain, _ = fits(sample, k)
    again, _ = fits(shuffled, k)
    for model in MODELS:
        assert repr(again[model]) == repr(plain[model]), model


@settings(max_examples=60)
@given(samples())
def test_p_hat_lies_between_benchmark_and_one(case):
    sample, k, _ = case
    out, p_n = fits(sample, k)
    for model, fit in out.items():
        if isinstance(fit, type):
            continue
        # the exceedance fit recovers p from pi, which may round below p_n
        slack = 1e-12 if isinstance(model, PotDomain) else 0.0
        assert p_n - slack <= fit.p_hat <= 1.0, (model, fit)


@settings(max_examples=60)
@given(samples())
def test_penalty_limit_pins_the_benchmark(case):
    # criterion 3's limit and tolerance; the tied times put events at the
    # threshold, which the exceedance curve must not count a second time
    sample, k, _ = case
    out, p_n = fits(sample, k, lam=1e12)
    for model, fit in out.items():
        if not isinstance(fit, type):
            assert abs(fit.p_hat - p_n) <= 1e-6, (model, fit)


@settings(max_examples=60)
@given(samples())
def test_fit_losses_match_the_oracle(case):
    sample, k, _ = case
    ordered = order_sample(sample)
    out, _ = fits(sample, k)
    for model, fit in out.items():
        # a boundary exceedance fit may have no identified scale, and the
        # oracle probes positive scales only
        if isinstance(fit, type) or (isinstance(model, PotDomain) and fit.boundary):
            continue
        name = f"{model.value}-pot" if isinstance(model, PotDomain) else model.value
        _, _, loss = grid_oracle(ordered.sorted_times, ordered.concomitant_events, k, name,
                                 k / sample.n)
        assert abs(fit.loss - loss) <= 1e-8, (model, fit, loss)
