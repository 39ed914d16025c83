"""Invariances the estimators promise, as properties over generated samples.

Samples are drawn with many ties (times on a coarse positive grid),
censoring from light to nearly total, and any tail size k from 2 to
n - 1.  A fit that fails must fail with a package error, and in the same
way for every ordering of the input rows.  Continuous cure mixtures,
whose minima mostly lie inside the feasible interval, carry the row-order,
bounds, oracle and translation properties into the golden-section
refinement, which tied samples seldom reach, and they are all that the
level search's certificate draws.
"""
from unittest.mock import patch

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
    exceedances,
    km_eval,
    km_fit,
    order_sample,
    p_benchmark,
    pot_fit,
    pot_loss,
    pp_fit,
    pp_loss,
)
from curetail import plotfit, potfit
from curetail.survival import top_tail

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


@st.composite
def mixtures(draw):
    """A sample of continuous times from a cure mixture, and a small tail
    size for it; unlike ``samples``' ties, its profiles mostly have their
    minimum inside the feasible interval, where the refinement finds it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(40, 200))
    life = rng.weibull(draw(st.sampled_from([0.5, 1.0, 2.0])), n)
    life = np.where(rng.random(n) < draw(st.sampled_from([0.6, 0.8, 0.95])), life, np.inf)
    censor = rng.uniform(0.0, draw(st.sampled_from([1.5, 3.0, 6.0])), n)
    sample = SurvivalSample(np.minimum(life, censor), (life <= censor).astype(int))
    return sample, draw(st.integers(5, n // 4))


@st.composite
def shuffled_mixtures(draw):
    """A ``mixtures`` case with a shuffle of its rows, in ``samples``' form."""
    sample, k = draw(mixtures())
    return sample, k, np.array(draw(st.permutations(range(sample.n))))


# ties and edges from samples(), interior minima from mixtures() (which
# reach the golden-section refinement)
SAMPLES_OR_MIXTURES = st.one_of(samples(), shuffled_mixtures())


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
@given(SAMPLES_OR_MIXTURES)
def test_fits_do_not_depend_on_row_order(case):
    sample, k, order = case
    shuffled = SurvivalSample(sample.times[order], sample.events[order])
    plain, _ = fits(sample, k)
    again, _ = fits(shuffled, k)
    for model in MODELS:
        assert repr(again[model]) == repr(plain[model]), model


@settings(max_examples=60)
@given(SAMPLES_OR_MIXTURES)
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
def test_tail_record_reads_the_curve_as_its_definitions(case):
    # one lookup gives f_thr, f_top and p_n, bit for bit as three would;
    # the exceedance curve is that of the independent route, exceedances
    sample, k, _ = case
    ordered = order_sample(sample)
    curve = km_fit(ordered)
    tail = top_tail(ordered, curve, k)
    assert tail.f_thr.hex() == km_eval(curve, tail.threshold).hex()
    assert tail.f_top.tobytes() == km_eval(curve, tail.times).tobytes()
    assert tail.p_n.hex() == p_benchmark(curve, ordered).hex()
    exc = exceedances(ordered, k)
    assert tail.exceedance_curve().tobytes() == km_eval(km_fit(exc), exc.times).tobytes()


@settings(max_examples=60)
@given(samples(), st.sampled_from([None, 0.0]))
def test_exceedance_fits_recover_p_without_a_clip(case, lam):
    # pi_hat in (0, 1] and p_k in [0, 1] keep 1 - (1 - pi_hat) p_k in [0, 1]
    sample, k, _ = case
    out, _ = fits(sample, k, lam)
    for domain in PotDomain:
        fit = out[domain]
        if isinstance(fit, type):
            continue
        assert fit.p_hat == 1.0 - (1.0 - fit.pi_hat) * fit.p_k, (domain, fit)
        assert 0.0 <= fit.p_hat <= 1.0 and not fit.clipped, (domain, fit)


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
@given(SAMPLES_OR_MIXTURES)
def test_fit_losses_match_the_oracle(case):
    # the oracle restates the losses from the paper; the public losses, at
    # the fit's own estimates, must reproduce the fit's loss by the row
    # rule they share with the kernel
    sample, k, _ = case
    ordered = order_sample(sample)
    curve = km_fit(ordered)
    lam = k / sample.n
    out, _ = fits(sample, k)
    for model, fit in out.items():
        # a boundary exceedance fit may have no identified scale, and the
        # oracle probes positive scales only
        if isinstance(fit, type) or (isinstance(model, PotDomain) and fit.boundary):
            continue
        name = f"{model.value}-pot" if isinstance(model, PotDomain) else model.value
        _, _, loss = grid_oracle(ordered.sorted_times, ordered.concomitant_events, k, name, lam)
        assert abs(fit.loss - loss) <= 1e-8, (model, fit, loss)
        if isinstance(model, PotDomain):
            public = pot_loss(model, ordered, curve, k, fit.scale_hat, fit.pi_hat, lam)
        elif fit.boundary or not np.isfinite(fit.slope_hat):
            continue
        else:
            public = pp_loss(model, ordered, curve, k, fit.slope_hat, fit.p_hat, lam)
        assert abs(public - fit.loss) <= 1e-12 * max(1.0, fit.loss), (model, fit, public)


@settings(max_examples=60)
@given(SAMPLES_OR_MIXTURES, st.sampled_from([0.5, 3.0, 100.0]), st.sampled_from([None, 0.0]))
def test_gumbel_pot_is_translation_invariant(case, shift, lam):
    # the Gumbel variant reads raw excesses and a curve fixed by the order
    # of the times, so a common shift moves its loss by rounding alone.
    # Its estimates may move further: where the profile is flat or two
    # basins tie, as coarse ties allow, rounding picks the level, so the
    # shifted estimates must be an equally good minimum of the plain loss
    sample, k, _ = case
    config = FitConfig(k=k, lam=lam)
    ordered = order_sample(sample)
    curve = km_fit(ordered)
    plain = gumbel_pot(ordered, curve, config)
    moved = order_sample(SurvivalSample(sample.times + shift, sample.events))
    moved = gumbel_pot(moved, km_fit(moved), config)
    if isinstance(plain, type) or isinstance(moved, type):
        assert moved is plain
        return
    tol = 1e-12 * max(1.0, plain.loss)
    assert abs(moved.loss - plain.loss) <= tol, (plain, moved)
    assert moved.boundary == plain.boundary
    if not plain.boundary:
        again = pot_loss(PotDomain.GUMBEL, ordered, curve, k, moved.scale_hat, moved.pi_hat,
                         config.resolved_lam(sample.n))
        assert abs(again - plain.loss) <= tol, (plain, moved, again)


def gumbel_pot(ordered, curve, config):
    """The gumbel-pot fit, or the class of the error it raised."""
    try:
        return pot_fit(ordered, curve, PotDomain.GUMBEL, config)
    except CuretailError as exc:
        return type(exc)


def searches(sample, k, lam):
    """Each fit that succeeds, with the level search it made: (fit, profile,
    lower, upper)."""
    search, seen = plotfit.minimize_on_interval, []

    def recording(fun, lower, upper, *args, **kwargs):
        seen.append((fun, lower, upper))
        return search(fun, lower, upper, *args, **kwargs)

    ordered = order_sample(sample)
    curve = km_fit(ordered)
    with patch.object(plotfit, "minimize_on_interval", recording), \
            patch.object(potfit, "minimize_on_interval", recording):
        for model in MODELS:
            seen.clear()
            try:
                if isinstance(model, PotDomain):
                    fit = pot_fit(ordered, curve, model, FitConfig(k=k, lam=lam))
                else:
                    fit = pp_fit(ordered, curve, FitConfig(k=k, model=model, lam=lam))
            except CuretailError:
                continue
            [searched] = seen
            yield fit, searched


@settings(max_examples=30)
@given(mixtures(), st.sampled_from([None, 0.0]))
def test_fit_loss_certifies_the_search_against_a_fine_grid(case, lam):
    # the grid, the refinement and the notch must find a loss no worse than
    # the best of 2**15 evenly spaced levels of the same profile, and that
    # loss must be the profile's own value at the fit's level
    sample, k = case
    for fit, (profile, lower, upper) in searches(sample, k, lam):
        level = fit.pi_hat if hasattr(fit, "pi_hat") else fit.p_hat
        assert profile(np.array([level]))[0][0] == fit.loss
        if lower >= upper:
            continue
        fine = lower + (upper - lower) * np.arange(1, 2**15 + 1) / 2**15
        best = float(profile(fine)[0].min())
        assert fit.loss <= best + 1e-9 * abs(best), (fit, best)
