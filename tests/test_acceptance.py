"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Every tolerance and scale below is pinned; seeds are frozen so reruns are
bit-reproducible.  The oracle implementations live in oracles.py and share
no code path with the package.
"""
import time

import numpy as np
from oracles import grid_oracle, km_direct, sigma2_naive

import curetail as ct


def _line(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def mixture(rng, n, p, tail):
    if tail == "pareto":
        life = (1.0 - rng.random(n)) ** -0.5
        cen = rng.uniform(1, 5, n)
    elif tail == "weibull":
        life = rng.weibull(0.8, n) * 2.0
        cen = rng.uniform(0, 5, n)
    else:
        life = np.exp(rng.standard_normal(n))
        cen = rng.uniform(0, 6, n)
    life = np.where(rng.random(n) < p, life, np.inf)
    z = np.minimum(life, cen)
    return ct.SurvivalSample(z, (life <= cen).astype(int))


def prepared(rng, n, p, tail):
    s = mixture(rng, n, p, tail)
    o = ct.order_sample(s)
    return o, ct.km_fit(o)


PP_FAMILIES = {
    "pareto": ct.PlottingModel.PARETO,
    "weibull": ct.PlottingModel.WEIBULL,
    "lognormal": ct.PlottingModel.LOGNORMAL,
}
POT_FAMILIES = {
    "gumbel-pot": ct.PotDomain.GUMBEL,
    "frechet-pot": ct.PotDomain.FRECHET,
}
FAMILY_TAILS = {
    "pareto": "pareto",
    "weibull": "weibull",
    "lognormal": "lognormal",
    "gumbel-pot": "weibull",
    "frechet-pot": "pareto",
}


def test_criterion_1_km_oracle_equivalence(capsys):
    # 1000 random censored samples, n <= 50, curve vs direct product-limit
    # formula at every jump to 1e-12; under 5 s
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        times = rng.exponential(1.0, n)
        if rng.random() < 0.5:
            times = np.round(times, 1)  # force ties
        events = (rng.random(n) < rng.uniform(0.2, 0.95)).astype(int)
        sample = ct.SurvivalSample(times, events)
        curve = ct.km_fit(ct.order_sample(sample))
        jt, fv = km_direct(times, events)
        assert np.array_equal(curve.jump_times, jt)
        if fv.size:
            worst = max(worst, float(np.max(np.abs(curve.cdf_values - fv))))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _line(capsys, 1, ok,
          f"1000 samples, max jump deviation {worst:.2e} (tol 1e-12), {elapsed:.1f}s (< 5s)")


def _instances(family, count, seed, n_max=500):
    """Deterministic stream of non-degenerate fit instances for a family."""
    rng = np.random.default_rng(seed)
    made = 0
    attempts = 0
    while made < count:
        attempts += 1
        assert attempts < 40 * count, f"cannot draw instances for {family}"
        n = int(rng.integers(60, n_max + 1))
        k = int(rng.integers(10, n))
        p = float(rng.uniform(0.6, 0.95))
        o, c = prepared(rng, n, p, FAMILY_TAILS[family])
        yield_ok = True
        try:
            if family in PP_FAMILIES:
                cfg = ct.FitConfig(k=k, model=PP_FAMILIES[family])
                fit = ct.pp_fit(o, c, cfg)
            else:
                cfg = ct.FitConfig(k=k)
                fit = ct.pot_fit(o, c, POT_FAMILIES[family], cfg)
        except ct.CuretailError:
            yield_ok = False
        if yield_ok:
            made += 1
            yield family, o, c, k, fit


def test_criterion_2_optimizer_oracle_equivalence(capsys):
    # 20 instances per family, achieved loss within 1e-8 of the
    # independent zooming-grid oracle; under 2 min
    t0 = time.time()
    worst = 0.0
    for family in (*PP_FAMILIES, *POT_FAMILIES):
        for family, o, c, k, fit in _instances(family, 20, seed=2002):
            _, _, oracle_loss = grid_oracle(o.sorted_times, o.concomitant_events, k, family,
                                            k / o.n)
            worst = max(worst, abs(fit.loss - oracle_loss))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    _line(capsys, 2, ok,
          f"5 families x 20 instances, worst |loss - oracle| {worst:.2e} (tol 1e-8), "
          f"{elapsed:.1f}s (< 2min)")


def test_criterion_3_penalty_limit(capsys):
    # lambda = 1e12 pins every family's p_hat to the benchmark within 1e-6
    worst = 0.0
    for family in (*PP_FAMILIES, *POT_FAMILIES):
        rng = np.random.default_rng(3003)
        made = 0
        attempts = 0
        while made < 10:
            attempts += 1
            assert attempts < 400, f"cannot draw instances for {family}"
            n = int(rng.integers(80, 400))
            k = int(rng.integers(10, n))
            o, c = prepared(rng, n, float(rng.uniform(0.6, 0.95)), FAMILY_TAILS[family])
            try:
                if family in PP_FAMILIES:
                    fit = ct.pp_fit(
                        o, c, ct.FitConfig(k=k, model=PP_FAMILIES[family], lam=1e12)
                    )
                else:
                    fit = ct.pot_fit(
                        o, c, POT_FAMILIES[family], ct.FitConfig(k=k, lam=1e12)
                    )
            except ct.CuretailError:
                continue
            made += 1
            worst = max(worst, abs(fit.p_hat - ct.p_benchmark(c, o)))
    ok = worst <= 1e-6
    _line(capsys, 3, ok,
          f"5 families x 10 instances at lambda=1e12, worst |p_hat - p_n| {worst:.2e} (tol 1e-6)")


def test_criterion_4_exact_model_recovery(capsys):
    # deterministic Pareto quantile grid: slope 2.0 +- 1e-6, loss < 1e-12
    n, gamma = 200, 0.5
    i = np.arange(1, n)
    z = (1.0 - i / n) ** -gamma
    z = np.concatenate([z, [2.0 * z[-1]]])
    o = ct.order_sample(ct.SurvivalSample(z, np.ones(n, dtype=int)))
    c = ct.km_fit(o)
    pfit = ct.pp_fit(o, c, ct.FitConfig(k=n - 1, model=ct.PlottingModel.PARETO, lam=0.0))
    pareto_ok = abs(pfit.slope_hat - 2.0) <= 1e-6 and pfit.loss < 1e-12

    # deterministic exponential exceedance grid: sigma_0 recovered +- 1e-6
    sigma0, k, m = 0.7, 50, 30
    j = np.arange(1, k)
    ej = -sigma0 * np.log1p(-j / k)
    exc_times = np.concatenate([ej, [ej[-1]]])
    exc_events = np.concatenate([np.ones(k - 1, dtype=int), [0]])
    low = np.linspace(0.01, 0.99, m)
    times = np.concatenate([low, [1.0], 1.0 + exc_times])
    events = np.concatenate([np.ones(m + 1, dtype=int), exc_events])
    o2 = ct.order_sample(ct.SurvivalSample(times, events))
    c2 = ct.km_fit(o2)
    gfit = ct.pot_fit(o2, c2, ct.PotDomain.GUMBEL, ct.FitConfig(k=k, lam=0.0))
    gumbel_ok = abs(gfit.scale_hat - sigma0) <= 1e-6

    ok = pareto_ok and gumbel_ok
    _line(capsys, 4, ok,
          f"Pareto grid slope {pfit.slope_hat:.12f} (want 2 +- 1e-6), loss {pfit.loss:.2e}; "
          f"Gumbel grid scale {gfit.scale_hat:.12f} (want 0.7 +- 1e-6)")


def _desk_run(scenario_id, estimators):
    spec = ct.scenario_spec(scenario_id, n=2000, reps=200, p=0.9, seed=123)
    return {s.label: s for s in ct.run_scenario(spec, estimators)}


def test_criterion_5_insufficient_followup_improvement(capsys):
    # rmse orderings at desk scale n=2000, reps=200, p=0.9, seed 123;
    # the whole block under 10 min
    t0 = time.time()
    r2 = _desk_run(2, ("gumbel-pot",))
    r8 = _desk_run(8, ("frechet-pot", "pareto"))
    r6 = _desk_run(6, ("weibull",))
    elapsed = time.time() - t0

    checks = [
        ("sc2 gumbel", r2["gumbel-pot"].summary["rmse"], r2["pn"].summary["rmse"]),
        ("sc8 frechet", r8["frechet-pot"].summary["rmse"], r8["pn"].summary["rmse"]),
        ("sc8 pareto", r8["pareto"].summary["rmse"], r8["pn"].summary["rmse"]),
        ("sc6 weibull", r6["weibull"].summary["rmse"], r6["pn"].summary["rmse"]),
    ]
    ok = all(est < pn for _, est, pn in checks) and elapsed < 600.0
    detail = "; ".join(f"{name} rmse {est:.4f} < pn {pn:.4f}" for name, est, pn in checks)
    _line(capsys, 5, ok, f"{detail}; {elapsed:.0f}s (< 10min)")


def test_criterion_6_sufficient_followup_harmlessness(capsys):
    # scenario 1 at the same desk scale: no extra median bias beyond 0.01
    r1 = _desk_run(1, ("gumbel-pot",))
    med_g = abs(r1["gumbel-pot"].summary["median"] - 0.9)
    med_pn = abs(r1["pn"].summary["median"] - 0.9)
    ok = med_g <= med_pn + 0.01
    _line(capsys, 6, ok,
          f"scenario 1 |median - 0.9|: gumbel {med_g:.5f} <= pn {med_pn:.5f} + 0.01")


def test_criterion_7_invariance_suite(capsys):
    # time scaling by c in {0.1, 7.3, 1000}: pp and Frechet fits invariant
    # to 1e-9; Gumbel scale equivariant (checked in original units, and at
    # the pinned 1e-9 for c=7.3), p and pi invariant
    rng = np.random.default_rng(101)
    n = 500
    s = mixture(rng, n, 0.85, "pareto")
    o = ct.order_sample(s)
    c = ct.km_fit(o)
    factors = (0.1, 7.3, 1000.0)
    worst_inv = 0.0

    def scaled(factor):
        s2 = ct.SurvivalSample(factor * s.times, s.events)
        o2 = ct.order_sample(s2)
        return o2, ct.km_fit(o2)

    for model in PP_FAMILIES.values():
        cfg = ct.FitConfig(k=250, model=model, refine_tolerance=1e-13)
        base = ct.pp_fit(o, c, cfg)
        for f in factors:
            o2, c2 = scaled(f)
            r = ct.pp_fit(o2, c2, cfg)
            worst_inv = max(worst_inv, abs(r.p_hat - base.p_hat),
                            abs(r.slope_hat - base.slope_hat))

    cfg_f = ct.FitConfig(k=250, refine_tolerance=1e-13)
    base_f = ct.pot_fit(o, c, ct.PotDomain.FRECHET, cfg_f)
    for f in factors:
        o2, c2 = scaled(f)
        r = ct.pot_fit(o2, c2, ct.PotDomain.FRECHET, cfg_f)
        worst_inv = max(worst_inv, abs(r.p_hat - base_f.p_hat),
                        abs(r.scale_hat - base_f.scale_hat))

    # Gumbel needs lambda = 0: the penalty is the one scale-carrying term
    cfg_g = ct.FitConfig(k=250, lam=0.0, refine_tolerance=1e-13)
    base_g = ct.pot_fit(o, c, ct.PotDomain.GUMBEL, cfg_g)
    worst_lin = 0.0
    worst_g_p = 0.0
    pinned_73 = None
    for f in factors:
        o2, c2 = scaled(f)
        r = ct.pot_fit(o2, c2, ct.PotDomain.GUMBEL, cfg_g)
        worst_lin = max(worst_lin, abs(r.scale_hat / f - base_g.scale_hat))
        worst_g_p = max(worst_g_p, abs(r.p_hat - base_g.p_hat))
        if f == 7.3:
            pinned_73 = abs(r.scale_hat - 7.3 * base_g.scale_hat)

    ok = (worst_inv <= 1e-9 and worst_lin <= 1e-8 and worst_g_p <= 1e-9
          and pinned_73 <= 1e-9)
    _line(capsys, 7, ok,
          f"pp+frechet worst deviation {worst_inv:.2e} (tol 1e-9); gumbel linear-scaling "
          f"deviation {worst_lin:.2e}, p deviation {worst_g_p:.2e}, c=7.3 scale "
          f"deviation {pinned_73:.2e} (tol 1e-9)")


def test_criterion_8_asymptotics_diagnostics(capsys):
    hand = abs(ct.sigma2_k(ct.CensoringTail(-1.0, 1)) - 0.25 * np.log(2.0))
    worst = 0.0
    for g in (-0.3, -1.0, -2.5):
        for k in (1, 2, 5, 17, 128, 600, 2000):
            a = ct.sigma2_k(ct.CensoringTail(g, k))
            b = sigma2_naive(g, k)
            worst = max(worst, abs(a - b) / abs(b))
    ok = hand <= 1e-12 and worst <= 1e-12
    _line(capsys, 8, ok,
          f"|sigma2(-1,1) - log(2)/4| = {hand:.2e} (tol 1e-12); grouped-vs-naive worst "
          f"rel diff {worst:.2e} for k <= 2000 (tol 1e-12)")


def test_criterion_9_stress_sweep_behavior(capsys):
    # synthetic scenario-3 sample at n=20000: benchmark strictly decays
    # with forced insufficiency while the exceedance estimate stays put
    spec = ct.ScenarioSpec(
        scenario_id="stress-acceptance",
        susceptible=ct.StdLogNormal(),
        censoring=ct.UniformCensoring(0.0, 6.0),
        p=0.7,
        n=20_000,
        reps=1,
        seed=44,
    )
    sample = ct.sample_scenario(spec, 0)
    fractions = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]
    rows = ct.stress_sweep(sample, fractions, "gumbel-pot", ct.FitConfig(k=10_000))
    pns = [r.p_n for r in rows]
    strictly_down = all(b < a for a, b in zip(pns, pns[1:]))
    low = [r.p_hat for r in rows[:3]]
    spread = max(low) - min(low)
    ok = strictly_down and spread < 0.03
    _line(capsys, 9, ok,
          f"p_n strictly decreasing over 0..0.45: {strictly_down}; gumbel p_hat spread "
          f"over 0..0.10 = {spread:.4f} (< 0.03)")
