"""Command-line interface.

Verbs: ``fit`` (one estimator on one dataset, JSON result), ``gof``
(diagnostic plot coordinates, CSV), ``simulate`` (scenario Monte Carlo,
JSON summary plus per-replication CSV), ``stress`` (follow-up stress
sweep, CSV) and ``diag`` (variance constant of the benchmark, JSON).

Exit codes: 0 on success, 2 for invalid inputs, 3 when the data defeats
the requested computation.  JSON goes to stdout at full float precision;
CSV tables carry 9 significant digits.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from .asymptotics import CensoringTail, sigma2_k
from .dataio import format_sig, parse_dataset, stress_sweep
from .errors import NumericalError, ValidationError
from .estimators import ESTIMATOR_NAMES
from .plotfit import FitConfig, gof_series, p_benchmark, pp_fit
from .potfit import PotDomain, pot_fit, pot_gof_series
from .simulate import SCENARIO_IDS, run_scenario, scenario_spec
from .survival import km_fit, order_sample, snap_floor
from .transforms import PlottingModel

_PP = {
    "pareto": PlottingModel.PARETO,
    "weibull": PlottingModel.WEIBULL,
    "lognormal": PlottingModel.LOGNORMAL,
}
_POT = {
    "gumbel-pot": PotDomain.GUMBEL,
    "frechet-pot": PotDomain.FRECHET,
}


def _resolve_k(raw: str, n: int) -> int:
    """Accept an explicit integer or a fraction of n in (0, 1)."""
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"--k must be an integer or a fraction, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"--k must be finite, got {raw!r}")
    if 0.0 < value < 1.0:
        return snap_floor(value * n)
    if value == int(value) and value >= 1:
        return int(value)
    raise ValidationError(f"--k must be an integer >= 1 or a fraction in (0, 1), got {raw!r}")


def _resolve_lam(raw: str, k: int, n: int) -> float:
    """Accept an explicit non-negative real or the rule name 'kn' (= k/n)."""
    if raw == "kn":
        return k / n
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"--lambda must be a real or 'kn', got {raw!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"--lambda must be non-negative and finite, got {raw!r}")
    return value


def _json_ready(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps({k: _json_ready(v) for k, v in payload.items()}) + "\n")


@contextlib.contextmanager
def _csv_sink(path: str | None):
    """Open a CSV destination: a file path, or stdout for None and '-'."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None
    with fh:
        yield fh


def _write_csv(sink, header: list[str], rows) -> None:
    sink.write(",".join(header) + "\n")
    for row in rows:
        sink.write(",".join(row) + "\n")


def _load(args):
    if args.input == "-":
        return parse_dataset(sys.stdin)
    try:
        return parse_dataset(args.input)
    except OSError as exc:
        raise ValidationError(f"cannot read {args.input}: {exc.strerror}") from None


def _prepare(args):
    sample = _load(args)
    ordered = order_sample(sample)
    curve = km_fit(ordered)
    n = sample.n
    k = _resolve_k(args.k, n)
    lam = _resolve_lam(args.lam, k, n)
    config = FitConfig(
        k=k,
        lam=lam,
        p_grid_resolution=args.grid,
        refine_tolerance=args.tol,
    )
    return ordered, curve, config


def _cmd_fit(args) -> int:
    ordered, curve, config = _prepare(args)
    n = ordered.n
    if args.model in _PP:
        fit = pp_fit(ordered, curve, FitConfig(
            k=config.k, model=_PP[args.model], lam=config.lam,
            p_grid_resolution=config.p_grid_resolution,
            refine_tolerance=config.refine_tolerance,
        ))
        _emit_json({
            "model": args.model,
            "n": n,
            "k": fit.k_used,
            "lambda": config.lam,
            "p_n": fit.p_n,
            "p_hat": fit.p_hat,
            "slope_hat": fit.slope_hat,
            "loss": fit.loss,
            "skipped_terms": fit.skipped_terms,
            "feasible_lower": fit.feasible_lower,
        })
    else:
        fit = pot_fit(ordered, curve, _POT[args.model], config)
        _emit_json({
            "model": args.model,
            "n": n,
            "k": fit.k_used,
            "lambda": config.lam,
            "p_n": p_benchmark(curve, ordered),
            "p_k": fit.p_k,
            "pi_hat": fit.pi_hat,
            "scale_hat": fit.scale_hat,
            "p_hat": fit.p_hat,
            "loss": fit.loss,
            "clipped": fit.clipped,
        })
    return 0


def _cmd_gof(args) -> int:
    ordered, curve, config = _prepare(args)
    if args.model in _PP:
        fit = pp_fit(ordered, curve, FitConfig(
            k=config.k, model=_PP[args.model], lam=config.lam,
            p_grid_resolution=config.p_grid_resolution,
            refine_tolerance=config.refine_tolerance,
        ))
        series = gof_series(_PP[args.model], ordered, curve, config.k, fit.p_hat)
    else:
        fit = pot_fit(ordered, curve, _POT[args.model], config)
        series = pot_gof_series(
            ordered, curve, _POT[args.model], config.k, fit.pi_hat, fit.scale_hat
        )
    with _csv_sink(args.output) as sink:
        _write_csv(
            sink,
            ["x", "y"],
            ([format_sig(x), format_sig(y)] for x, y in zip(series.x, series.y)),
        )
    return 0


def _cmd_simulate(args) -> int:
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    spec = scenario_spec(args.scenario, args.n, args.reps, args.p, args.seed)
    summaries = run_scenario(spec, estimators)
    k = spec.resolve_k()
    _emit_json_raw = {
        "scenario": spec.scenario_id,
        "n": spec.n,
        "reps": spec.reps,
        "p": spec.p,
        "seed": spec.seed,
        "k": k,
        "lambda": spec.resolve_lam(k),
        "estimators": [
            {
                "label": s.label,
                "n_success": int(s.estimates.size),
                "failures": s.failures,
                **{key: _json_ready(val) for key, val in s.summary.items()},
            }
            for s in summaries
        ],
    }

    def rep_rows():
        for s in summaries:
            for r, est, sq, b in zip(s.rep_indices, s.estimates, s.squared_errors, s.biases):
                yield [str(int(r)), s.label, format_sig(est), format_sig(sq), format_sig(b)]

    # opened first, so an unwritable path fails before any JSON is printed
    with _csv_sink(args.rep_csv) as sink:
        sys.stdout.write(json.dumps(_emit_json_raw) + "\n")
        _write_csv(sink, ["rep", "estimator", "p_hat", "sq_error", "bias"], rep_rows())
    return 0


def _cmd_stress(args) -> int:
    sample = _load(args)
    n = sample.n
    k = _resolve_k(args.k, n)
    lam = _resolve_lam(args.lam, k, n)
    config = FitConfig(k=k, lam=lam, p_grid_resolution=args.grid, refine_tolerance=args.tol)
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    except ValueError:
        raise ValidationError(f"--fractions must be comma-separated reals, got {args.fractions!r}")
    rows = stress_sweep(sample, fractions, args.model, config)
    with _csv_sink(args.output) as sink:
        _write_csv(
            sink,
            ["fraction", "p_hat", "p_n"],
            ([format_sig(r.fraction), format_sig(r.p_hat), format_sig(r.p_n)] for r in rows),
        )
    return 0


def _cmd_diag(args) -> int:
    tail = CensoringTail(gamma_c=args.gamma_c, k=args.k, n=args.k + 1)
    _emit_json({"gamma_c": args.gamma_c, "k": args.k, "sigma2_k": sigma2_k(tail)})
    return 0


def _add_data_flags(sub, with_model=True):
    sub.add_argument("--input", required=True, help="dataset CSV path, or - for stdin")
    if with_model:
        sub.add_argument("--model", required=True, choices=sorted((*_PP, *_POT)))
    sub.add_argument("--k", required=True, dest="k",
                     help="tail size: an integer, or a fraction of n in (0, 1)")
    sub.add_argument("--lambda", default="kn", dest="lam",
                     help="penalty weight, or 'kn' for k/n (default)")
    sub.add_argument("--grid", type=int, default=512, help="grid resolution for the 1-d search")
    sub.add_argument("--tol", type=float, default=1e-10, help="refinement interval tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curetail",
        description="Cure-fraction and tail estimation for right-censored data.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit one estimator, print JSON")
    _add_data_flags(fit)
    fit.set_defaults(func=_cmd_fit)

    gof = commands.add_parser("gof", help="fit, then print plot coordinates as CSV")
    _add_data_flags(gof)
    gof.add_argument("--output", default=None, help="CSV destination (default stdout)")
    gof.set_defaults(func=_cmd_gof)

    sim = commands.add_parser("simulate", help="scenario Monte Carlo, print JSON summary")
    sim.add_argument("--scenario", type=int, required=True, choices=list(SCENARIO_IDS))
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--p", type=float, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--estimators", default="gumbel-pot,pn",
                     help=f"comma-separated subset of {', '.join(ESTIMATOR_NAMES)}")
    sim.add_argument("--rep-csv", default="simulate_reps.csv",
                     help="per-replication CSV destination")
    sim.set_defaults(func=_cmd_simulate)

    stress = commands.add_parser("stress", help="follow-up stress sweep, print CSV")
    stress.add_argument("--input", required=True, help="dataset CSV path, or - for stdin")
    stress.add_argument("--model", default="gumbel-pot", choices=sorted((*_PP, *_POT)))
    stress.add_argument("--k", default="0.5", dest="k",
                        help="tail size: integer or fraction of n (default 0.5)")
    stress.add_argument("--lambda", default="kn", dest="lam",
                        help="penalty weight, or 'kn' for k/n (default)")
    stress.add_argument("--grid", type=int, default=512)
    stress.add_argument("--tol", type=float, default=1e-10)
    stress.add_argument("--fractions",
                        default="0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45",
                        help="comma-separated stress fractions")
    stress.add_argument("--output", default=None, help="CSV destination (default stdout)")
    stress.set_defaults(func=_cmd_stress)

    diag = commands.add_parser("diag", help="benchmark variance constant, print JSON")
    diag.add_argument("--gamma-c", type=float, required=True, dest="gamma_c")
    diag.add_argument("--k", type=int, required=True)
    diag.set_defaults(func=_cmd_diag)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
