"""Command-line interface.

Verbs: ``fit`` (one estimator on one dataset, JSON result), ``gof``
(diagnostic plot coordinates, CSV), ``simulate`` (scenario Monte Carlo,
JSON summary plus per-replication CSV), ``stress`` (follow-up stress
sweep, CSV) and ``diag`` (variance constant of the benchmark, JSON).

Exit codes: 0 on success, 2 for invalid inputs, 3 when the data defeats
the requested computation, 1 when stdout is closed before the output is
written.  ``diag --k``, ``simulate --n`` and ``--grid`` size arrays of
that length, and ``simulate --reps`` the replication rows, so all are
capped at ``MAX_SIZE`` (10**7); a larger value is an invalid input.  JSON
goes to stdout at full float precision; CSV tables carry 9 significant
digits.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

# One BLAS thread: a CLI run gains nothing from OpenBLAS's pool, which costs CPU in every process.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .asymptotics import CensoringTail, sigma2_k
from .dataio import format_sig, parse_dataset, stress_sweep
from .errors import NumericalError, ValidationError
from .estimators import ESTIMATOR_NAMES, MODEL_NAMES, fit_fields, fit_series
from .plotfit import FitConfig
from .simulate import SCENARIO_IDS, run_scenario, scenario_spec
from .survival import km_fit, order_sample, snap_floor

# Largest diag --k, simulate --n, simulate --reps and --grid accepted.
MAX_SIZE = 10**7


def _check_size(flag: str, value: int) -> None:
    if value > MAX_SIZE:
        raise ValidationError(f"{flag} must be at most {MAX_SIZE}, got {value}")


def _resolve_k(raw: str, n: int) -> int:
    """Accept an explicit integer or a fraction of n in (0, 1)."""
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"--k must be an integer or a fraction, got {raw!r}") from None
    if 0.0 < value < 1.0:
        return snap_floor(value * n)
    if value >= 1 and value.is_integer():
        return int(value)
    raise ValidationError(f"--k must be an integer >= 1 or a fraction in (0, 1), got {raw!r}")


def _resolve_lam(raw: str) -> float | None:
    """Parse a real, or None for 'kn'; ``FitConfig`` resolves k/n and checks the range."""
    if raw == "kn":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"--lambda must be a real or 'kn', got {raw!r}") from None


def _json_ready(value):
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_ready(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(_json_ready(payload)) + "\n")


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
        if hasattr(sys.stdin, "reconfigure"):
            # strict UTF-8 as for a path, not the surrogate escapes stdin defaults to
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
        return parse_dataset(sys.stdin)
    try:
        return parse_dataset(args.input)
    except OSError as exc:
        raise ValidationError(f"cannot read {args.input}: {exc.strerror}") from None


def _config(args, n: int) -> FitConfig:
    _check_size("--grid", args.grid)
    return FitConfig(k=_resolve_k(args.k, n), lam=_resolve_lam(args.lam),
                     p_grid_resolution=args.grid, refine_tolerance=args.tol)


def _prepare(args):
    sample = _load(args)
    ordered = order_sample(sample)
    curve = km_fit(ordered)
    return ordered, curve, _config(args, sample.n)


def _cmd_fit(args) -> int:
    _emit_json(fit_fields(args.model, *_prepare(args)))
    return 0


def _cmd_gof(args) -> int:
    series = fit_series(args.model, *_prepare(args))
    with _csv_sink(args.output) as sink:
        _write_csv(
            sink,
            ["x", "y"],
            ([format_sig(x), format_sig(y)] for x, y in zip(series.x, series.y)),
        )
    return 0


def _cmd_simulate(args) -> int:
    _check_size("--n", args.n)
    _check_size("--reps", args.reps)
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    spec = scenario_spec(args.scenario, args.n, args.reps, args.p, args.seed)
    summaries = run_scenario(spec, estimators)
    config = spec.fit_config()
    payload = {
        "scenario": spec.scenario_id,
        "n": spec.n,
        "reps": spec.reps,
        "p": spec.p,
        "seed": spec.seed,
        "k": config.k,
        "lambda": config.resolved_lam(spec.n),
        "estimators": [
            {
                "label": s.label,
                "n_success": int(s.estimates.size),
                "failures": s.failures,
                **s.summary,
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
        _emit_json(payload)
        _write_csv(sink, ["rep", "estimator", "p_hat", "sq_error", "bias"], rep_rows())
    return 0


def _cmd_stress(args) -> int:
    sample = _load(args)
    config = _config(args, sample.n)
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
    _check_size("--k", args.k)
    tail = CensoringTail(gamma_c=args.gamma_c, k=args.k)
    _emit_json({"gamma_c": args.gamma_c, "k": args.k, "sigma2_k": sigma2_k(tail)})
    return 0


def _add_data_flags(sub, model=None, k=None):
    sub.add_argument("--input", required=True, help="dataset CSV path, or - for stdin")
    sub.add_argument("--model", required=model is None, default=model,
                     choices=sorted(MODEL_NAMES))
    sub.add_argument("--k", required=k is None, default=k, dest="k",
                     help="tail size: an integer, or a fraction of n in (0, 1)")
    sub.add_argument("--lambda", default="kn", dest="lam",
                     help="penalty weight, or 'kn' for k/n (default)")
    sub.add_argument("--grid", type=int, default=512, help=f"search grid size (at most {MAX_SIZE})")
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
    sim.add_argument("--n", type=int, required=True,
                     help=f"sample size per replication (at most {MAX_SIZE})")
    sim.add_argument("--reps", type=int, required=True,
                     help=f"replications (at most {MAX_SIZE})")
    sim.add_argument("--p", type=float, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--estimators", default="gumbel-pot,pn",
                     help=f"comma-separated subset of {', '.join(ESTIMATOR_NAMES)}")
    sim.add_argument("--rep-csv", default="simulate_reps.csv",
                     help="per-replication CSV destination")
    sim.set_defaults(func=_cmd_simulate)

    stress = commands.add_parser("stress", help="follow-up stress sweep, print CSV")
    _add_data_flags(stress, model="gumbel-pot", k="0.5")
    stress.add_argument("--fractions",
                        default="0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45",
                        help="comma-separated stress fractions")
    stress.add_argument("--output", default=None, help="CSV destination (default stdout)")
    stress.set_defaults(func=_cmd_stress)

    diag = commands.add_parser("diag", help="benchmark variance constant, print JSON")
    diag.add_argument("--gamma-c", type=float, required=True, dest="gamma_c")
    diag.add_argument("--k", type=int, required=True, help=f"tail size (at most {MAX_SIZE})")
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone; devnull takes the rest, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
