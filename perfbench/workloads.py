"""The benchmark's workloads: inputs made from a seed, one operation each,
and the check of every output against the recorded reference.

Workloads (all closed loops with one client):

* ``mc-smallk``: ``run_scenario`` on one replication of scenario 3
  (log-normal tail, n = 500, k = n/5 = 100).  Each fit makes about 548
  profile evaluations on 100 terms, so per-call overhead dominates.
* ``mc-largek``: the same operation on scenario 7 (Pareto tail,
  n = 4000, k = n - 1).  Per-element arithmetic dominates.
* ``cli``: one ``python -m curetail.cli`` subprocess per operation,
  cycling through a fixed mix of verbs.  Interpreter start, import, CSV
  parsing and argument handling dominate.

Replication and dataset seeds come from fixed pools, so every input a run
can see has a recorded reference output.  ``--seed`` picks where in the
pool a run starts (and, for ``cli``, which dataset variant it uses).  A
Monte Carlo pool holds as many replications as a run's minimum operation
count: replication costs differ by up to 4x, so every run covers the whole
pool, and the spread between runs measures the machine, not the sample.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
SCRATCH = ROOT / ".perfbench"

# Same tolerance as the optimizer-oracle acceptance criterion.
ABS_TOL = 1e-8
CSV_DIGITS = 9
# The exceedance fits recover p_hat = 1 - (1 - pi_hat) p_k, which meets the
# bound p_n only to round-off (up to about 3e-15 on the reference pools).
RANGE_TOL = 1e-12

ESTIMATORS = ("pareto", "weibull", "lognormal", "gumbel-pot", "frechet-pot")
LABELS = (*ESTIMATORS, "pn")

MC = {
    "mc-smallk": {"scenario": 3, "n": 500, "p": 0.8, "seed_base": 3_000_000, "pool": 100},
    "mc-largek": {"scenario": 7, "n": 4000, "p": 0.8, "seed_base": 7_000_000, "pool": 100},
}
WARMUP_INDEX = 0

CLI_VARIANTS = 8
SMALL_N = 400
BIG_N = 50_000
WORKLOADS = (*MC, "cli")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_count(requested: int) -> int:
    """Refuse a process-pool size the machine cannot run in parallel."""
    if requested > nproc():
        raise SystemExit(f"refusing {requested} workers on a machine with nproc = {nproc()}")
    return requested


CLI_WORKERS = worker_count(min(2, nproc()))


def cli_commands(variant: int) -> list[tuple[list[str], int]]:
    """The ``cli`` mix as (argv, CURETAIL_THREADS) pairs; paths are relative
    to the run's temporary directory."""
    fits = [(["fit", "--input", "small.csv", "--model", m, "--k", "0.3"], 1) for m in ESTIMATORS]
    return fits + [
        (["gof", "--input", "small.csv", "--model", "gumbel-pot", "--k", "0.5"], 1),
        (["stress", "--input", "small.csv"], 1),
        (["diag", "--gamma-c", repr(-0.5 - 0.25 * variant), "--k", "1000000"], 1),
        (["fit", "--input", "big.csv", "--model", "gumbel-pot", "--k", "0.2"], 1),
        (["simulate", "--scenario", "2", "--n", "200", "--reps", "8", "--p", "0.9",
          "--seed", str(variant), "--estimators", "gumbel-pot", "--rep-csv", "reps.csv"],
         CLI_WORKERS),
    ]


def write_dataset_csv(path: Path, n: int, seed: list[int]) -> None:
    """Cure mixture: 80 % Weibull(0.9) lifetimes scaled by 1.5, U(0, 6) censoring."""
    rng = np.random.default_rng(seed)
    life = np.where(rng.random(n) < 0.8, rng.weibull(0.9, n) * 1.5, np.inf)
    cens = rng.uniform(0.0, 6.0, n)
    times = np.minimum(life, cens)
    events = (life <= cens).astype(int)
    lines = [f"{float(t)!r},{int(e)}\n" for t, e in zip(times, events)]
    path.write_text("time,status\n" + "".join(lines))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def git_commit() -> str:
    """Commit of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.exists() else ref[5:]
    return ref


# --- comparison against the reference -------------------------------------

def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= ABS_TOL
    return a == b


def compare_json(got, want, path="$") -> list[str]:
    """Numbers within ABS_TOL, everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys {list(got) if isinstance(got, dict) else got!r}"]
        return [m for key in want for m in compare_json(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare_json(g, w, f"{path}[{i}]")]
    return [] if _close(got, want) else [f"{path}: {got!r} != {want!r}"]


def _cell(text: str) -> str:
    try:
        return f"{float(text):.{CSV_DIGITS}g}"
    except ValueError:
        return text


def compare_csv(got: str, want: str, label: str) -> list[str]:
    """Cells compared at CSV_DIGITS significant digits."""
    g_rows, w_rows = got.splitlines(), want.splitlines()
    if len(g_rows) != len(w_rows):
        return [f"{label}: {len(g_rows)} rows != {len(w_rows)}"]
    out = []
    for i, (g, w) in enumerate(zip(g_rows, w_rows)):
        if [_cell(c) for c in g.split(",")] != [_cell(c) for c in w.split(",")]:
            out.append(f"{label} row {i}: {g!r} != {w!r}")
    return out


def p_hat_in_range(p_hat, p_n, label: str) -> list[str]:
    if p_hat is None or p_n is None or p_n - RANGE_TOL <= p_hat <= 1.0 + RANGE_TOL:
        return []
    return [f"{label}: p_hat {p_hat!r} outside [p_n, 1] = [{p_n!r}, 1]"]


# --- Monte Carlo workloads -------------------------------------------------

def mc_estimates(params: dict, index: int) -> dict:
    """One replication of the scenario, every estimator, through run_scenario."""
    from curetail import simulate

    spec = simulate.scenario_spec(params["scenario"], params["n"], 1, params["p"],
                                  params["seed_base"] + index)
    return {s.label: (float(s.estimates[0]) if s.estimates.size else None)
            for s in simulate.run_scenario(spec, ESTIMATORS)}


class McWorkload:
    """Operation j runs replication (start + j) mod pool of the scenario."""

    def __init__(self, name: str, seed: int, tmp: Path):
        self.name = name
        self.params = MC[name]
        self.start = random.Random(seed).randrange(self.params["pool"])

    def index(self, j: int) -> int:
        return (self.start + j) % self.params["pool"]

    def warmup(self):
        return mc_estimates(self.params, WARMUP_INDEX)

    def run(self, j: int, in_process: bool = True) -> dict:
        return mc_estimates(self.params, self.index(j))

    def check(self, j: int, got: dict, reference: dict) -> list[str]:
        want = dict(zip(LABELS, reference[self.name]["estimates"][self.index(j)]))
        label = f"{self.name} replication {self.index(j)}"
        errors = compare_json(got, want, label)
        for name in ESTIMATORS:
            errors += p_hat_in_range(got.get(name), got.get("pn"), f"{label} {name}")
        return errors


# --- CLI workload ----------------------------------------------------------

class CliWorkload:
    """Operation j runs command (start + j) mod 10 of the mix on the seed's
    dataset variant, as a subprocess or, for the traced run, through
    ``curetail.cli.main`` in this process."""

    name = "cli"

    def __init__(self, name: str, seed: int, tmp: Path):
        self.variant = seed % CLI_VARIANTS
        self.commands = cli_commands(self.variant)
        self.start = (seed // CLI_VARIANTS) % len(self.commands)
        self.tmp = tmp
        write_dataset_csv(tmp / "small.csv", SMALL_N, [self.variant, 1])
        write_dataset_csv(tmp / "big.csv", BIG_N, [self.variant, 2])

    def index(self, j: int) -> int:
        return (self.start + j) % len(self.commands)

    def warmup(self):
        return self._subprocess(*self.commands[3])  # the gumbel-pot fit

    def run(self, j: int, in_process: bool = False) -> dict:
        argv, threads = self.commands[self.index(j)]
        if in_process:
            return self._in_process(argv, threads)
        return self._subprocess(argv, threads)

    def _collect(self, rc: int, stdout: str, argv: list[str]) -> dict:
        files = {}
        if "--rep-csv" in argv:
            path = self.tmp / argv[argv.index("--rep-csv") + 1]
            if path.exists():
                files[path.name] = path.read_text()
                path.unlink()
        return {"rc": rc, "stdout": stdout, "files": files}

    def _subprocess(self, argv: list[str], threads: int) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC), CURETAIL_THREADS=str(threads))
        proc = subprocess.run([sys.executable, "-m", "curetail.cli", *argv], cwd=self.tmp,
                              env=env, capture_output=True, text=True, timeout=150)
        return self._collect(proc.returncode, proc.stdout, argv)

    def _in_process(self, argv: list[str], threads: int) -> dict:
        from curetail import cli

        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.environ["CURETAIL_THREADS"] = str(threads)
        try:
            os.chdir(self.tmp)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
        finally:
            os.chdir(cwd)
            os.environ["CURETAIL_THREADS"] = "1"
        return self._collect(rc, out.getvalue(), argv)

    def check(self, j: int, got: dict, reference: dict) -> list[str]:
        c = self.index(j)
        want = reference["cli"]["outputs"][self.variant][c]
        argv = self.commands[c][0]
        label = f"cli variant {self.variant} `{' '.join(argv)}`"
        if got["rc"] != want["rc"]:
            return [f"{label}: exit code {got['rc']} != {want['rc']}"]
        if argv[0] in ("fit", "diag", "simulate"):
            try:
                doc = json.loads(got["stdout"])
            except json.JSONDecodeError:
                return [f"{label}: stdout is not JSON"]
            errors = compare_json(doc, json.loads(want["stdout"]), label)
            if argv[0] == "fit":
                errors += p_hat_in_range(doc.get("p_hat"), doc.get("p_n"), label)
        else:
            errors = compare_csv(got["stdout"], want["stdout"], label)
            if argv[0] == "stress" and not errors:
                for row in got["stdout"].splitlines()[1:]:
                    _, p_hat, p_n = (float(v) for v in row.split(","))
                    errors += p_hat_in_range(p_hat, p_n, f"{label} row {row!r}")
        if sorted(got["files"]) != sorted(want["files"]):
            errors.append(f"{label}: files {sorted(got['files'])} != {sorted(want['files'])}")
        else:
            for fname, text in want["files"].items():
                errors += compare_csv(got["files"][fname], text, f"{label} {fname}")
        return errors


def make_workload(name: str, seed: int, tmp: Path):
    if name in MC:
        return McWorkload(name, seed, tmp)
    if name == "cli":
        return CliWorkload(name, seed, tmp)
    raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
