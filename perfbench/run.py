"""curetail benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mc-smallk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
benchmark changes nothing there.  Each workload (see ``workloads.py``) is
a closed loop with one client: the next operation starts when the previous
one returns.  A run measures for ``--seconds`` and for at least
``MIN_OPS`` operations, so that ten latencies lie beyond the 90th
percentile, but stops extending for them after ``MAX_TIMED_SECONDS``.
Every output is checked against ``reference.json``.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time
(median of ``SETUP_PROBES`` fresh processes that import, make the inputs
and run one untimed warm-up operation), throughput, median latency,
CPU time per operation, peak resident memory and the fraction of
operations that succeeded; latency p90 and the failed fraction are
printed on the lines before the result.

With ``--trace 1`` it runs every operation twice, once untraced and once
with wrappers installed around each layer's public functions
(``tracing.py``), alternating the order, and reports the per-layer
metrics plus the tracing overhead.  The traced
``cli`` operations call ``curetail.cli.main`` in this process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run are written to ``.perfbench/trace-<workload>-seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl

MIN_OPS = 100
MAX_TIMED_SECONDS = 45
SETUP_PROBES = 3
IMPORT_PROBES = 5
# Traced operations whose counts are reported; fixed per workload so the
# counts repeat exactly for a given seed.
COUNT_WINDOW = {"mc-smallk": 24, "mc-largek": 10, "cli": 20}


def import_program():
    """Import curetail from the checkout's src/, or refuse to run."""
    if not (wl.SRC / "curetail" / "__init__.py").is_file():
        raise SystemExit(f"error: no curetail package under {wl.SRC}")
    os.environ["CURETAIL_THREADS"] = "1"
    sys.path.insert(0, str(wl.SRC))
    import curetail
    import curetail.cli  # noqa: F401  (the traced cli run calls it)

    if Path(curetail.__file__).resolve().parent != wl.SRC / "curetail":
        raise SystemExit(f"error: imported curetail from {curetail.__file__}, not {wl.SRC}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": wl.nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": wl.git_commit(),
        "CURETAIL_THREADS": os.environ["CURETAIL_THREADS"],
        "cli_simulate_workers": wl.CLI_WORKERS,
    }


@contextlib.contextmanager
def scratch_dir():
    """Temporary directory inside the checkout, removed afterwards."""
    wl.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=wl.SCRATCH))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            wl.SCRATCH.rmdir()


def _cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def check_outputs(work, outputs, reference) -> list[str]:
    errors = []
    for j, out in outputs:
        if isinstance(out, Exception):
            errors.append(f"operation {j} raised {out!r}")
        else:
            found = work.check(j, out, reference)
            if found:
                errors.append(found[0])
    return errors


def _call(work, j, in_process):
    try:
        return work.run(j, in_process=in_process)
    except Exception as exc:  # an operation that raises counts as failed
        return exc


def timed_run(work, name, seconds, min_ops):
    """Closed loop until both the time and the operation count are reached."""
    cap = max(seconds, MAX_TIMED_SECONDS)
    latencies, outputs = [], []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    j = 0
    while True:
        start = time.perf_counter()
        outputs.append((j, _call(work, j, in_process=False)))
        end = time.perf_counter()
        latencies.append(end - start)
        j += 1
        if (end - t0 >= seconds and j >= min_ops) or end - t0 >= cap:
            break
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    ms = sorted(x * 1e3 for x in latencies)
    metrics = {
        "ops_per_s": (j / wall, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "cpu_ms_per_op": (cpu * 1e3 / j, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # Printed but not reported: on a host whose speed switches between
    # states for minutes at a time, the share of operations caught in the
    # slowest state decides p90, which then jumps between runs.
    printed = {"op_ms_p90": (statistics.quantiles(ms, n=10)[8] if j >= 2 else ms[0], "ms")}
    return outputs, metrics, printed


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh benchmark process until it is ready to time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=wl.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe for {name} failed (exit {proc.returncode})")
    return elapsed


def setup_probe(name: str, seed: int) -> int:
    import_program()
    with scratch_dir() as tmp:
        wl.make_workload(name, seed, tmp).warmup()
        print("ready", flush=True)
    return 0


def measure_import_ms() -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import curetail.cli; print((time.perf_counter() - t) * 1e3)")
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code, str(wl.SRC)], cwd=wl.ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def traced_run(work, name, seconds, seed, env):
    """Each operation untraced and traced in turn; per-layer metrics."""
    from tracing import Hooks, Tracer, layer_metrics

    tracer = Tracer()
    hooks = Hooks(tracer)
    if name == "cli":
        work.run(3, in_process=True)  # warm the in-process path too
    window = COUNT_WINDOW[name]
    cap = max(seconds, MAX_TIMED_SECONDS)
    busy = {False: 0.0, True: 0.0}
    outputs = []
    t0 = time.perf_counter()
    j = 0
    while True:
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if traced:
                hooks.install()
                tracer.begin_op(j)
                if name == "cli":
                    verb = work.commands[work.index(j)][0][0]
                    tracer.enter("cli.main")
            start = time.perf_counter()
            out = _call(work, j, in_process=True)
            end = time.perf_counter()
            if traced:
                if name == "cli":
                    tracer.leave("cli.main")
                    tracer.calls[f"cli.main.{verb}"].append((end - start) * 1e3)
                tracer.end_op()
                hooks.uninstall()
            busy[traced] += end - start
            outputs.append((j, out))
        j += 1
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and j >= window) or elapsed >= cap:
            break

    layers = layer_metrics(tracer, window)
    metrics = {k: (v, unit) for k, (v, unit, _) in layers.items()}
    absent = sorted(k for k, (_, _, hook) in layers.items() if hook in hooks.absent)
    metrics["cli.import_ms"] = (measure_import_ms() if name == "cli" else 0.0, "ms")
    untraced, traced = j / busy[False], j / busy[True]
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced, "1/s")
    metrics["trace.overhead_pct"] = ((untraced - traced) / untraced * 100.0, "%")

    wl.SCRATCH.mkdir(exist_ok=True)
    dump = {"environment": env, "absent_hooks": hooks.absent, "absent_metrics": absent,
            "count_window": window,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "span_fields": ["op", "name", "start_ns", "end_ns", "parent"],
            "spans": tracer.spans}
    (wl.SCRATCH / f"trace-{name}-seed{seed}.json").write_text(json.dumps(dump) + "\n")
    return outputs, metrics, absent


def run_workload(name, seed, seconds, trace, reference, min_ops=MIN_OPS, probes=SETUP_PROBES):
    """One run; returns the result object printed as the last line."""
    env = environment(name, seed)
    print("# environment " + json.dumps(env))
    with scratch_dir() as tmp:
        work = wl.make_workload(name, seed, tmp)
        work.warmup()
        absent, printed = [], {}
        if trace:
            outputs, metrics, absent = traced_run(work, name, seconds, seed, env)
        else:
            outputs, metrics, printed = timed_run(work, name, seconds, min_ops)
        errors = check_outputs(work, outputs, reference)
    attempted, failed = len(outputs), len(errors)
    if not trace:
        metrics = {"setup_s": (statistics.median(probe_setup(name, seed) for _ in range(probes)),
                               "s"),
                   **metrics,
                   "ok_frac": ((attempted - failed) / attempted, "fraction")}
    print(f"# {name}: {attempted} operations, seed {seed}, trace {int(trace)}")
    for key, (value, unit) in metrics.items():
        note = "  (hooked name absent)" if key in absent else ""
        print(f"{key:46s} {value:14.6g} {unit}{note}")
    for key, (value, unit) in printed.items():
        print(f"{key:46s} {value:14.6g} {unit}  (printed only)")
    print(f"{'failed_frac':46s} {failed / attempted:14.6g} fraction  ({failed} of {attempted})")
    for message in errors[:10]:
        print(f"mismatch: {message}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process; metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=wl.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    import_program()
    reference = wl.load_reference()
    for name, params in wl.MC.items():
        if reference[name]["params"] != params:
            raise SystemExit(f"error: reference.json was recorded for other {name} parameters")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
