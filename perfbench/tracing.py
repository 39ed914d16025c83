"""Per-layer tracing from outside the package.

Wrappers are installed at every module attribute that holds one of the
hooked functions, which is the name each caller looks up at call time
(``curetail.potfit.minimize_on_interval``, ``curetail.cli.parse_dataset``
and so on), and removed again afterwards.  Nothing under ``src/`` changes.

Spans (name, start, end, parent) are kept in memory for the layer calls
and written out at the end of the run.  ``norm_quantile`` and ``km_eval``
run thousands of times per operation, so they are counted and timed but
not kept as spans.  Each objective passed to ``minimize_on_interval`` is
wrapped to count evaluations: the first ``resolution`` evaluations are
the grid phase, the rest the golden-section phase.
"""
from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# (module, function) pairs hooked; the key is the metric prefix.
HOOKS = {
    "transforms.norm_quantile": ("curetail.transforms", "norm_quantile"),
    "plotfit.pp_fit": ("curetail.plotfit", "pp_fit"),
    "plotfit.minimize_on_interval": ("curetail.plotfit", "minimize_on_interval"),
    "potfit.pot_fit": ("curetail.potfit", "pot_fit"),
    "estimators.fit_estimate": ("curetail.estimators", "fit_estimate"),
    "survival.order_sample": ("curetail.survival", "order_sample"),
    "survival.km_fit": ("curetail.survival", "km_fit"),
    "survival.km_eval": ("curetail.survival", "km_eval"),
    "survival.exceedances": ("curetail.survival", "exceedances"),
    "survival.apply_insufficiency": ("curetail.survival", "apply_insufficiency"),
    "simulate.sample_scenario": ("curetail.simulate", "sample_scenario"),
    "simulate.run_scenario": ("curetail.simulate", "run_scenario"),
    "dataio.parse_dataset": ("curetail.dataio", "parse_dataset"),
    "dataio.stress_sweep": ("curetail.dataio", "stress_sweep"),
    "asymptotics.sigma2_k": ("curetail.asymptotics", "sigma2_k"),
}
# Called so often that only counts and time are kept, no spans.
UNSPANNED = {"transforms.norm_quantile", "survival.km_eval"}

PP_MODELS = ("pareto", "weibull", "lognormal")
POT_DOMAINS = ("gumbel", "frechet")
ESTIMATOR_LABELS = ("pareto", "weibull", "lognormal", "gumbel-pot", "frechet-pot", "pn")
CLI_VERBS = ("fit", "gof", "stress", "diag", "simulate")


class Tracer:
    """Spans and per-operation counters of the traced operations."""

    def __init__(self):
        self.spans = []           # [op, name, start_ns, end_ns, parent]
        self.ops = []             # per traced operation: stat -> value
        self.calls = defaultdict(list)   # key -> per-call duration in ms
        self._stack = []          # [span index, child ns]
        self.op = -1
        self._cur = None
        self.current_k = 0

    def begin_op(self, op: int) -> None:
        self.op = op
        self._cur = defaultdict(float)

    def end_op(self) -> None:
        self.ops.append(self._cur)
        self._cur = None

    def add(self, key: str, value: float) -> None:
        self._cur[key] += value

    def enter(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([self.op, name, perf_counter_ns(), 0, parent])
        self._stack.append([len(self.spans) - 1, 0])
        return len(self.spans) - 1

    def leave(self, name: str) -> int:
        index, child_ns = self._stack.pop()
        span = self.spans[index]
        span[3] = perf_counter_ns()
        dur = span[3] - span[2]
        if self._stack:
            self._stack[-1][1] += dur
        cur = self._cur
        cur[name + ".calls"] += 1
        cur[name + ".ns"] += dur
        cur[name + ".self_ns"] += dur - child_ns
        return dur

    def timed(self, name: str, fn, args, kwargs, per_call: str | None = None):
        """Call fn inside a span (or, for UNSPANNED names, a bare timer);
        ``per_call`` names a list that also keeps each call's duration."""
        if name in UNSPANNED:
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._cur[name + ".calls"] += 1
                self._cur[name + ".ns"] += perf_counter_ns() - t0
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = self.leave(name)
            if per_call:
                self.calls[per_call].append(dur / 1e6)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


class Hooks:
    """Install and remove the tracing wrappers at every caller's name."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent = []
        self._sites = []          # (module, attr, original, wrapper)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "curetail" or n.startswith("curetail."))]
        for key, (modname, attr) in HOOKS.items():
            origin = sys.modules.get(modname)
            orig = getattr(origin, attr, None) if origin is not None else None
            if orig is None:
                self.absent.append(key)
                continue
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    site = mod.__name__.rsplit(".", 1)[-1]
                    self._sites.append((mod, attr, orig, self._wrap(key, site, orig)))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._sites:
            setattr(mod, attr, orig)

    def _wrap(self, key: str, site: str, fn):
        t = self.tracer
        if key == "transforms.norm_quantile":
            def wrapper(*args, **kwargs):
                t.add(key + ".elements", np.size(_arg(args, kwargs, 0, "u")))
                return t.timed(key, fn, args, kwargs)
        elif key in ("plotfit.pp_fit", "potfit.pot_fit"):
            pp = key == "plotfit.pp_fit"

            def wrapper(*args, **kwargs):
                config = _arg(args, kwargs, 2 if pp else 3, "config")
                label = config.model if pp else _arg(args, kwargs, 2, "domain")
                t.current_k = config.k
                return t.timed(key, fn, args, kwargs, per_call=f"{key}.{label.value}")
        elif key == "estimators.fit_estimate":
            def wrapper(*args, **kwargs):
                name = _arg(args, kwargs, 0, "name")
                try:
                    return t.timed(key, fn, args, kwargs, per_call=f"{key}.{name}")
                except Exception:
                    t.add(f"{key}.{name}.failures", 1)
                    raise
        elif key == "plotfit.minimize_on_interval":
            family = site if site in ("plotfit", "potfit") else "other"
            wrapper = self._wrap_minimize(family, fn)
        elif key == "dataio.parse_dataset":
            def wrapper(*args, **kwargs):
                sample = t.timed(key, fn, args, kwargs)
                t.add(key + ".rows", sample.n)
                return sample
        else:
            def wrapper(*args, **kwargs):
                return t.timed(key, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def _wrap_minimize(self, family: str, fn):
        """Count objective evaluations and split the grid and golden phases."""
        t = self.tracer
        name = family + ".minimize"

        def wrapper(*args, **kwargs):
            fun = args[0]
            resolution = _arg(args, kwargs, 3, "resolution")
            count = [0]
            grid_end = [0]

            def counted(x):
                value = fun(x)
                count[0] += 1
                if count[0] == resolution:
                    grid_end[0] = perf_counter_ns()
                return value

            index = t.enter(name)
            try:
                return fn(counted, *args[1:], **kwargs)
            finally:
                t.leave(name)
                _, _, start, end, _ = t.spans[index]
                split = grid_end[0] or end
                t.spans.append([t.op, family + ".grid", start, split, index])
                t.spans.append([t.op, family + ".golden", split, end, index])
                t.add(family + ".grid.ns", split - start)
                t.add(family + ".golden.ns", end - split)
                t.add(family + ".evals", count[0])
                t.add(family + ".fits", 1)
                t.add(family + ".elements", count[0] * t.current_k)
        return wrapper


def layer_metrics(tracer: Tracer, window: int) -> dict:
    """Per-layer metrics, as {name: (value, unit, hook it depends on)}.

    ``.ms`` metrics are the mean over traced operations that reached the
    layer of the time spent in it during that operation, so rare heavy
    calls (the 50 000-row parse) still count.  Counts are taken
    over the first ``window`` traced operations only, which the seed fixes,
    so they repeat exactly between runs of the same code and seed.
    """
    ops = tracer.ops
    win = ops[:window]

    def per_op_ms(key: str, stat: str = "ns") -> float:
        values = [op[f"{key}.{stat}"] / 1e6 for op in ops if f"{key}.{stat}" in op]
        return statistics.fmean(values) if values else 0.0

    def wsum(key: str) -> float:
        return float(sum(op.get(key, 0.0) for op in win))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def p50(key: str) -> float:
        return statistics.median(tracer.calls[key]) if tracer.calls.get(key) else 0.0

    nq = "transforms.norm_quantile"
    nq_ns = sum(op.get(nq + ".ns", 0.0) for op in ops)
    nq_calls = sum(op.get(nq + ".calls", 0.0) for op in ops)
    m = {
        nq + ".calls": (ratio(wsum(nq + ".calls"), len(win)), "count", nq),
        nq + ".elements": (ratio(wsum(nq + ".elements"), len(win)), "count", nq),
        nq + ".ms": (per_op_ms(nq), "ms", nq),
        nq + ".us_per_call": (ratio(nq_ns / 1e3, nq_calls), "us", nq),
    }
    minimize = "plotfit.minimize_on_interval"
    for model in PP_MODELS:
        m[f"plotfit.pp_fit.{model}.ms_p50"] = (p50(f"plotfit.pp_fit.{model}"), "ms",
                                               "plotfit.pp_fit")
    for domain in POT_DOMAINS:
        m[f"potfit.pot_fit.{domain}.ms_p50"] = (p50(f"potfit.pot_fit.{domain}"), "ms",
                                                "potfit.pot_fit")
    m["plotfit.pp_fit.evals_per_fit"] = (
        ratio(wsum("plotfit.evals"), wsum("plotfit.fits")), "count", minimize)
    # computed as evaluations x k, not counted inside the profile
    m["plotfit.profile.elements_per_fit_computed"] = (
        ratio(wsum("plotfit.elements"), wsum("plotfit.fits")), "count", minimize)
    m["potfit.pot_fit.evals_per_fit"] = (
        ratio(wsum("potfit.evals"), wsum("potfit.fits")), "count", minimize)
    for family in ("plotfit", "potfit"):
        m[f"{family}.grid.ms"] = (per_op_ms(f"{family}.grid"), "ms", minimize)
        m[f"{family}.golden.ms"] = (per_op_ms(f"{family}.golden"), "ms", minimize)
    for label in ESTIMATOR_LABELS:
        key = f"estimators.fit_estimate.{label}"
        m[key + ".ms_p50"] = (p50(key), "ms", "estimators.fit_estimate")
        m[key + ".failures"] = (wsum(key + ".failures"), "count", "estimators.fit_estimate")
    for key in ("survival.order_sample", "survival.km_fit", "survival.exceedances",
                "survival.apply_insufficiency", "simulate.sample_scenario",
                "dataio.parse_dataset", "dataio.stress_sweep", "asymptotics.sigma2_k"):
        m[key + ".ms"] = (per_op_ms(key), "ms", key)
    m["survival.km_eval.calls"] = (
        ratio(wsum("survival.km_eval.calls"), len(win)), "count", "survival.km_eval")
    m["simulate.run_scenario.self_ms"] = (
        per_op_ms("simulate.run_scenario", "self_ns"), "ms", "simulate.run_scenario")
    m["dataio.parse_dataset.rows"] = (
        ratio(wsum("dataio.parse_dataset.rows"), wsum("dataio.parse_dataset.calls")), "count",
        "dataio.parse_dataset")
    for verb in CLI_VERBS:
        m[f"cli.main.{verb}.ms"] = (p50(f"cli.main.{verb}"), "ms", None)
    return m
