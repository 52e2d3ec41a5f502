"""In-process spans around the public functions of the secrate modules.

A :class:`Tracer` replaces module attributes with thin wrappers while it is
installed and puts the originals back when it is removed; nothing under
``src/`` is edited. Functions named in ``spans`` get one span per call
(name, module, parent span, operation id, start, end, optional attributes).
Functions named in ``hot`` are the scalar kernels called tens of thousands of
times per optimization: they get no span of their own, only a call count and
time added to the innermost open span. Spans stay in memory until
:meth:`Tracer.write`.
"""
from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

MODULES = ("cli", "optimizer", "closedform", "model", "montecarlo")

INTERVAL_SOLVERS = ("theta_floor_active", "theta_interval_passive",
                    "theta_interval_active_imperfect", "theta_interval_active_multi",
                    "theta_interval_passive_multi")
PASSIVE_SOLVERS = ("theta_interval_passive", "theta_interval_passive_multi")
CDFS = ("cdf_snr_bob", "cdf_snr_active", "cdf_snr_active_imperfect",
        "cdf_snr_active_multi", "cdf_snr_passive", "cdf_snr_passive_multi")
SOPS = ("sop_active", "sop_passive", "sop_active_imperfect", "sop_active_multi",
        "sop_passive_multi")


def _steps(args, kwargs, result):
    return {"steps": result.steps}


def _draw_trials(args, kwargs, result):
    return {"trials": args[3] - args[2]}


def _grid_cells(args, kwargs, result):
    return {"cells": len(args[2]) * len(args[3])}


# "module.function" -> attribute extractor (or None); the op-level and
# module-entry boundaries the traced run records.
FULL_SPANS = {
    "cli.load_config": None,
    "cli.cmd_sweep": None,
    "cli.cmd_verify": None,
    "optimizer.maximize_for": _steps,
    "optimizer.grid_search_oracle": None,
    **{f"optimizer.{name}": None for name in INTERVAL_SOLVERS},
    "closedform.sop_grid": _grid_cells,
    **{f"closedform.{name}": None for name in CDFS},
    "montecarlo.draw_batch": _draw_trials,
    "montecarlo.snr_samples": None,
    "montecarlo.estimate_outages": None,
    "montecarlo.ks_statistic": None,
}
FULL_HOT = ("model.make_split", *(f"closedform.{name}" for name in SOPS))

# The timed runs only need the optimizer entry points: a row's latency is its
# maximize_for call inside cmd_sweep.
LIGHT_SPANS = {"optimizer.maximize_for": None, "optimizer.grid_search_oracle": None}


class Span:
    __slots__ = ("name", "module", "parent", "op", "t0", "t1", "attrs", "hot")

    def __init__(self, name, module, parent, op):
        self.name = name
        self.module = module
        self.parent = parent
        self.op = op
        self.t0 = self.t1 = 0.0
        self.attrs = None
        self.hot = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Wraps the named secrate functions while installed; records spans."""

    def __init__(self, spans: dict, hot: tuple = ()):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None
        self._patches = []  # (namespace dict, attribute, original, wrapper)
        namespaces = [vars(sys.modules["secrate"])]
        namespaces += [vars(sys.modules[f"secrate.{m}"]) for m in MODULES]
        for qualified, extract in spans.items():
            self._patch(namespaces, qualified, self._span_wrapper(qualified, extract))
        for qualified in hot:
            self._patch(namespaces, qualified, self._hot_wrapper(qualified))

    def _patch(self, namespaces, qualified, make_wrapper):
        module, name = qualified.split(".")
        original = vars(sys.modules[f"secrate.{module}"])[name]
        wrapper = make_wrapper(original)
        # ``from .x import f`` copies f into the importing module: patch every copy.
        for ns in namespaces:
            if ns.get(name) is original:
                self._patches.append((ns, name, original, wrapper))

    def _span_wrapper(self, qualified, extract):
        module = qualified.split(".")[0]
        stack, spans = self._stack, self.spans

        def make(fn):
            def wrapper(*args, **kwargs):
                span = Span(qualified, module, stack[-1] if stack else None, self._op)
                spans.append(span)
                stack.append(span)
                span.t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.t1 = perf_counter()
                    stack.pop()
                if extract is not None:
                    span.attrs = extract(args, kwargs, result)
                return result
            return wrapper
        return make

    def _hot_wrapper(self, qualified):
        stack = self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    span = stack[-1]
                    if span.hot is None:
                        span.hot = {}
                    entry = span.hot.get(qualified)
                    if entry is None:
                        span.hot[qualified] = [1, dt]
                    else:
                        entry[0] += 1
                        entry[1] += dt
            return wrapper
        return make

    def install(self):
        for ns, name, _original, wrapper in self._patches:
            ns[name] = wrapper

    def remove(self):
        for ns, name, original, _wrapper in self._patches:
            ns[name] = original

    def run(self, op, fn, attrs=None):
        """Run ``fn()`` as operation ``op`` under a root span, wrappers installed.

        Returns (result, root span).
        """
        root = Span("op", "bench", None, op)
        root.attrs = attrs
        self.spans.append(root)
        self._stack.append(root)
        self._op = op
        self.install()
        root.t0 = perf_counter()
        try:
            result = fn()
        finally:
            root.t1 = perf_counter()
            self.remove()
            self._stack.pop()
            self._op = None
        return result, root

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed:
        [index, parent index, op, name, start, end, attributes, hot calls]."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                parent = index[id(s.parent)] if s.parent is not None else None
                handle.write(json.dumps([i, parent, s.op, s.name, round(s.t0, 7),
                                         round(s.t1, 7), s.attrs, s.hot],
                                        separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], count_ops: int) -> dict:
    """Per-layer values from a traced run.

    Counts ("*_per_opt", "draw_batch_calls_*", "trials_drawn_per_trial_*")
    use the first ``count_ops`` operations only: one pass over the inputs,
    which every run completes, so that they repeat exactly. Times use every
    traced operation. A module's self time is its spans' durations minus
    their child spans and hot calls, plus its own hot-call time.
    """
    ops = [s for s in spans if s.op is not None and s.op >= 0]
    counted = [s for s in ops if s.op < count_ops]
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)] = children.get(id(s.parent), 0.0) + s.duration

    def hot_total(group, prefix):
        n = t = 0.0
        for s in group:
            for name, (count, time) in (s.hot or {}).items():
                if name.startswith(prefix):
                    n += count
                    t += time
        return n, t

    def named(group, *names):
        return [s for s in group if s.name in names]

    total = sum(s.duration for s in ops if s.name == "op")
    self_time = dict.fromkeys(MODULES, 0.0)
    for s in ops:
        hot = s.hot or {}
        own = s.duration - children.get(id(s), 0.0) - sum(t for _, t in hot.values())
        if s.module in self_time:
            self_time[s.module] += own
        for name, (_, t) in hot.items():
            self_time[name.split(".")[0]] += t

    m = {}
    loads = sorted(s.duration for s in spans if s.name == "cli.load_config")
    m["cli.load_config_ms"] = 1e3 * loads[len(loads) // 2] if loads else 0.0
    sweeps = named(ops, "cli.cmd_sweep")
    m["cli.sweep_overhead_frac"] = _ratio(
        sum(s.duration - children.get(id(s), 0.0) for s in sweeps),
        sum(s.duration for s in sweeps))

    n_opt = len(named(counted, "optimizer.maximize_for"))
    solvers = tuple(f"optimizer.{name}" for name in INTERVAL_SOLVERS)
    passive = tuple(f"optimizer.{name}" for name in PASSIVE_SOLVERS)
    m["model.make_split_per_opt"] = _ratio(hot_total(counted, "model.make_split")[0], n_opt)
    m["closedform.sop_evals_per_opt"] = _ratio(hot_total(counted, "closedform.sop_")[0],
                                               n_opt)
    sop_n, sop_t = hot_total(ops, "closedform.sop_")
    m["closedform.sop_eval_us"] = 1e6 * _ratio(sop_t, sop_n)
    grids = named(ops, "closedform.sop_grid")
    m["closedform.grid_cells_per_s"] = _ratio(sum(s.attrs["cells"] for s in grids),
                                              sum(s.duration for s in grids))
    verifies = named(ops, "cli.cmd_verify")
    cdfs = named(ops, *(f"closedform.{name}" for name in CDFS))
    m["closedform.cdf_eval_ms"] = 1e3 * _ratio(sum(s.duration for s in cdfs), len(verifies))

    m["optimizer.steps_per_opt"] = _ratio(
        sum(s.attrs["steps"] for s in named(counted, "optimizer.maximize_for")), n_opt)
    m["optimizer.interval_solves_per_opt"] = _ratio(len(named(counted, *solvers)), n_opt)
    m["optimizer.passive_solves_per_opt"] = _ratio(len(named(counted, *passive)), n_opt)
    solve_us = sorted(s.duration for s in named(ops, *solvers))
    m["optimizer.interval_solve_us_p50"] = (
        1e6 * solve_us[len(solve_us) // 2] if solve_us else 0.0)

    roots = {s.op: s for s in counted if s.name == "op"}
    draws = named(counted, "montecarlo.draw_batch")
    for label, multi in (("m1", False), ("multi", True)):
        calls = [r for r in roots.values()
                 if "m" in r.attrs and (r.attrs["m"] > 1) == multi]
        mine = [s for s in draws if s.op in {r.op for r in calls}]
        m[f"montecarlo.draw_batch_calls_{label}"] = _ratio(len(mine), len(calls))
        m[f"montecarlo.trials_drawn_per_trial_{label}"] = _ratio(
            sum(s.attrs["trials"] for s in mine), sum(r.attrs["trials"] for r in calls))
    all_draws = named(ops, "montecarlo.draw_batch")
    drawn = sum(s.attrs["trials"] for s in all_draws)
    draw_t = sum(s.duration for s in all_draws)
    m["montecarlo.sample_trials_per_s"] = _ratio(drawn, draw_t)
    estimator_t = sum(s.duration for s in named(ops, "montecarlo.snr_samples",
                                                "montecarlo.estimate_outages")) - draw_t
    m["montecarlo.estimator_trials_per_s"] = _ratio(drawn, estimator_t)
    ks = named(ops, "montecarlo.ks_statistic")
    m["montecarlo.ks_ms"] = 1e3 * _ratio(
        sum(s.duration - children.get(id(s), 0.0) for s in ks), len(verifies))

    for module in MODULES:
        m[f"{module}.self_frac"] = _ratio(self_time[module], total)
    return m
