"""Layer spans recorded from outside the program, and their self times.

`Tracer.install` replaces each traced function with a wrapper in every
module that holds a binding to it.  `from .x import y` copies `y` into the
importing module, so a wrapper on `x.y` alone would miss calls made through
the copy; each span therefore lists the bindings its callers look up.  A
binding that no longer exists is recorded as absent instead of failing, so
the benchmark keeps running when a later change removes a function.

Spans (name, start, end, parent) and counts stay in memory until `dump`.
The wrappers assume one thread, which the benchmark guarantees with
`--threads 1`.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

_CLI = "streamfade.cli"
_EXP = "streamfade.experiments"
_ENGINE = "streamfade.engine"
_CHANNEL = "streamfade.channel"
_RUNSTATS = "streamfade.runstats"


def _count_rows(counts, args, kwargs, result):
    counts["channel.rows_sampled"] += result.shape[0]


def _count_columns(counts, args, kwargs, result):
    v = args[0] if args else kwargs["v"]
    counts["metrics.zero_run_columns"] += v.shape[1]


def _count_fallbacks(counts, args, kwargs, result):
    if getattr(result, "method", None) == "matrix-power":
        counts["runstats.matrix_power_fallbacks"] += 1


# span name -> (bindings the callers look up, optional count hook).
# The first binding is the function's home module.
SPANS = {
    "experiments.run_experiment": (((_EXP, "run_experiment"), (_CLI, "run_experiment")), None),
    "experiments.analytic_rows": (((_EXP, "analytic_rows"), (_CLI, "analytic_rows")), None),
    "experiments.render_csv": (((_EXP, "render_csv"), (_CLI, "render_csv")), None),
    "engine.evaluate_point": (((_ENGINE, "evaluate_point"),), None),
    "engine.optimize_pb_window": (((_ENGINE, "optimize_pb_window"),), None),
    "engine.optimize_wts_window": (((_ENGINE, "optimize_wts_window"),), None),
    "engine.pb_count_sums": (((_ENGINE, "pb_count_sums"),), None),
    "engine.evaluate_mt": (((_ENGINE, "evaluate_mt"),), None),
    "engine.evaluate_ets": (((_ENGINE, "evaluate_ets"),), None),
    "engine.evaluate_pb": (((_ENGINE, "evaluate_pb"),), None),
    "engine.evaluate_wts": (((_ENGINE, "evaluate_wts"),), None),
    "channel.sample_capacity_matrix": (
        ((_CHANNEL, "sample_capacity_matrix"), (_ENGINE, "sample_capacity_matrix")),
        _count_rows,
    ),
    "rng.exponential_matrix": ((("streamfade.rng", "exponential_matrix"),), None),
    "metrics.max_zero_run_rows": (
        (("streamfade.metrics", "max_zero_run_rows"), (_ENGINE, "max_zero_run_rows")),
        _count_columns,
    ),
    "informed.informed_counts_and_delays": (
        (("streamfade.informed", "informed_counts_and_delays"),
         (_ENGINE, "informed_counts_and_delays")),
        None,
    ),
    "channel.window_decode_prob": (
        ((_CHANNEL, "window_decode_prob"), (_EXP, "window_decode_prob")),
        None,
    ),
    "runstats.mt_mean_max_delay": (
        ((_RUNSTATS, "mt_mean_max_delay"), (_EXP, "mt_mean_max_delay")),
        None,
    ),
    "runstats.wts_delay_bounds": (
        ((_RUNSTATS, "wts_delay_bounds"), (_EXP, "wts_delay_bounds")),
        None,
    ),
    "runstats.run_tail": (((_RUNSTATS, "run_tail"),), _count_fallbacks),
    "runstats.partial_fraction": (((_RUNSTATS, "partial_fraction"),), None),
}

COUNTS = (
    "channel.rows_sampled",
    "metrics.zero_run_columns",
    "runstats.matrix_power_fallbacks",
    "runstats.partial_fraction.builds",
)


class Tracer:
    """Wraps the functions in SPANS and records one span per call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, (bindings, hook) in SPANS.items():
            for module_name, attr in bindings:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn, hook)
                setattr(module, attr, wrappers[id(fn)])

    def dump(self) -> dict:
        counts = dict(self.counts)
        runstats = importlib.import_module(_RUNSTATS)
        pf = getattr(runstats, "partial_fraction", None)
        if pf is not None:  # the wrapper; the lru_cache it wraps counts the builds
            counts["runstats.partial_fraction.builds"] = pf.__wrapped__.cache_info().misses
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": counts,
            "absent": self.absent,
        }


def summarise(dump: dict) -> dict:
    """Per-span self time and call count, plus the raw counts of one run.

    Self time is a span's duration minus its child spans' durations; with
    one thread, a span's children run one after another and never overlap.
    """
    spans = dump["spans"]
    child_s = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = {}
    for name in SPANS:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for index, (name, start, end, _) in enumerate(spans):
        out[f"{name}.self_s"] += (end - start) - child_s[index]
        out[f"{name}.calls"] += 1
    for name in COUNTS:
        out[name] = dump["counts"].get(name, 0)
    out["trace.absent"] = len(dump["absent"])
    return out
