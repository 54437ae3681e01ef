"""Spans around calls into qpc's public functions, and the per-layer metrics.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or -1, `op` the index of the CLI command it ran under.  The
wrappers replace every module attribute and class attribute that holds a
wrapped function, so names imported with `from .x import f` are traced too.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing
import sys
import time

LAYERS = ("cli", "counting", "arith", "series", "dirichlet", "asymptotics")

# series is traced at its operators; the rest at their public functions
SERIES_METHODS = {
    "TruncSeries": ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__",
                    "inverse", "__eq__"),
    "RationalFunction": ("__add__", "__sub__", "__mul__", "__truediv__", "__eq__"),
}

# metric stem -> span names whose outermost calls it sums
FUNCTIONS = {
    "cli.main": ("cli.main",),
    "counting.n_star": ("counting.n_star",),
    "counting.n_u": ("counting.n_u",),
    "counting.t_exact": ("counting.t_exact",),
    "counting.s_exact": ("counting.s_exact",),
    "counting.partition_witness": ("counting.partition_witness",),
    "counting.telescoping_check": ("counting.telescoping_check",),
    "counting.shutdown_workers": ("counting.shutdown_workers",),
    "arith.build_spf_sieve": ("arith.build_spf_sieve",),
    "arith.primes_up_to": ("arith.primes_up_to",),
    "series.mul": ("series.TruncSeries.__mul__",),
    "series.inverse": ("series.TruncSeries.inverse",),
    "series.rational_eq": ("series.RationalFunction.__eq__",),
    "dirichlet.local_factor": ("dirichlet.local_factor_definition",
                               "dirichlet.local_factor_closed_form"),
    "dirichlet.formal_identity": ("dirichlet.formal_identity_1", "dirichlet.formal_identity_2"),
    "dirichlet.global_series_check": ("dirichlet.global_series_check",),
    "dirichlet.g_value": ("dirichlet.g_value",),
    "dirichlet.zeta": ("dirichlet.zeta",),
    "asymptotics.euler_product_C4": ("asymptotics.euler_product_C4",),
    "asymptotics.p_coefficients": ("asymptotics.p_coefficients",),
    "asymptotics.convergence_table": ("asymptotics.convergence_table",),
}
CALL_COUNTS = ("counting.n_star", "counting.n_u", "counting.partition_witness",
               "arith.build_spf_sieve", "arith.primes_up_to", "series.mul", "series.inverse",
               "dirichlet.local_factor", "dirichlet.g_value", "dirichlet.zeta",
               "asymptotics.p_coefficients")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for stem in FUNCTIONS:
        units[f"{stem}_s"] = "s"
    for stem in CALL_COUNTS:
        units[f"{stem}_calls"] = "count"
    units["arith.sieve_entries"] = "count"
    units["counting.worker_cpu_s"] = "s"
    units["counting.pool_busy_ratio"] = "ratio"
    return units


class Recorder:
    """Spans of one run, recorded by wrappers it installs into qpc."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, extra]
        self._stack: list[int] = []
        self.op = -1

    def _wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer at every name that holds them."""
        modules = [sys.modules[f"qpc.{layer}"] for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn, _note(layer, attr))
        series = sys.modules["qpc.series"]
        for cls_name, methods in SERIES_METHODS.items():
            cls = getattr(series, cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                wrappers.setdefault(fn, self._wrap(f"series.{cls_name}.{meth}", fn))
            for attr, value in list(cls.__dict__.items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(cls, attr, wrappers[value])
        for mod in [sys.modules["qpc"], *modules]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])


def write(spans: list[list], path: str) -> None:
    """Spans as JSON lines, one object per span."""
    with open(path, "w") as fh:
        for name, start, end, parent, op, extra in spans:
            row = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            if extra is not None:
                row.update(extra)
            fh.write(json.dumps(row) + "\n")


def _note(layer: str, attr: str):
    """Counts recorded at a span's end, where the work happens."""
    if (layer, attr) == ("arith", "build_spf_sieve"):
        return lambda sieve: {"entries": sieve.limit + 1}
    if layer == "counting":
        # live worker processes when a counting call returns: the pool it used
        return lambda _: {"workers": len(multiprocessing.active_children())}
    return None


def layer_metrics(spans: list[list], lo: int, hi: int, worker_cpu_s: float) -> dict[str, float]:
    """Per-layer metrics over spans[lo:hi], the spans of one pass."""
    spans = spans[lo:hi]
    parents = [s[3] - lo if s[3] >= lo else -1 for s in spans]
    names = [s[0] for s in spans]
    durations = [s[2] - s[1] for s in spans]

    # a layer's self time: its spans' time minus the time their child spans cover
    child_s = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            child_s[p] += durations[i]
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, name in enumerate(names):
        self_s[name.split(".", 1)[0]] += durations[i] - child_s[i]

    def outermost(i: int) -> bool:
        p = parents[i]
        while p >= 0:
            if names[p] == names[i]:
                return False
            p = parents[p]
        return True

    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        if outermost(i):
            inclusive[name] = inclusive.get(name, 0.0) + durations[i]

    out: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for stem, members in FUNCTIONS.items():
        out[f"{stem}_s"] = sum(inclusive.get(m, 0.0) for m in members)
    for stem in CALL_COUNTS:
        out[f"{stem}_calls"] = sum(calls.get(m, 0) for m in FUNCTIONS[stem])
    out["arith.sieve_entries"] = sum(
        s[5]["entries"] for s in spans if s[0] == "arith.build_spf_sieve" and s[5])

    # workers x wall time of the outermost counting calls that returned with workers alive
    pooled = 0.0
    for i, s in enumerate(spans):
        top = parents[i] < 0 or not names[parents[i]].startswith("counting.")
        if names[i].startswith("counting.") and top and s[5]:
            pooled += s[5]["workers"] * durations[i]
    out["counting.worker_cpu_s"] = worker_cpu_s
    out["counting.pool_busy_ratio"] = worker_cpu_s / pooled if pooled else 0.0
    return out
