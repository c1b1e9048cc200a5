"""Span tracing for the traced benchmark run.

The tracer wraps, at runtime, every public function of each package module
in every package namespace that holds it, so a call made through
``stochastic.evaluate`` or ``cli.build_model`` is recorded under its defining
module with the enclosing call as parent. Private helpers are not wrapped:
their time is the self time of the public function that called them.
Untraced runs never call ``Tracer.install``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("multiindex", "bernstein", "finite_diff", "stochastic", "harness", "cli")
# the benchmark's own spans, the function being sampled, and the package modules
SELF_LAYERS = ("bench", "f") + LAYERS

# Families of public entry points that per-layer metrics report as one unit:
# ``evaluate`` dispatches to ``eval_<kind>``, ``derivative`` to ``deriv_<kind>``.
EVAL_FAMILY = ("evaluate", "eval_cube", "eval_simplex", "eval_mixed")
DERIV_FAMILY = ("derivative", "deriv_cube", "deriv_simplex", "deriv_mixed")
KINDS = ("cube", "simplex", "mixed")

_MB = float(1 << 20)


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(shape[0])


def _family_tags(name: str, args: dict) -> dict:
    """Kind, point count and computed work sizes of an eval or deriv call."""
    x = args["x"]
    if "model" in args:
        model = args["model"]
        kind, n, d, size = model.kind.name, model.degree, model.dim, model.samples.size
        # the cube contracts per-axis weight rows; other kinds weigh every sample
        entries = _rows(x) * (n + 1) * d if kind == "cube" else _rows(x) * size
        return {"kind": kind, "points": _rows(x), "weight_entries": entries}
    kind = args["kind"].name if "kind" in args else name.split("_", 1)[1]
    d = len(args["k"])
    return {"kind": kind, "points": _rows(x), "dense_entries": (int(args["n"]) + 1) ** d}


def _tagger(qualname: str, fn):
    """Size tags recorded for a call, or None for untagged functions."""
    name = qualname.split(".", 1)[1]
    if name in EVAL_FAMILY or name in DERIV_FAMILY:
        sig = inspect.signature(fn)
        return lambda a, kw, out: _family_tags(name, sig.bind(*a, **kw).arguments)
    if name in ("enumerate_lattice", "grid_points"):
        return lambda a, kw, out: {"rows": int(np.shape(out)[0])}
    if name == "oracle_deriv":
        sig = inspect.signature(fn)
        return lambda a, kw, out: {"points": _rows(sig.bind(*a, **kw).arguments["x"])}
    if name in ("mc_eval", "mc_deriv"):
        sig = inspect.signature(fn)
        return lambda a, kw, out: {"draws": int(sig.bind(*a, **kw).arguments["samples"])}
    return None


class Tracer:
    """In-memory spans: [name, start, end, parent, request, tags]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.recording = False
        # allocation peaks come from a separate untimed replay: tracemalloc
        # slows every allocation and would distort the self times
        self.measuring_alloc = False
        self.peak_alloc_mb: dict[str, float] = {}
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a benchmark span."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        tagger = _tagger(qualname, fn)
        alloc_key = qualname if qualname in ("bernstein.evaluate", "bernstein.derivative") else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                idx = tracer.open(qualname)
                out = None
                try:
                    out = fn(*args, **kwargs)
                    return out
                finally:
                    tracer.close(idx)
                    if tagger is not None and out is not None:
                        tracer.spans[idx][5] = tagger(args, kwargs, out)
            if alloc_key and tracer.measuring_alloc and not tracemalloc.is_tracing():
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / _MB
                    tracemalloc.stop()
                    tracer.peak_alloc_mb[alloc_key] = max(tracer.peak_alloc_mb.get(alloc_key, 0.0), peak)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str = "mvbernstein"):
        """Replace each public function of each layer module in every package namespace."""
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()

    def wrap_user(self, fn):
        """The user function being sampled, recorded as layer ``f``."""
        tracer = self

        def f(x):
            if not tracer.recording:
                return fn(x)
            idx = tracer.open("f")
            try:
                return fn(x)
            finally:
                tracer.close(idx)
                shape = np.shape(x)
                tracer.spans[idx][5] = {
                    "points": int(np.prod(shape[:-1])) if len(shape) > 1 else 1,
                    "scalar": len(shape) <= 1,
                }

        return f


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def per_layer_metrics(spans, passes: int, overhead_s: float, peak_alloc_mb: dict) -> dict:
    """Per-layer counts and self times of one set-up plus one pass.

    Spans under ``bench.setup`` count once; spans under ``bench.pass`` count
    1/passes, so the numbers do not grow when faster code fits more passes
    into the run.
    """
    selfs = self_times(spans)
    weight = []
    for name, _, _, parent, _, _ in spans:
        weight.append(weight[parent] if parent >= 0 else (1.0 if name == "bench.setup" else 1.0 / passes))
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name in ("bernstein.evaluate", "bernstein.derivative"):
        out[f"{name}.peak_alloc_mb"] = peak_alloc_mb.get(name, 0.0)

    def add(key, value):
        out[key] += value

    for (name, start, end, parent, _, tags), own, w in zip(spans, selfs, weight):
        tags = tags or {}
        layer, _, func = name.partition(".")
        own *= w
        if parent < 0:
            add("trace.wall_s", (end - start) * w)
        add(f"{layer}.self_s", own)
        if name == "f":
            add("f.calls", w)
            add("f.points", w * tags.get("points", 0))
            add("f.scalar_calls", w * tags.get("scalar", False))
        for family, label in ((EVAL_FAMILY, "evaluate"), (DERIV_FAMILY, "derivative")):
            if layer != "bernstein" or func not in family:
                continue
            base = f"bernstein.{label}"
            add(f"{base}.self_s", own)
            if "kind" in tags:
                add(f"{base}.self_s.{tags['kind']}", own)
            outer = spans[parent][0].partition(".")[2] if parent >= 0 else ""
            if outer in family:
                continue
            add(f"{base}.calls", w)
            add(f"{base}.points", w * tags.get("points", 0))
            entries = "weight_entries" if label == "evaluate" else "dense_entries"
            add(f"{base}.{entries}", w * tags.get(entries, 0))
        if name in _FUNCTIONS:
            add(f"{name}.calls", w)
            add(f"{name}.self_s", own)
            if "rows" in tags:
                add(f"{name}.rows", w * tags["rows"])
            if "points" in tags:
                add(f"{name}.points", w * tags["points"])
            if "draws" in tags:
                add("stochastic.draws", w * tags["draws"])

    out["trace.overhead_s"] = overhead_s / passes
    out["trace.spans"] = sum(weight)
    return out


_FUNCTIONS = (
    "multiindex.enumerate_lattice",
    "bernstein.build_model",
    "bernstein.oracle_deriv",
    "bernstein.eval_cube_grid",
    "bernstein.deriv_cube_grid",
    "bernstein.dump_model",
    "bernstein.parse_model",
    "harness.convergence_table",
    "harness.sup_error",
    "harness.grid_points",
    "harness.corpus_member",
    "cli.run",
    "stochastic.mc_eval",
    "stochastic.mc_deriv",
    "finite_diff.delta_mixed",
    "finite_diff.difference_integral_check",
)

_COUNTED = (
    "f.calls",
    "f.points",
    "f.scalar_calls",
    "multiindex.enumerate_lattice.rows",
    "harness.grid_points.rows",
    "bernstein.evaluate.calls",
    "bernstein.evaluate.points",
    "bernstein.evaluate.weight_entries",
    "bernstein.derivative.calls",
    "bernstein.derivative.points",
    "bernstein.derivative.dense_entries",
    "bernstein.oracle_deriv.points",
    "stochastic.draws",
) + tuple(f"{name}.calls" for name in _FUNCTIONS)

_TIMED = ("bernstein.evaluate.self_s", "bernstein.derivative.self_s") + tuple(
    f"{name}.self_s" for name in _FUNCTIONS
)

PER_LAYER_UNITS: dict[str, str] = {}
for _key in _COUNTED + ("trace.spans",):
    PER_LAYER_UNITS[_key] = "count"
for _key in _TIMED + ("trace.wall_s", "trace.overhead_s") + tuple(
    f"{layer}.self_s" for layer in SELF_LAYERS
):
    PER_LAYER_UNITS[_key] = "s"
for _kind in KINDS:
    PER_LAYER_UNITS[f"bernstein.evaluate.self_s.{_kind}"] = "s"
    PER_LAYER_UNITS[f"bernstein.derivative.self_s.{_kind}"] = "s"
PER_LAYER_UNITS["bernstein.evaluate.peak_alloc_mb"] = "MB"
PER_LAYER_UNITS["bernstein.derivative.peak_alloc_mb"] = "MB"
