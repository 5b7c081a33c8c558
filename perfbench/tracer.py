"""Call tracer that times spinflow's layers from outside the program.

The tracer wraps the public functions of each layer (the modules under
``src/spinflow/``) and patches every module global that is bound to one of
them.  The modules import each other's functions by name (``from .maps
import xi``), so patching only ``spinflow.maps.xi`` would miss the callers;
patching every binding catches calls from other layers and from inside the
defining module alike.

For every wrapped function it keeps a call count, the summed duration of its
calls and their summed self time: a call's duration minus the time its
wrapped callees took.  A module's self time is the sum over its functions.
The first ``span_cap`` calls of each function also leave a span (name, start,
end, parent span); the rest are only aggregated, because ``maps.xi`` alone
is called about 10**5 times per pass and one record per call would cost more
than the call.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time

import numpy as np

#: the layers, in the order the benchmark reports them
LAYERS = ("cli", "maps", "analysis", "measure", "sphere", "volterra", "states")

#: public functions that are not wrapped: parse_kind only maps a string to an
#: enum and is called from inside every xi call, so it would double the cost
#: of tracing the hottest path without measuring any layer's work
SKIP = {"spinflow.maps.parse_kind"}

#: spans kept per function and traced pass
SPAN_CAP = 200


class _Frame:
    __slots__ = ("start", "child", "span")

    def __init__(self, span: int | None):
        self.start = 0.0
        self.child = 0.0  # time covered by wrapped callees
        self.span = span  # id of this call's span, or of the nearest ancestor's


class Tracer:
    """Aggregated call statistics, counters and capped spans.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    synthetic call tree.
    """

    def __init__(self, clock=time.perf_counter, span_cap: int = SPAN_CAP):
        self.clock = clock
        self.span_cap = span_cap
        self.stats: dict[str, dict[str, float]] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[list] = []  # [id, name, start, end, parent id]
        self._local = threading.local()
        # outermost active call; calls that start on another thread with an
        # empty stack (the sweep's worker pool) are its children
        self._root: _Frame | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func, counters=None):
        """Return a wrapper of ``func`` that records under ``name``.

        ``counters(args, kwargs, result)`` returns increments for counters
        named ``<name>.<key>``; the keys in ``counters.keys`` are created at
        zero so that a function never called still reports them.
        """
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in getattr(counters, "keys", ()):
            self.counters.setdefault(f"{name}.{key}", 0)
        clock = self.clock

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            inherited = parent.span if parent is not None else None
            span = None
            if stat["calls"] < self.span_cap:
                span = [len(self.spans), name, 0.0, 0.0, inherited]
                self.spans.append(span)
            frame = _Frame(span[0] if span is not None else inherited)
            is_root = not stack and self._root is None
            if is_root:
                self._root = frame
            stack.append(frame)
            stat["calls"] += 1
            frame.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_root:
                    self._root = None
                duration = end - frame.start
                stat["s"] += duration
                stat["self_s"] += duration - frame.child
                if parent is not None:
                    parent.child += duration
                if span is not None:
                    span[2], span[3] = frame.start, end
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap ``(name, func, counters)`` targets and patch every binding.

        Every ``spinflow`` module global that is the same object as a target
        function is replaced, so aliases (``maps.apply``) and imported names
        are covered.
        """
        wrappers = {id(func): self.wrap(name, func, counters) for name, func, counters in targets}
        for modname, module in list(sys.modules.items()):
            if module is None or modname.split(".")[0] != "spinflow":
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: ``<fn>.calls``, ``<fn>.s``, counters, ``<layer>.self_s``."""
        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat["calls"]
            out[f"{name}.s"] = stat["s"]
            layer_self[name.split(".", 1)[0]] += stat["self_s"]
        out.update(self.counters)
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        return out


# ----------------------------------------------------------------------------
# counters read from arguments and return values


def _counter(keys):
    def decorate(fn):
        fn.keys = keys
        return fn

    return decorate


@_counter(("points",))
def _xi_points(args, kwargs, result):
    tau = args[2] if len(args) > 2 else kwargs["tau"]
    return {"points": int(np.size(tau))}


@_counter(("evals",))
def _pattern_evals(args, kwargs, result):
    return {"evals": int(result[2])}


@_counter(("evaluations",))
def _measure_evaluations(args, kwargs, result):
    return {"evaluations": int(result.evaluations)}


@_counter(("steps",))
def _quadrature_steps(args, kwargs, result):
    return {"steps": int(result.steps)}


@_counter(("nfev",))
def _nfev(args, kwargs, result):
    # the ODE and time-local routes store solve_ivp's nfev in `steps`
    return {"nfev": int(result.steps)}


@_counter(("rows", "bytes"))
def _emit_size(args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    out = args[3] if len(args) > 3 else kwargs.get("out")
    return {"rows": len(rows), "bytes": os.path.getsize(out) if out is not None else 0}


def _distinct_first_arg():
    seen = set()

    @_counter(("distinct",))
    def count(args, kwargs, result):
        key = args[0] if args else kwargs["min_vertices"]
        if key in seen:
            return {"distinct": 0}
        seen.add(key)
        return {"distinct": 1}

    return count


def spinflow_targets():
    """(metric name, function, counters) for every traced spinflow function.

    The public functions are those in each layer's ``__all__`` that the layer
    defines itself.  The CLI has no ``__all__``: its entry point ``main`` and
    its output writer ``_emit`` are traced.  ``scipy.optimize.brentq`` is
    traced where ``measure`` looks it up, as that layer's root polishing.
    """
    import importlib

    modules = {layer: importlib.import_module(f"spinflow.{layer}") for layer in LAYERS}
    special = {
        "spinflow.cli._emit": ("cli.emit", _emit_size),
        "spinflow.maps.xi": ("maps.xi", _xi_points),
        "spinflow.sphere.pattern_search": ("sphere.pattern_search", _pattern_evals),
        "spinflow.sphere.sphere_grid": ("sphere.sphere_grid", _distinct_first_arg()),
        "spinflow.measure.measure": ("measure.measure", _measure_evaluations),
        "spinflow.volterra.integrate_quadrature": ("volterra.integrate_quadrature", _quadrature_steps),
        "spinflow.volterra.integrate_memory_kernel": ("volterra.ode", _nfev),
        "spinflow.volterra.integrate_post_markovian": ("volterra.ode", _nfev),
        "spinflow.volterra.integrate_tcl": ("volterra.integrate_tcl", _nfev),
    }
    targets = [
        ("cli.main", modules["cli"].main, None),
        ("measure.brentq", modules["measure"].brentq, None),
    ]
    funcs = [modules["cli"]._emit]
    for layer in LAYERS[1:]:
        module = modules[layer]
        for attr in module.__all__:
            value = getattr(module, attr)
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                funcs.append(value)
    for func in funcs:
        qual = f"{func.__module__}.{func.__name__}"
        if qual in SKIP:
            continue
        name, counters = special.get(qual, (qual.removeprefix("spinflow."), None))
        targets.append((name, func, counters))
    return targets
