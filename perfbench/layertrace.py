"""Host-time spans per layer, recorded from outside the program.

:class:`LayerTracer` wraps the public functions and methods of every
module of a layer (``repro.<package>``) and times each call that enters
the layer from another layer or from the benchmark.  A call made inside
the layer it belongs to runs unrecorded, so a span marks a layer
boundary.  The tracer keeps a stack of open spans; a span's *self time*
is its duration minus the durations of the spans opened inside it, and
is added to its layer as the span closes, so self times over all layers
never exceed the wall time of the traced region.

Spans are kept in memory (up to ``span_cap``) with their function, start,
end, parent span and operation id, and written out as Chrome-trace JSON
at the end.  Generator functions are not wrapped: a wrapper would time
only the generator's creation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections.abc import Callable
from types import FunctionType

#: Layer -> packages whose modules belong to it.
LAYERS = {
    "serve": ("repro.serve",),
    "sql": ("repro.sql",),
    "algebra": ("repro.algebra",),
    "core": ("repro.core",),
    "exec": ("repro.exec",),
    "ofm": ("repro.ofm",),
    "storage": ("repro.storage",),
    "pool": ("repro.pool",),
    "machine": ("repro.machine",),
}

#: Modules that are not on the path of a statement or a packet.
SKIPPED_MODULES = frozenset({"repro.core.workload", "repro.pool.sanitizer"})

_BENCH = -1  # layer id of the benchmark's own code (the stack's root)


def layer_modules() -> dict[str, list[str]]:
    """Every module of every layer, imported."""
    modules: dict[str, list[str]] = {}
    for layer, packages in LAYERS.items():
        names = []
        for package_name in packages:
            package = importlib.import_module(package_name)
            names.append(package_name)
            for info in pkgutil.iter_modules(package.__path__, package_name + "."):
                if info.name not in SKIPPED_MODULES:
                    importlib.import_module(info.name)
                    names.append(info.name)
        modules[layer] = names
    return modules


class LayerTracer:
    """Installs layer-boundary wrappers; collects spans and self time.

    Wrapper cost is estimated once (:meth:`calibrate`) and taken out of
    the self times: a span's parent is charged its child's duration plus
    the wrapper's cost outside the child's window, and each layer loses
    the cost of the calls it made into itself.  What remains unassigned
    is the tracer's own time.
    """

    def __init__(self, span_cap: int = 200_000):
        self.layer_names = list(LAYERS)
        self.span_cap = span_cap
        self.functions: list[str] = []
        self.spans: list[tuple[int, float, float, int, int, int]] = []
        self.op_id = -1
        self.span_cost_s = 0.0
        self.pass_cost_s = 0.0
        self._stack: list[list] = [[_BENCH, 0.0, 0.0, -1]]
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []
        self._adopted: dict[Callable, Callable] = {}
        self.reset()

    # -- accounting -------------------------------------------------------------

    def reset(self) -> None:
        """Zero self time and call counts (spans are kept)."""
        self.self_s = [0.0] * len(self.layer_names)
        self.calls = [0] * len(self.layer_names)
        self.passes = [0] * len(self.layer_names)

    def self_times(self) -> list[float]:
        """Self time per layer, less the wrappers' estimated cost."""
        return [
            max(0.0, self_s - passes * self.pass_cost_s)
            for self_s, passes in zip(self.self_s, self.passes)
        ]

    def _wrap(self, fn: Callable, layer: int, label: str) -> Callable:
        function_id = len(self.functions)
        self.functions.append(label)
        stack = self._stack
        spans = self.spans
        passes = self.passes
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1][0] == layer:
                passes[layer] += 1
                return fn(*args, **kwargs)
            span_id = tracer._next_span
            tracer._next_span = span_id + 1
            frame = [layer, 0.0, 0.0, span_id]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1]
                parent[2] += duration + tracer.span_cost_s
                tracer.self_s[layer] += duration - frame[2]
                tracer.calls[layer] += 1
                if len(spans) < tracer.span_cap:
                    spans.append((function_id, start, end, parent[3], span_id, tracer.op_id))
            if type(result) is FunctionType and not hasattr(result, "_perfbench_layer"):
                # A function a layer hands out (a compiled kernel, a
                # closure) is that layer's code wherever it is called.
                result = tracer._adopt(result, layer)
            return result

        traced._perfbench_layer = layer
        return traced

    def _adopt(self, fn: Callable, layer: int) -> Callable:
        wrapper = self._adopted.get(fn)
        if wrapper is None:
            label = f"{self.layer_names[layer]}:{fn.__module__}.{fn.__qualname__}"
            wrapper = self._adopted[fn] = self._wrap(fn, layer, label)
        return wrapper

    def calibrate(self, calls: int = 20_000, repeats: int = 5) -> None:
        """Estimate the wrapper's cost per span and per same-layer call."""

        def noop():
            return None

        recorded = self._wrap(noop, 0, "calibration:noop")
        clock = time.perf_counter
        cap, self.span_cap = self.span_cap, 0
        best_plain = best_span = best_pass = float("inf")
        inside = 0.0
        try:
            for _ in range(repeats):
                started = clock()
                for _ in range(calls):
                    noop()
                best_plain = min(best_plain, clock() - started)
                before = self.self_s[0]
                started = clock()
                for _ in range(calls):
                    recorded()
                elapsed = clock() - started
                if elapsed < best_span:
                    best_span, inside = elapsed, self.self_s[0] - before
                self._stack.append([0, 0.0, 0.0, -1])
                started = clock()
                for _ in range(calls):
                    recorded()
                best_pass = min(best_pass, clock() - started)
                self._stack.pop()
        finally:
            self.span_cap = cap
            self.reset()
        self.span_cost_s = max(0.0, (best_span - inside) / calls)
        self.pass_cost_s = max(0.0, (best_pass - best_plain) / calls)

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of every layer module."""
        self.calibrate()
        originals: dict[int, Callable] = {}
        for layer_id, (layer, module_names) in enumerate(layer_modules().items()):
            for module_name in module_names:
                module = sys.modules[module_name]
                for name, value in list(vars(module).items()):
                    if name.startswith("_") or getattr(value, "__module__", None) != module_name:
                        continue
                    if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                        wrapper = self._wrap(value, layer_id, f"{layer}:{module_name}.{name}")
                        originals[id(value)] = wrapper
                        self._patch(module, name, wrapper)
                    elif inspect.isclass(value):
                        self._install_class(value, layer_id, layer)
        # Modules that imported a wrapped function by name (the
        # benchmark's own included) call it through their own global;
        # point those at the wrapper too.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(module, name, wrapper)

    def _install_class(self, cls: type, layer_id: int, layer: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{layer}:{cls.__module__}.{cls.__qualname__}.{name}"
            if isinstance(member, staticmethod | classmethod):
                inner = member.__func__
                if inspect.isgeneratorfunction(inner):
                    continue
                self._patch(cls, name, type(member)(self._wrap(inner, layer_id, label)))
            elif inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
                self._patch(cls, name, self._wrap(member, layer_id, label))

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------------

    def write_chrome_trace(self, path) -> None:
        """The kept spans as Chrome-trace "complete" events (µs)."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(span[1] for span in self.spans)
        events = [
            {
                "name": self.functions[function_id].split(":", 1)[1],
                "cat": self.functions[function_id].split(":", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"span": span_id, "parent": parent, "op": op_id},
            }
            for function_id, start, end, parent, span_id, op_id in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
