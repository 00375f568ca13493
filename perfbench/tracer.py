"""Span tracer that wraps ccplane's layer modules from the outside.

Every public function of a layer module is replaced by a wrapper that
opens a span, counts the call and, when the span closes, books its self
time (duration minus the child spans inside it) to the layer.  Names
that other modules re-bound with ``from ... import`` are replaced too,
and everything is put back by ``restore``.  Spans are folded into
per-layer totals as they close, so memory stays flat however long the
run.

Two hooks serve the sampler's acceptance ratio: ``sample_triangle``
remembers the geometry it is drawing for, and ``Triangle.__post_init__``
(one call per constructed triangle) counts attempts against it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("corevec", "kernel", "trig", "sampling", "cevians", "lexell",
          "render", "verify", "cli")


def _public_functions(module) -> dict:
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or inspect.ismodule(obj):
            continue
        if module.__name__ == "ccplane.corevec":
            # Re-exports of the selected backend, compiled or python.
            if callable(obj):
                found[name] = obj
        elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found[name] = obj
    return found


class Tracer:
    def __init__(self) -> None:
        self.self_time = Counter()  # layer -> seconds
        self.calls = Counter()  # "layer.function" -> calls
        self.layer_calls = Counter()  # layer -> calls
        self.triangle_attempts = Counter()  # geometry value -> Triangle built
        self.triangle_accepted = Counter()  # geometry value -> sample_triangle returns
        self._stack: list[float] = []  # child time booked to each open span
        self._sampling: list[str] = []  # geometries of open sample_triangle spans
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        stack, calls, layer_calls, self_time = (
            self._stack, self.calls, self.layer_calls, self.self_time)
        key = f"{layer}.{name}"
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_time[layer] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                calls[key] += 1
                layer_calls[layer] += 1

        span.__wrapped__ = fn
        return span

    def _sampler_hook(self, traced):
        sampling, accepted = self._sampling, self.triangle_accepted

        def sample_triangle(geometry, rng):
            sampling.append(geometry.value)
            try:
                tri = traced(geometry, rng)
            finally:
                sampling.pop()
            accepted[geometry.value] += 1
            return tri

        return sample_triangle

    def _triangle_hook(self, traced):
        sampling, attempts = self._sampling, self.triangle_attempts

        def __post_init__(tri):
            if sampling:
                attempts[sampling[-1]] += 1
            return traced(tri)

        return __post_init__

    def install(self) -> None:
        replacement = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"ccplane.{layer}")
            for name, fn in _public_functions(module).items():
                wrapper = self._wrap(layer, name, fn)
                if layer == "sampling" and name == "sample_triangle":
                    wrapper = self._sampler_hook(wrapper)
                replacement[id(fn)] = (fn, wrapper)
        # Every module that holds a layer function by name, the caller's
        # own modules included, gets the wrapper.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])
        triangle = importlib.import_module("ccplane.cevians").Triangle
        original = triangle.__post_init__
        self._undo.append((triangle, "__post_init__", original))
        triangle.__post_init__ = self._triangle_hook(
            self._wrap("cevians", "Triangle", original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
