"""Timing spans wrapped around the public callables of the agsdmm layers.

The wrappers are installed where callers look names up -- module globals,
including names one module imports from another, and class attributes -- and
are removed afterwards, so the program carries no instrumentation of its own
and the spans follow whatever call path the program takes. Spans nest: a
span's self time is its duration minus the time covered by the spans it
caused. Totals are kept per span name and per (parent, child) edge, and are
taken and reset once per unit of work (one op or one build).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

LAYERS = ("field", "function_field", "linalg", "scheme", "protocol", "analysis", "cli")

# Constructors that do a layer's work; other dunder methods (FieldElement
# arithmetic above all) are left alone, as wrapping them would swamp the run.
TIMED_CONSTRUCTORS = frozenset({"linalg.LUFactorization", "scheme.SchemeInstance"})


def span_name(func, attr: str | None = None) -> str:
    """'<layer>.<qualname>' of a function; a constructor reads '<layer>.<Class>.init'."""
    layer = func.__module__.rpartition(".")[2]
    qualname = func.__qualname__
    if attr == "__init__":
        qualname = qualname.removesuffix(".__init__") + ".init"
    return f"{layer}.{qualname}"


class Tracer:
    """Per-name span totals and counters for the current unit of work.

    splits maps a span name to a function of the call's (args, kwargs) that
    returns a suffix, so one method can report separate spans per argument
    value. hooks maps a span name to (counter name, function of the result).
    """

    def __init__(self, splits=None, hooks=None):
        self.splits = dict(splits or {})
        self.hooks = dict(hooks or {})
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, total_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [name, child_s]

    def take(self) -> dict:
        """The totals since the last take, which are then cleared."""
        unit = {
            "spans": {k: tuple(v) for k, v in self.spans.items()},
            "edges": {f"{p} > {c}": tuple(v) for (p, c), v in self.edges.items()},
            "counters": dict(self.counters),
        }
        self.spans.clear()
        self.edges.clear()
        self.counters.clear()
        return unit

    def wrap(self, name: str, fn):
        split = self.splits.get(name)
        hook = self.hooks.get(name)
        stack, spans, edges, counters = self._stack, self.spans, self.edges, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            label = name if split is None else f"{name}[{split(args, kwargs)}]"
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                rec = spans.get(label)
                if rec is None:
                    rec = spans[label] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed - frame[1]
                rec[2] += elapsed
                key = (parent[0] if parent else "", label)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
            if hook is not None:
                counter, measure = hook
                counters[counter] = counters.get(counter, 0) + measure(result)
            return result

        return timed


def layer_modules(package) -> list:
    """The package namespace and each layer module that still exists."""
    modules = [package]
    for layer in LAYERS:
        try:
            modules.append(importlib.import_module(f"{package.__name__}.{layer}"))
        except ModuleNotFoundError:
            continue
    return modules


def patch_targets(package) -> list[tuple[object, str, object, str]]:
    """(owner, attribute, original, span name) for every callable to be timed."""
    prefix = package.__name__ + "."
    targets = []
    for module in layer_modules(package):
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith(prefix):
                targets.append((module, attr, obj, span_name(obj)))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                targets.extend(_method_targets(obj))
    return targets


def _method_targets(cls):
    layer = cls.__module__.rpartition(".")[2]
    for attr, member in vars(cls).items():
        if attr.startswith("_") and not (
            attr == "__init__" and f"{layer}.{cls.__qualname__}" in TIMED_CONSTRUCTORS
        ):
            continue
        func = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
        if inspect.isfunction(func):
            yield cls, attr, member, span_name(func, attr)


@contextmanager
def instrumented(package, tracer: Tracer):
    """Install timing wrappers on the package's layers; restore the originals on exit.

    Yields the set of span names installed, so a caller can tell a span that
    did not run from one whose function no longer exists.
    """
    targets = patch_targets(package)
    wrappers: dict[int, object] = {}  # one wrapper per function, shared by every alias
    installed = []
    try:
        for owner, attr, original, name in targets:
            if isinstance(original, (staticmethod, classmethod)):
                func = original.__func__
                key = id(func)
                if key not in wrappers:
                    wrappers[key] = tracer.wrap(name, func)
                replacement = type(original)(wrappers[key])
            else:
                key = id(original)
                if key not in wrappers:
                    wrappers[key] = tracer.wrap(name, original)
                replacement = wrappers[key]
            setattr(owner, attr, replacement)
            installed.append((owner, attr, original))
        yield {name for *_, name in targets}
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
