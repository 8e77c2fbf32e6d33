"""Span tracer that times oscsync's public functions from outside the package.

Every function named in the ``__all__`` of a traced module is wrapped in
every ``oscsync`` module namespace that holds a reference to it, so both
cross-module imports (``cli`` calling ``info.information_series``) and a
module's calls to its own functions (``info`` calling
``symplectic_spectrum``) are caught.  Spans are kept in memory and written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "oscsync"
LAYERS = ("model", "dynamics", "info", "sync", "sweep", "cli")


def public_functions(package: str = PACKAGE, layers=LAYERS) -> dict:
    """``{"<layer>.<name>": function}`` for each function a layer exports.

    A layer that cannot be imported, or a name listed in ``__all__`` that no
    longer exists, is left out, so its metrics are reported as absent.
    """
    found = {}
    for layer in layers:
        try:
            mod = importlib.import_module(f"{package}.{layer}")
        except ImportError:
            continue
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name, None)
            # re-exports belong to the layer that defines them
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Records one span per call of each public function while installed.

    A span is ``(span_id, parent_id, invocation, name, start, end)``;
    ``parent_id`` is ``None`` for a span opened outside any traced call.
    ``observers`` maps a span name to a callable that receives the wrapped
    function's return value, for counts taken where the work happens.
    """

    def __init__(self, package: str = PACKAGE, layers=LAYERS, observers=None):
        self.package = package
        self.functions = public_functions(package, layers)
        self.observers = dict(observers or {})
        self.spans: list = []
        self.invocation = 0
        self._stack: list = []
        self._ids = itertools.count()
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.invocation, name, start, end))
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to a public function with its wrapper."""
        wrappers = {
            id(fn): self._wrap(name, fn) for name, fn in self.functions.items()
        }
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == self.package
                or mod_name.startswith(self.package + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_table(self) -> dict:
        """``{name: {"calls": n, "self_s": s}}`` over every recorded span.

        Self time is a span's duration minus the time its child spans
        cover; calls nest, so children of one span never overlap.
        """
        child_time = defaultdict(float)
        for _sid, parent, _inv, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table = {
            name: {"calls": 0, "self_s": 0.0} for name in self.functions
        }
        for sid, _parent, _inv, name, start, end in self.spans:
            row = table[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[sid]
        return table

    def root_total(self) -> float:
        """Summed duration of the spans opened outside any traced call."""
        return sum(
            end - start
            for _sid, parent, _inv, _name, start, end in self.spans
            if parent is None
        )

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": [
                        "span_id", "parent_id", "invocation", "name",
                        "start", "end",
                    ],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
