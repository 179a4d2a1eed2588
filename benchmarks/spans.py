"""Span recorder for the traced benchmark run.

The recorder wraps every public function of the program's layer modules
from the outside, so nothing in the package changes.  A function is wrapped
in every module namespace that binds it: `loss_forward` is reached through
both `diffmsg.nmt.model` and `diffmsg.nmt.training`, and `ensemble_decode`
through `diffmsg.nmt`, `diffmsg.nmt.decoding` and `diffmsg.cli`.  Each call
becomes one span with a name, a start, an end and a parent.  Spans stay in
memory as parallel lists and are written out once, when the run ends.

A span name the benchmark asks for but no module defines any more (for
example after a refactor removes a helper) is reported as missing; the run
still completes and the metrics built on it read zero.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

PACKAGE = "diffmsg"

# The layers: one module each, named relative to the package.
LAYERS = ("corpus", "vdo", "nmt.model", "nmt.training", "nmt.decoding", "bleu", "qa", "cli")

# Modules whose namespaces may bind a layer function under another name path.
NAMESPACES = LAYERS + ("nmt",)

# measure(args, kwargs, result) -> a number or tuple stored on the span.
Measure = Callable[[tuple, dict, object], object]


class Recorder:
    """Collects spans while installed; restores every binding on uninstall."""

    def __init__(self, measures: dict[str, Measure] | None = None) -> None:
        self.measures = measures or {}
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.value: list[object] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    def _open(self, name: str) -> int:
        index = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(None)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span, such as one stage or one request."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        measure = self.measures.get(name)
        recorder = self

        def wrapper(*args, **kwargs):
            index = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index)
            if measure is not None:
                recorder.value[index] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap each public layer function in every namespace that binds it."""
        wrappers: dict[int, object] = {}
        for rel in NAMESPACES:
            module = importlib.import_module(f"{PACKAGE}.{rel}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = getattr(fn, "__module__", "") or ""
                if not home.startswith(PACKAGE + ".") or inspect.isgeneratorfunction(fn):
                    continue
                layer = home[len(PACKAGE) + 1:]
                if layer not in LAYERS:
                    continue
                name = f"{layer}.{fn.__name__}"
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                    self.wrapped.add(name)
                setattr(module, attr, wrappers[id(fn)])
                self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # ------------------------------------------------------------------
    # Aggregation

    def durations(self, scale: Callable[[float], float] | None = None) -> list[float]:
        """Each span's end minus start, times scale(start) when given."""
        if scale is None:
            return [e - s for s, e in zip(self.start, self.end)]
        return [(e - s) * scale(s) for s, e in zip(self.start, self.end)]

    def self_times(self, durations: list[float]) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += durations[index]
        return [d - c for d, c in zip(durations, child)]

    def scopes(self, prefix: str = "stage.") -> list[str]:
        """For each span, the name of its nearest ancestor named `prefix*`."""
        scope = [""] * len(self.name)
        for index, name in enumerate(self.name):  # parents precede children
            if name.startswith(prefix):
                scope[index] = name[len(prefix):]
            elif self.parent[index] >= 0:
                scope[index] = scope[self.parent[index]]
        return scope

    def write(self, path: Path, extra: dict) -> None:
        """Write every span and the run's summary as one JSON document."""
        payload = dict(extra)
        payload["spans"] = {
            "fields": ["name", "start_s", "end_s", "parent", "value"],
            "rows": [
                [n, round(s, 7), round(e, 7), p, v if isinstance(v, (int, float)) or v is None else list(v)]
                for n, s, e, p, v in zip(self.name, self.start, self.end, self.parent, self.value)
            ],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
