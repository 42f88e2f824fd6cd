"""Outside-in tracing of altproj: spans recorded around the library's public functions.

The tracer replaces every public function of the ``altproj`` modules with a
wrapper, in every module namespace that holds it.  That includes names one
module imports from another (``diagnostics.operator_error_norms`` is the same
object as ``dynamics.operator_error_norms``), so calls between layers are seen
as well as calls from the benchmark.  No file under ``src/`` is edited.

A span is ``[name, start, end, parent, request, work]``: ``parent`` is the
index of the enclosing span (-1 at the root), ``request`` the analysed system
it belongs to, and ``work`` an optional per-call size read from the arguments
(see ``WORK``).  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _svd_work(a):
    m, n = np.shape(a["a"])
    return float(m * n * min(m, n))


def _projections(a):
    per_pass = a["system"].n_subspaces if a["schedule"].kind == "cyclic" else 1
    return float(a["n_max"] * per_pass)


# per-call work read from the bound arguments: SVD size m*n*min(m, n) of an
# operator norm, powers T^1..T^n_max of an error-norm trace, projections
# applied by an iteration
WORK = {
    "numerics.operator_norm": _svd_work,
    "dynamics.operator_error_norms": lambda a: float(a["n_max"]),
    "dynamics.iterate_vector": _projections,
}


class Tracer:
    """Span recorder that patches and restores the functions of one package."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name: str, work: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request, work])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, work: float | None = None):
        index = self.open(name, work)
        try:
            yield index
        finally:
            self.close(index)

    def _wrap(self, name: str, fn):
        measure = WORK.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = measure(signature.bind(*args, **kwargs).arguments) if measure else None
            with self.span(name, work):
                return fn(*args, **kwargs)
        return traced

    def install(self, package: str = "altproj") -> None:
        """Wrap each public function of package's modules wherever it is bound."""
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded in another process below the span at parent."""
        base = len(self.spans)
        for name, start, end, up, _, work in spans:
            self.spans.append([name, start, end, parent if up < 0 else base + up, self.request, work])

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request", "work")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, summed work.

    Self time is a span's duration minus the durations of its direct
    children; within one thread children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0})
    for i, (name, start, end, _, _, work) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["work"] += work or 0.0
    return out


def power_reuse(spans: list[list]) -> float:
    """Largest n_max requested per system, summed, over powers computed."""
    largest: dict = {}
    computed = 0.0
    for name, _, _, _, request, work in spans:
        if name == "dynamics.operator_error_norms":
            largest[request] = max(largest.get(request, 0.0), work)
            computed += work
    return sum(largest.values()) / computed if computed else 0.0
