"""In-memory spans recorded around the module-level names each layer exposes.

The program is never edited. ``instrument`` replaces a function with a
timing wrapper in every ``locfront`` module that binds it (the defining
module and each ``from .x import name`` site), and restores the originals on
exit. Wrappers only work in-process, so traced runs use a single worker.
"""

from __future__ import annotations

import importlib
import math
import os
import struct
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    """One call at a layer boundary; ``root`` identifies the request."""

    name: str
    parent: int | None
    root: int
    start: float
    end: float = math.nan
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one pass; the span id is its index in ``spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None):
        """Timing wrapper for ``fn``; ``observe(info, args, kwargs, result)``
        records counts once the span has ended, so its cost stays out of it."""

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            root = sid if parent is None else self.spans[parent].root
            span = Span(name, parent, root, time.perf_counter())
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(span.info, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


class DurationLog:
    """Stands in for a ``Tracer`` and only appends each call's duration, as
    float64 seconds, to one file.

    Each call is one ``os.write`` to an O_APPEND descriptor, so pool workers
    forked while the wrapper is installed record into the same file, and
    nothing is left in a buffer when they exit.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND
        )

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None):
        fd = self._fd

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            os.write(fd, struct.pack("d", time.perf_counter() - t0))
            return result

        timed.__wrapped__ = fn
        return timed

    def take(self) -> list[float]:
        """Durations recorded since the last ``take``."""
        data = self.path.read_bytes()
        os.ftruncate(self._fd, 0)
        return list(struct.unpack(f"{len(data) // 8}d", data))

    def close(self) -> None:
        os.close(self._fd)


@contextmanager
def instrument(tracer: Tracer | DurationLog, probes):
    """Patch every ``(module, attr, span_name, observe)`` probe for the block.

    All ``locfront`` modules holding the same function object get the
    wrapper, so callers that imported the name directly are traced too.
    """
    undo = []
    try:
        for module_name, attr, span_name, observe in probes:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = tracer.wrap(span_name, original, observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "locfront" or mod_name.startswith("locfront.")
                ):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, name, original))
                        setattr(mod, name, wrapper)
        yield tracer
    finally:
        for mod, name, original in reversed(undo):
            setattr(mod, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for sid, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def busy_time(spans: list[Span], name: str) -> float:
    """Total time inside outermost spans called ``name``."""
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name != name:
            parent = spans[parent].parent
        if parent is None:
            total += span.duration
    return total


def percentile(samples, level: float) -> float:
    """Nearest-rank percentile, ``level`` in (0, 100]."""
    ordered = sorted(samples)
    # the epsilon keeps float rounding in level * n from skipping a rank
    rank = max(1, math.ceil(level / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_level(n: int) -> float:
    """Highest percentile up to 99 that leaves 10 of n samples beyond it.

    Below 20 samples no level above the median leaves 10 beyond it, and the
    maximum is the tail.
    """
    if n < 20:
        return 100.0
    return min(99.0, 100.0 * (n - 10) / n)
