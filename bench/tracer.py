"""Span timers for the traced benchmark run.

Each package module binds its collaborators with ``from .x import name``,
so a call is intercepted only by replacing the attribute on the module that
makes the call (``subadapt.trainer.build_graph``, not
``subadapt.neighborhood.build_graph``). A span records its wall time and the
part of it covered by spans opened inside it, which gives self time.
"""

from __future__ import annotations

import time
from collections import Counter


class Stat:
    """Calls, inclusive seconds and seconds spent in child spans."""

    __slots__ = ("calls", "seconds", "child_seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.child_seconds = 0.0

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Tracer:
    """Collects spans and counters; ``install`` patches modules, ``restore``
    puts the original functions back."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child seconds of each span in progress
        self._patched: list = []

    def span(self, name, fn, on_result=None):
        """``fn`` wrapped in a span named ``name``. ``on_result(args, kwargs,
        result, counts)`` runs after the span closes, to read counters off
        the returned value."""

        def traced(*args, **kwargs):
            started = time.perf_counter()
            self._open.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stat = self.stats.setdefault(name, Stat())
                stat.calls += 1
                stat.seconds += elapsed
                stat.child_seconds += self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
            if on_result is not None:
                on_result(args, kwargs, result, self.counts)
            return result

        return traced

    def install(self, layers):
        """Patch every ``(module, attribute, name, on_result)`` in ``layers``."""
        for module, attr, name, on_result in layers:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.span(name, original, on_result))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
