"""Wall-clock spans around a program's public functions, patched from outside.

A span is recorded at each call of a patched function: its duration, and
its self time, which is the duration minus the time spent in patched
functions it called. Functions are patched where their callers look them
up, and every patch is undone by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict


class SpanStats:
    """Calls, total and self seconds, and every duration, of one span."""

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []

    def add(self, duration: float, self_time: float) -> None:
        self.calls += 1
        self.total_s += duration
        self.self_s += self_time
        self.durations.append(duration)

    def p50(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


class Tracer:
    """Records spans into ``spans`` and counts into ``counts`` while patched."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper recording span ``name``.

        ``observe(tracer, args, result)`` runs after each call, outside the
        span, to update counts.
        """
        original = vars(owner)[attr]
        stats = self.spans[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                self._open.pop()
                if self._open:
                    self._open[-1][0] += duration
                stats.add(duration, duration - children[0])
            if observe is not None:
                observe(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
