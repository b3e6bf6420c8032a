"""Spans, self times and percentiles for the benchmark's traced runs.

Spans are recorded from the benchmark's own code: :meth:`Tracer.wrap`
replaces a public method on one object (or class) with a timing wrapper,
so nothing under ``src/`` changes.  Spans stay in memory until the run
ends; :func:`self_times` then subtracts from each span the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass

#: Percentiles the benchmark may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the id of the enclosing span or None."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    rows: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a thread-local stack links parents."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()

    def record(self, name: str, fn, *args, rows: int = 0, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, rows))

    def wrap(self, owner, attr: str, name: str, rows_arg: int | None = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is an instance (only its calls are timed) or a class
        (every instance's calls are, including in processes forked later).
        ``rows_arg`` names the positional argument whose length is the
        span's row count.
        """
        original = getattr(owner, attr)
        tracer = self

        if isinstance(owner, type):

            @functools.wraps(original)
            def method(self_, *args, **kwargs):
                rows = len(args[rows_arg]) if rows_arg is not None else 0
                return tracer.record(name, original, self_, *args, rows=rows, **kwargs)

            setattr(owner, attr, method)
            return

        @functools.wraps(original)
        def bound(*args, **kwargs):
            rows = len(args[rows_arg]) if rows_arg is not None else 0
            return tracer.record(name, original, *args, rows=rows, **kwargs)

        setattr(owner, attr, bound)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, total seconds and self seconds."""
        return summarize(self.spans)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered_length(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name, and per ``parent>child`` name pair: calls, rows,
    total seconds and self seconds."""
    own = self_times(spans)
    names = {span.id: span.name for span in spans}
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        keys = [span.name]
        if span.parent in names:
            keys.append(f"{names[span.parent]}>{span.name}")
        for key in keys:
            entry = out.setdefault(key, {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["rows"] += span.rows
            entry["total_s"] += span.duration
            entry["self_s"] += own[span.id]
    return out


def merge_summaries(*summaries: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Sum per-name summaries from several processes."""
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = out.setdefault(name, {key: 0 for key in entry})
            for key, value in entry.items():
                into[key] += value
    return out


def tail_percentile(count: int) -> float | None:
    """Highest percentile of the ladder with ``MIN_TAIL_SAMPLES`` beyond it.

    ``None`` when even the median is unsupported.
    """
    # The epsilon absorbs rounding in 100 - 99.9.
    supported = [
        p for p in PERCENTILE_LADDER if count * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9
    ]
    return supported[-1] if supported else None


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
