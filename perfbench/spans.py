"""In-memory spans recorded by the harness's wrappers around public calls.

A span has a name, a start, an end, a parent and a trace id shared by
every span of one request (or one scheduler cycle).  Spans live in a
list until the run ends; nothing is written while the workload runs.
Each thread keeps its own parent stack, so a scheduler cycle in an
executor thread and the queries on the event loop build separate trees.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

clock = time.perf_counter


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: str | int | None


class Tracer:
    """Collects spans; :meth:`wrap` times one callable per call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(time, name, amount)`` counts, windowed like spans
        self.counts: list[tuple[float, str, float]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace: str | int | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = parent.trace
        with self._lock:
            span = Span(len(self.spans), name, clock(), 0.0,
                        parent.index if parent else None, trace)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = clock()
        self._stack().pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts.append((clock(), name, amount))

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        trace_of: Callable[..., str | int | None] | None = None,
        after: Callable[[Any, tuple[Any, ...]], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``.

        ``trace_of(*args)`` names the trace a top-level call starts;
        ``after(result, args)`` records counts from the call's result.
        """
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.begin(name, trace_of(*args) if trace_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(result, args)
            return result

        return traced

    def records(self) -> list[tuple[Any, ...]]:
        """Spans as plain tuples ``(name, start, end, parent, trace)``."""
        with self._lock:
            return [(s.name, s.start, s.end, s.parent, s.trace) for s in self.spans]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(records: Sequence[tuple[Any, ...]]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval before the union, so
    a child that outlives its parent is not charged against it twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _trace in records:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent, _trace) in enumerate(records):
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        out.append((end - start) - union_length(clipped))
    return out


def within(records: Sequence[tuple[Any, ...]], start: float, end: float) -> list[tuple[Any, ...]]:
    """The finished span trees whose root starts in ``[start, end)``, re-indexed.

    Spans carry ``perf_counter`` times, which on Linux read the system-wide
    monotonic clock, so a window taken in one process selects spans
    recorded in another.
    """
    keep: dict[int, int] = {}
    out: list[tuple[Any, ...]] = []
    for index, (name, s, e, parent, trace) in enumerate(records):
        if parent is None:
            if not start <= s < end or e < s:  # outside, or still open
                continue
        elif parent not in keep:
            continue
        keep[index] = len(out)
        out.append((name, s, e, None if parent is None else keep[parent], trace))
    return out


def totals(
    counts: Sequence[tuple[float, str, float]], start: float = -math.inf, end: float = math.inf
) -> dict[str, float]:
    """Counts recorded in ``[start, end)``, summed by name."""
    out: dict[str, float] = {}
    for when, name, amount in counts:
        if start <= when < end:
            out[name] = out.get(name, 0.0) + amount
    return out


def busy(records: Sequence[tuple[Any, ...]], *names: str) -> float:
    """Summed duration of the spans with any of ``names``."""
    wanted = set(names)
    return sum(end - start for name, start, end, _p, _t in records if name in wanted)


def self_busy(records: Sequence[tuple[Any, ...]], selfs: Sequence[float], *names: str) -> float:
    """Summed self time of the spans with any of ``names``."""
    wanted = set(names)
    return sum(st for rec, st in zip(records, selfs) if rec[0] in wanted)


def calls(records: Sequence[tuple[Any, ...]], *names: str) -> int:
    wanted = set(names)
    return sum(1 for rec in records if rec[0] in wanted)
