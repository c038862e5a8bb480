"""In-memory span tracer with one span stack per thread.

A span records its name, start, end, parent span and thread id. Spans are
kept in memory, then summarised and written out after the traced run;
nothing is written while the program runs. While a root span is open, a
span begun on a thread with an empty stack (a sweep pool worker) takes the
root as its parent, so the root's self time is the time during which no
traced function ran on any thread.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name: str, start: float, end: float | None = None,
                 parent: "Span | None" = None, thread: int = 0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.root: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        span = Span(name, time.perf_counter(), parent=parent,
                    thread=threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    @contextmanager
    def root_span(self, name: str):
        """Open the span every other span of this run nests under."""
        span = self.begin(name)
        self.root = span
        try:
            yield span
        finally:
            self.root = None
            self.end(span)

    def wrap(self, fn, name, on_return=None):
        """Wrap ``fn`` in a span. ``name`` is a string or a function of the
        call's positional arguments; ``on_return(tracer, args, kwargs,
        result)`` records counts after the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced


def span_records(spans: list[Span]) -> list[dict]:
    """The spans as plain records; ``parent`` is the index of the parent span."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [{"name": s.name, "start": s.start, "end": s.end,
             "parent": None if s.parent is None else index[id(s.parent)],
             "thread": s.thread} for s in spans]


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``s`` (summed duration) and ``self_s``
    (duration minus the part of it that child spans cover)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span.end - span.start
        row["calls"] += 1
        row["s"] += duration
        row["self_s"] += duration - _covered(span.start, span.end,
                                             children.get(id(span), []))
    return out


def child_calls(spans: list[Span], parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans opened directly inside a ``parent_name`` span."""
    return sum(1 for s in spans
               if s.name == child_name and s.parent is not None
               and s.parent.name == parent_name)
